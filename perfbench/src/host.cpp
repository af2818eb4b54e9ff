// host.cpp — the host record stamped on every result.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

#include "crypto/sha256_kernel.hpp"
#include "perfbench.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string read_loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  if (!(in >> one >> five >> fifteen)) return "unknown";
  return one + " " + five + " " + fifteen;
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

HostRecord host_record() {
  using namespace fortress;
  HostRecord h;
  h.cpu_model = cpu_model();
  h.nproc = nproc();
  h.sha_tier = crypto::kernel::tier_name(crypto::kernel::active_tier());
  h.scheduler = sim::to_string(sim::default_scheduler_kind());
  h.loadavg_start = read_loadavg();
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
