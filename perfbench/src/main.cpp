// main.cpp — command line, host record, results file and the final JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --plans DIR [--results-dir DIR] [--break-check fingerprint|analytic]
//
// `--setup-only 1` is internal: the run re-executes itself in this mode to
// time set-up from process start (see measure_setup_s).
//
// The last line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "perfbench.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  checks.push_back((ok ? "PASS " : "FAIL ") + what);
}

bool Report::correct() const {
  if (failed != 0 || attempted == 0) return false;
  for (const std::string& c : checks) {
    if (c.rfind("FAIL", 0) == 0) return false;
  }
  return true;
}

namespace {

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_plans = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--plans") {
      opt.plans_dir = v;
      have_plans = true;
    } else if (flag == "--results-dir") {
      opt.results_dir = v;
    } else if (flag == "--setup-only") {
      opt.setup_only = v == "1";
    } else if (flag == "--break-check") {
      if (v != "fingerprint" && v != "analytic") {
        throw std::invalid_argument("--break-check takes fingerprint or analytic");
      }
      opt.break_check = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !is_workload(opt.workload)) {
    throw std::invalid_argument("--workload must be lifetime, screening, "
                                "service_load or model_sweep");
  }
  if (!have_plans) throw std::invalid_argument("--plans is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

void write_metrics(fortress::json::Writer& w, const Report& rep) {
  w.begin_object();
  for (const Metric& m : rep.metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
}

/// The contract line: exactly correct / attempted / failed / metrics.
std::string result_line(const Report& rep) {
  fortress::json::Writer w(/*compact=*/true);
  w.begin_object();
  w.key("correct");
  w.value(rep.correct());
  w.key("attempted");
  w.value(rep.attempted);
  w.key("failed");
  w.value(rep.failed);
  w.key("metrics");
  write_metrics(w, rep);
  w.end_object();
  return w.str();
}

/// The full record of one run: what the result line says plus the host,
/// the exact counters and every check.
void write_results_file(const std::string& path, const Options& opt,
                        const HostRecord& host, const Report& rep) {
  fortress::json::Writer w;
  w.begin_object();
  w.key("workload");
  w.value(opt.workload);
  w.key("seed");
  w.value(opt.seed);
  w.key("seconds");
  w.value(opt.seconds);
  w.key("trace");
  w.value(opt.trace);
  w.key("host");
  w.begin_object();
  w.key("cpu_model");
  w.value(host.cpu_model);
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(host.nproc));
  w.key("sha_tier");
  w.value(host.sha_tier);
  w.key("scheduler");
  w.value(host.scheduler);
  w.key("loadavg_start");
  w.value(host.loadavg_start);
  w.key("loadavg_end");
  w.value(host.loadavg_end);
  w.end_object();
  w.key("correct");
  w.value(rep.correct());
  w.key("attempted");
  w.value(rep.attempted);
  w.key("failed");
  w.value(rep.failed);
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : rep.counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("checks");
  w.begin_array();
  for (const std::string& c : rep.checks) w.value(c);
  w.end_array();
  w.key("metrics");
  write_metrics(w, rep);
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

std::string results_stem(const Options& opt) {
  return opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
         (opt.trace ? "1" : "0");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    if (opt.setup_only) {
      set_up(opt);
      std::fputs("ready\n", stdout);
      std::fflush(stdout);
      return 0;
    }
    HostRecord host = host_record();
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("host: cpu=\"%s\" nproc=%u sha_tier=%s scheduler=%s loadavg=%s\n",
                host.cpu_model.c_str(), host.nproc, host.sha_tier.c_str(),
                host.scheduler.c_str(), host.loadavg_start.c_str());
    if (!opt.results_dir.empty()) std::filesystem::create_directories(opt.results_dir);

    const bool live = is_live_workload(opt.workload);
    const Report rep = opt.trace ? (live ? trace_live(opt) : trace_sweep(opt))
                                 : (live ? run_live(opt) : run_sweep_workload(opt));
    host.loadavg_end = read_loadavg();
    std::printf("host: loadavg at end=%s\n", host.loadavg_end.c_str());
    for (const std::string& c : rep.checks) std::printf("check: %s\n", c.c_str());
    for (const Metric& m : rep.metrics) {
      std::printf("metric: %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!opt.results_dir.empty()) {
      write_results_file(opt.results_dir + "/" + results_stem(opt) + ".json", opt,
                         host, rep);
    }
    std::printf("%s\n", result_line(rep).c_str());
    std::fflush(stdout);
    return rep.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
