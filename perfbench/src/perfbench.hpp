// perfbench.hpp — shared declarations of the FORTRESS benchmark.
//
// The benchmark drives the library only through its public headers. One
// process runs one workload, either untraced (the end-to-end metrics) or
// traced (the per-layer metrics, from spans the benchmark records around
// its own calls into each module). See README.md for the workloads and the
// metric -> module -> end-to-end map.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "scenario/campaign.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// In-memory span recorder for the traced run. A span is (name, trace id,
/// parent span, start, end); spans of one trial share its trace id. Names
/// must be string literals. Spans are written out when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Span {
    const char* name = "";
    std::uint64_t trace_id = 0;
    std::uint32_t parent = kNoParent;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
    double duration() const { return end_s - start_s; }
  };

  std::uint32_t begin(const char* name, std::uint64_t trace_id = 0,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of durations of every span called `name`.
  double total_s(const char* name) const;
  /// Total self time per span name: duration minus the part of it that
  /// child spans cover.
  std::vector<std::pair<std::string, double>> self_time_by_name() const;
  /// Write every span as JSON to `path`.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string plans_dir;    ///< perfbench/plans
  std::string results_dir;  ///< where the results (and span) files go; "" = none
  /// Run set_up only, print one line and exit (see measure_setup_s).
  bool setup_only = false;
  /// Test hook: "fingerprint" corrupts the 1-thread aggregate fingerprint,
  /// "analytic" corrupts the analytic reference — either must fail the run.
  std::string break_check;
};

/// File-name stem of this run's results ("lifetime-seed7-trace0").
std::string results_stem(const Options& opt);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `metrics` holds the end-to-end metrics in an
/// untraced run and the per-layer metrics in a traced one.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Exact work counters (name -> count), identical across repetitions.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// One line per correctness check: "PASS ..." / "FAIL ..." / "SKIP ...".
  std::vector<std::string> checks;

  void check(bool ok, const std::string& what);
  bool correct() const;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// --- host.cpp ----------------------------------------------------------------

/// Where a result was measured, so results from different hosts or SHA
/// dispatch tiers are never compared silently.
struct HostRecord {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string sha_tier;
  std::string scheduler;
  std::string loadavg_start;
  std::string loadavg_end;
};

/// Hardware threads, at least 1: the campaign worker count.
unsigned nproc();
HostRecord host_record();
std::string read_loadavg();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// --- workloads.cpp -----------------------------------------------------------

/// A live-campaign workload: its cells (decoded from the benchmark's own
/// plan copies) and the campaign configuration it runs them under.
struct LiveWorkload {
  std::string name;
  std::vector<fortress::scenario::CampaignCell> cells;
  fortress::scenario::CampaignConfig config;
  /// Independent campaigns in one measured repetition, replicate j with
  /// base seed replicate_seed(seed, j); replicate 0 is config.base_seed.
  std::uint64_t replicates = 1;
};

/// Base seed of replicate `j` of a run with seed `seed`: `seed` itself for
/// j = 0, a derived seed after that.
std::uint64_t replicate_seed(std::uint64_t seed, std::uint64_t j);

/// One cell of the analytic / Monte-Carlo sweep.
struct SweepCell {
  fortress::model::SystemShape shape;
  fortress::model::AttackParams params;
  fortress::model::Obfuscation obf = fortress::model::Obfuscation::Proactive;
  std::string label;
};

struct SweepWorkload {
  std::vector<SweepCell> cells;
  std::uint64_t trials_per_cell = 0;
  std::uint64_t seed = 1;
};

/// Result of one sweep cell. The interval is the Monte-Carlo mean +- 5
/// standard errors: a per-cell miss probability of 6e-7, so a grid of dozens
/// of cells checked on every run stays free of false alarms.
struct SweepOutcome {
  bool has_analytic = false;
  double analytic = 0.0;
  double mc_mean = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  std::uint64_t trials = 0;
  std::uint64_t censored = 0;
};

/// Every plan file (*.json) in `dir`, decoded and validated, in file-name
/// order.
std::vector<fortress::net::ScenarioPlan> read_plans(const std::string& dir);

bool is_live_workload(const std::string& name);
bool is_workload(const std::string& name);

/// Decode and validate the workload's plan files and build its cells.
LiveWorkload load_live(const Options& opt);
SweepWorkload load_sweep(const Options& opt);

/// Everything a run does before its first trial, as run_campaign does it:
/// plan decoding and validation, starting the shared thread pool, and (live
/// workloads) one TrialArena per pool slot. The deployment inside an arena
/// is built by its first TrialArena::run, so that cost counts as trial time.
void set_up(const Options& opt);
/// Host seconds from process start to the first trial issued: the median
/// over runs of this program in set-up-only mode, which exits after set_up.
double measure_setup_s(const Options& opt);

/// Model-side view of a live cell (for the analytic and Monte-Carlo layers).
SweepCell sweep_cell_of(const fortress::scenario::CampaignCell& cell);

/// Run the whole sweep once: analytic value + Monte-Carlo estimate per cell.
/// With a tracer, each analytic and Monte-Carlo call gets a span.
std::vector<SweepOutcome> run_sweep(const SweepWorkload& w, unsigned threads,
                                    Tracer* tracer = nullptr);

/// Exact counters of a campaign / sweep; two runs with the same seed must
/// agree on every one.
struct Counters {
  std::uint64_t fingerprint = 0;
  std::uint64_t trials = 0;
  std::uint64_t events = 0;
  std::uint64_t probes = 0;
  std::uint64_t requests = 0;
  bool operator==(const Counters&) const = default;
  /// Add the counters of the next campaign of a batch; the fingerprint
  /// covers every campaign, in order.
  Counters& operator+=(const Counters& o) {
    fingerprint = fingerprint * 0x100000001b3ULL ^ o.fingerprint;
    trials += o.trials;
    events += o.events;
    probes += o.probes;
    requests += o.requests;
    return *this;
  }
};
Counters counters_of(const fortress::scenario::CampaignResult& r);
Counters counters_of(const std::vector<SweepOutcome>& r);

/// The output checks of one live campaign result `r` of `w`: with
/// `thread_check`, a 1-thread re-run reproduces its aggregates bit for bit;
/// on lifetime, each cell's mean lifetime matches the analytic model; on
/// service_load, terminal requests never exceed offered ones. Records each
/// check in `rep` and returns the trials of the cells that fail one.
std::uint64_t check_live_outputs(const LiveWorkload& w,
                                 const fortress::scenario::CampaignResult& r,
                                 const Options& opt, Report& rep,
                                 bool thread_check = true);
/// The sweep's check: every Monte-Carlo interval covers the analytic value
/// where one exists. Returns the trials of the cells that fail it.
std::uint64_t check_sweep_outputs(const SweepWorkload& w,
                                  const std::vector<SweepOutcome>& r,
                                  const Options& opt, Report& rep);

/// The untraced run: set-up, the measured phase and every output check.
Report run_live(const Options& opt);
Report run_sweep_workload(const Options& opt);

// --- layers.cpp --------------------------------------------------------------

/// The traced run: per-layer metrics, the attribution table, and the span
/// file.
Report trace_live(const Options& opt);
Report trace_sweep(const Options& opt);

}  // namespace perfbench
