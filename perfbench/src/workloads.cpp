// workloads.cpp — the four workloads, their set-up, the untraced measured
// phase and the output checks.
//
// Every workload runs one campaign (or sweep) repeatedly with the SAME seed
// for the measured time: the median repetition gives the wall-clock metrics,
// and every repetition must reproduce the first one's exact counters, so
// nondeterminism cannot pose as a speed change.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/evaluator.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/live_system.hpp"
#include "exec/thread_pool.hpp"
#include "montecarlo/engine.hpp"
#include "perfbench.hpp"
#include "scenario/differential.hpp"
#include "scenario/plan_codec.hpp"

namespace perfbench {

using namespace fortress;
using scenario::CampaignCell;
using scenario::CampaignResult;
using scenario::CellStats;

namespace {

// Sizes. A lifetime trial's cost is proportional to its lifetime, so the
// trial count per cell is what keeps the work of one repetition nearly the
// same from seed to seed (the spread of a cell's summed lifetimes falls as
// 1/sqrt(trials)).
constexpr std::uint64_t kLifetimeTrialsPerCell = 256;
constexpr std::uint64_t kServiceTrialsPerCell = 16;
constexpr std::uint64_t kSweepTrialsPerCell = 400'000;
// Independent campaigns per measured repetition. A campaign's work depends
// on its seed: through the lifetimes (lifetime, ~3%), the client traffic
// (service_load, ~6%) and the stopping rules (screening, ~5%, and one
// screening campaign takes only ~0.1 s). A batch averages it out.
constexpr std::uint64_t kLifetimeReplicates = 2;
constexpr std::uint64_t kServiceReplicates = 4;
constexpr std::uint64_t kScreeningReplicates = 8;
// Monte-Carlo trials are censored here; far beyond the longest expected
// lifetime on the grid (~2e7 steps), so no trial is.
constexpr std::uint64_t kSweepMaxSteps = 1'000'000'000'000ULL;
constexpr double kSweepCheckZ = 5.0;
// Set-up is timed by re-running this program in set-up-only mode, and the
// median of these runs is reported.
constexpr int kSetupRepeats = 41;
constexpr std::size_t kMinRepeats = 2;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<net::ScenarioPlan> read_plans(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) throw std::runtime_error("no plan files in " + dir);
  std::vector<net::ScenarioPlan> plans;
  for (const auto& f : files) plans.push_back(scenario::plan_from_json(read_file(f)));
  return plans;
}

namespace {

std::string cell_label(const CampaignCell& c) {
  return model::to_string(c.system) + "/" + c.plan.name;
}

std::uint64_t cell_fingerprint(const CellStats& c) {
  CampaignResult one;
  one.cells.push_back(c);
  one.total_trials = c.trials;
  one.total_events = c.events_executed;
  return scenario::campaign_fingerprint(one);
}

void print_counters(const Counters& c, bool live) {
  const double t = static_cast<double>(std::max<std::uint64_t>(1, c.trials));
  std::printf("counters: trials=%llu", static_cast<unsigned long long>(c.trials));
  if (live) {
    std::printf(" events/trial=%.3f probes/trial=%.3f requests/trial=%.3f",
                static_cast<double>(c.events) / t,
                static_cast<double>(c.probes) / t,
                static_cast<double>(c.requests) / t);
  }
  std::printf(" fingerprint=%016llx\n",
              static_cast<unsigned long long>(c.fingerprint));
}

void add_counters(Report& rep, const Counters& c, bool live) {
  rep.counters.push_back({"trials", c.trials});
  if (live) {
    rep.counters.push_back({"events", c.events});
    rep.counters.push_back({"probes", c.probes});
    rep.counters.push_back({"requests", c.requests});
  }
  rep.counters.push_back({"fingerprint", c.fingerprint});
}

/// Repetitions of one campaign/sweep within the measured time.
struct Repeats {
  std::vector<double> wall_s;
  std::vector<Counters> counters;
  std::uint64_t trials = 0;
};

template <typename RunOnce>
Repeats measure(double seconds, RunOnce&& run_once) {
  Repeats reps;
  const auto start = Clock::now();
  double dt = 0.0;
  // A repetition starts only if it should end by half a repetition after
  // `seconds`, so a run measures `seconds` on average, whatever the length
  // of a repetition.
  do {
    const auto t0 = Clock::now();
    const Counters c = run_once();
    dt = elapsed_s(t0);
    reps.wall_s.push_back(dt);
    reps.counters.push_back(c);
    reps.trials += c.trials;
  } while (elapsed_s(start) + dt / 2 < seconds || reps.wall_s.size() < kMinRepeats);
  return reps;
}

/// Shared tail of both untraced runs: repeat check, failure accounting and
/// the end-to-end metrics.
void finish(Report& rep, const Repeats& reps, double setup_s,
            std::uint64_t failing_trials_per_repeat, bool live) {
  const bool repeat_ok =
      std::all_of(reps.counters.begin(), reps.counters.end(),
                  [&](const Counters& c) { return c == reps.counters.front(); });
  rep.check(repeat_ok, "exact counters repeat across " +
                           std::to_string(reps.counters.size()) +
                           " same-seed repetitions");
  print_counters(reps.counters.front(), live);
  add_counters(rep, reps.counters.front(), live);

  rep.attempted = reps.trials;
  rep.failed = repeat_ok ? failing_trials_per_repeat * reps.counters.size()
                         : reps.trials;
  std::printf("repetitions: %zu, wall s:", reps.wall_s.size());
  for (double w : reps.wall_s) std::printf(" %.4f", w);
  std::printf("\n");

  // Every repetition does the same work, so the median repetition gives both.
  const double run_s = median(reps.wall_s);
  rep.add("trials_per_s", static_cast<double>(reps.counters.front().trials) / run_s,
          "1/s");
  rep.add("run_s", run_s, "s");
  rep.add("setup_s", setup_s, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace

double median(std::vector<double> v) { return fortress::quantile(std::move(v), 0.5); }

bool is_live_workload(const std::string& name) {
  return name == "lifetime" || name == "screening" || name == "service_load";
}
bool is_workload(const std::string& name) {
  return is_live_workload(name) || name == "model_sweep";
}

LiveWorkload load_live(const Options& opt) {
  LiveWorkload w;
  w.name = opt.workload;
  const std::vector<net::ScenarioPlan> plans =
      read_plans(opt.plans_dir + "/" + opt.workload);
  using model::SystemKind;
  const std::vector<SystemKind> systems =
      w.name == "service_load"
          ? std::vector<SystemKind>{SystemKind::S1, SystemKind::S2}
          : std::vector<SystemKind>{SystemKind::S0, SystemKind::S1, SystemKind::S2};
  w.cells = scenario::cross(systems, plans);
  w.config.base_seed = opt.seed;
  w.config.threads = nproc();
  if (w.name == "lifetime") {
    w.replicates = kLifetimeReplicates;
    w.config.trials_per_cell = kLifetimeTrialsPerCell;
    w.config.ci_level = 0.99;  // the live-vs-analytic tolerance's interval
  } else if (w.name == "service_load") {
    w.replicates = kServiceReplicates;
    w.config.trials_per_cell = kServiceTrialsPerCell;
  } else {
    w.replicates = kScreeningReplicates;
    // Triage: a cell closes once both its mean lifetime and its compromise
    // probability are resolved, each with an absolute floor so cells at or
    // near 0 close too; closed cells donate their share of each round.
    scenario::AdaptiveConfig& a = w.config.adaptive;
    a.enabled = true;
    a.round_trials = 16;
    a.max_trials_per_cell = 4096;
    a.work_stealing = true;
    using Rule = scenario::StoppingRule;
    a.rules = {Rule{Rule::Metric::MeanLifetime, 0.99, 0.05, 0.02},
               Rule{Rule::Metric::CompromiseProbability, 0.99, 0.10, 0.02}};
  }
  return w;
}

std::uint64_t replicate_seed(std::uint64_t seed, std::uint64_t j) {
  return j == 0 ? seed : scenario::trial_seed(seed, ~std::uint64_t{0}, j);
}

SweepWorkload load_sweep(const Options& opt) {
  const json::Value grid =
      json::parse(read_file(opt.plans_dir + "/model_sweep/grid.json"));
  auto axis = [&](const char* key) {
    std::vector<double> v;
    for (const json::Value& x : grid.required(key, "grid").as_array(key)) {
      v.push_back(x.as_double(key));
    }
    if (v.empty()) throw std::runtime_error(std::string("empty grid axis ") + key);
    return v;
  };
  const std::vector<double> chis = axis("chi");
  const std::vector<double> alphas = axis("alpha");
  const std::vector<double> kappas = axis("kappa");

  SweepWorkload w;
  w.trials_per_cell = kSweepTrialsPerCell;
  w.seed = opt.seed;
  using model::Obfuscation;
  using model::SystemShape;
  for (double chi : chis) {
    for (double alpha : alphas) {
      for (Obfuscation obf : {Obfuscation::StartupOnly, Obfuscation::Proactive}) {
        // kappa enters only the two-tier model, so S0/S1 run once per point.
        std::vector<std::pair<SystemShape, double>> shapes = {
            {SystemShape::s0(), 0.5}, {SystemShape::s1(), 0.5}};
        for (double kappa : kappas) shapes.push_back({SystemShape::s2(), kappa});
        for (const auto& [shape, kappa] : shapes) {
          SweepCell c;
          c.shape = shape;
          c.obf = obf;
          c.params.chi = static_cast<std::uint64_t>(chi);
          c.params.alpha = alpha;
          c.params.kappa = kappa;
          c.params.validate();
          char buf[96];
          std::snprintf(buf, sizeof buf, "%s chi=%g a=%g k=%g",
                        model::system_label(shape.kind, obf).c_str(), chi,
                        alpha, kappa);
          c.label = buf;
          w.cells.push_back(c);
        }
      }
    }
  }
  return w;
}

void set_up(const Options& opt) {
  // The steps run_campaign (and montecarlo::estimate_lifetime) take before
  // their first trial, with the library's own objects: the process-wide
  // shared pool, plan validation of every cell and one TrialArena per pool
  // slot.
  exec::ThreadPool& pool = exec::ThreadPool::shared();
  if (!is_live_workload(opt.workload)) {
    load_sweep(opt);
    return;
  }
  const LiveWorkload w = load_live(opt);
  for (const CampaignCell& cell : w.cells) cell.plan.validate();
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  if (w.config.reuse_trial_stacks) {
    arenas.resize(pool.slot_count());
    for (auto& a : arenas) a = std::make_unique<scenario::TrialArena>(w.config.scheduler);
  }
}

double measure_setup_s(const Options& opt) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  self[len] = '\0';
  const std::vector<std::string> args = {
      self, "--workload", opt.workload, "--seed", std::to_string(opt.seed),
      "--plans", opt.plans_dir, "--setup-only", "1"};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const auto t0 = Clock::now();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    // The child writes one line when its first trial would be issued.
    double dt = -1.0;
    char c = 0;
    while (rc == 0 && read(fds[0], &c, 1) == 1) {
      if (c == '\n') {
        dt = elapsed_s(t0);
        break;
      }
    }
    close(fds[0]);
    int status = 0;
    if (rc == 0) waitpid(pid, &status, 0);
    if (rc != 0 || dt < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up run failed");
    }
    times.push_back(dt);
  }
  return median(std::move(times));
}

SweepCell sweep_cell_of(const CampaignCell& cell) {
  SweepCell c;
  switch (cell.system) {
    case model::SystemKind::S0: c.shape = model::SystemShape::s0(); break;
    case model::SystemKind::S1: c.shape = model::SystemShape::s1(); break;
    case model::SystemKind::S2: c.shape = model::SystemShape::s2(cell.plan.n_proxies); break;
  }
  c.params.chi = cell.plan.keyspace;
  c.params.alpha = cell.plan.implied_alpha();
  c.params.kappa = cell.plan.attack.indirect_fraction;
  c.obf = cell.plan.rerandomize ? model::Obfuscation::Proactive
                                : model::Obfuscation::StartupOnly;
  c.label = cell_label(cell);
  return c;
}

std::vector<SweepOutcome> run_sweep(const SweepWorkload& w, unsigned threads,
                                    Tracer* tracer) {
  std::vector<SweepOutcome> out(w.cells.size());
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const SweepCell& c = w.cells[i];
    SweepOutcome& o = out[i];
    std::uint32_t span = tracer ? tracer->begin("analysis.eval", i) : 0;
    const auto ev = analysis::analytic_lifetime(c.shape, c.params, c.obf);
    if (tracer) tracer->end(span);
    if (ev) {
      o.has_analytic = true;
      o.analytic = ev->expected_lifetime;
    }
    montecarlo::McConfig mc;
    mc.trials = w.trials_per_cell;
    mc.seed = scenario::trial_seed(w.seed, i, 0);
    mc.max_steps = kSweepMaxSteps;
    mc.threads = threads;
    span = tracer ? tracer->begin("mc.estimate", i) : 0;
    const montecarlo::McResult r = montecarlo::estimate_lifetime(
        c.shape, c.params, c.obf, model::Granularity::Step, mc);
    if (tracer) tracer->end(span);
    o.mc_mean = r.expected_lifetime();
    const double half = kSweepCheckZ * r.stats.stderr_mean();
    o.ci_lo = o.mc_mean - half;
    o.ci_hi = o.mc_mean + half;
    o.trials = r.stats.count();
    o.censored = r.censored;
  }
  return out;
}

Counters counters_of(const CampaignResult& r) {
  Counters c;
  c.fingerprint = scenario::campaign_fingerprint(r);
  c.trials = r.total_trials;
  c.events = r.total_events;
  for (const CellStats& cell : r.cells) {
    c.probes += cell.attacker.direct_probes + cell.attacker.indirect_probes;
    c.requests += cell.traffic.offered + cell.population.offered;
  }
  return c;
}

Counters counters_of(const std::vector<SweepOutcome>& r) {
  json::Writer w(true);  // a byte image of every output, hashed below
  w.begin_array();
  for (const SweepOutcome& o : r) {
    w.value(o.mc_mean);
    w.value(o.ci_lo);
    w.value(o.ci_hi);
    w.value(o.censored);
  }
  w.end_array();
  Counters c;
  c.fingerprint = json::fnv1a64(w.str());
  for (const SweepOutcome& o : r) c.trials += o.trials;
  return c;
}

namespace {

/// Thread-count invariance: a 1-thread run must reproduce the aggregates bit
/// for bit. Work stealing pools the round budget across the whole grid, so
/// there only the whole grid reproduces; otherwise a seeded third of the
/// cells is re-run through run_campaign_subset (same global cell seeds).
/// Adds the cells that differ to `bad`.
void check_thread_invariance(const LiveWorkload& w, const CampaignResult& r,
                             const Options& opt, Report& rep,
                             std::set<std::size_t>& bad) {
  scenario::CampaignConfig one = w.config;
  one.threads = 1;
  std::vector<std::uint64_t> subset(w.cells.size());
  std::iota(subset.begin(), subset.end(), 0);
  if (!w.config.adaptive.work_stealing) {
    std::mt19937_64 rng(opt.seed);
    std::shuffle(subset.begin(), subset.end(), rng);
    subset.resize((w.cells.size() + 2) / 3);
    std::sort(subset.begin(), subset.end());
  }
  std::vector<CampaignCell> sub_cells;
  for (std::uint64_t i : subset) sub_cells.push_back(w.cells[i]);
  const CampaignResult single =
      scenario::run_campaign_subset(sub_cells, one, subset);
  for (std::size_t k = 0; k < subset.size(); ++k) {
    std::uint64_t fp = cell_fingerprint(single.cells[k]);
    if (opt.break_check == "fingerprint") fp ^= 1;
    const bool ok = fp == cell_fingerprint(r.cells[subset[k]]);
    rep.check(ok, "1-thread aggregates bit-identical to " +
                      std::to_string(w.config.threads) + "-thread: seed " +
                      std::to_string(w.config.base_seed) + " " +
                      cell_label(w.cells[subset[k]]));
    if (!ok) {
      // With work stealing one divergent cell shifts every later allocation.
      if (w.config.adaptive.work_stealing) {
        for (std::size_t i = 0; i < w.cells.size(); ++i) bad.insert(i);
      }
      bad.insert(subset[k]);
    }
  }
}

}  // namespace

std::uint64_t check_live_outputs(const LiveWorkload& w, const CampaignResult& r,
                                 const Options& opt, Report& rep,
                                 bool thread_check) {
  std::set<std::size_t> bad;  // cells failing any check
  if (thread_check) check_thread_invariance(w, r, opt, rep, bad);

  if (w.name == "lifetime") {
    // Live mean lifetime against the analytic model at the implied alpha,
    // with CampaignTest.S2LifetimeMatchesMarkovAcrossPlans' tolerance.
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const SweepCell m = sweep_cell_of(w.cells[i]);
      const auto ev = analysis::analytic_lifetime(m.shape, m.params, m.obf);
      if (!ev) {
        rep.checks.push_back("SKIP no analytic model for " + m.label);
        continue;
      }
      double predicted = ev->expected_lifetime;
      if (opt.break_check == "analytic") predicted *= 2.0;
      const CellStats& c = r.cells[i];
      const double half = (c.lifetime_ci.hi - c.lifetime_ci.lo) / 2.0;
      const double tol = 0.25 * predicted + half;
      const bool ok = std::fabs(c.mean_lifetime() - predicted) <= tol;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "live EL %.2f vs analytic %.2f (tol %.2f, %llu censored): %s",
                    c.mean_lifetime(), predicted, tol,
                    static_cast<unsigned long long>(c.censored), m.label.c_str());
      rep.check(ok, buf);
      if (!ok) bad.insert(i);
    }
  }
  if (w.name == "service_load") {
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const CellStats& c = r.cells[i];
      const auto& t = c.traffic;
      const auto& p = c.population;
      const bool ok = t.completed + t.timed_out + t.gave_up <= t.offered &&
                      p.completed + p.timed_out + p.gave_up <= p.offered;
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "terminal <= offered: traffic %llu/%llu, population %llu/%llu: %s",
                    static_cast<unsigned long long>(t.completed + t.timed_out + t.gave_up),
                    static_cast<unsigned long long>(t.offered),
                    static_cast<unsigned long long>(p.completed + p.timed_out + p.gave_up),
                    static_cast<unsigned long long>(p.offered),
                    cell_label(w.cells[i]).c_str());
      rep.check(ok, buf);
      if (!ok) bad.insert(i);
    }
  }

  std::uint64_t failing = 0;
  for (std::size_t i : bad) failing += r.cells[i].trials;
  return failing;
}

Report run_live(const Options& opt) {
  Report rep;
  const double setup_s = measure_setup_s(opt);

  const LiveWorkload w = load_live(opt);
  std::vector<LiveWorkload> replicas(w.replicates, w);
  for (std::uint64_t j = 0; j < w.replicates; ++j) {
    replicas[j].config.base_seed = replicate_seed(opt.seed, j);
  }
  std::vector<CampaignResult> firsts;
  const Repeats reps = measure(opt.seconds, [&] {
    Counters total;
    for (const LiveWorkload& rw : replicas) {
      CampaignResult r = scenario::run_campaign(rw.cells, rw.config);
      total += counters_of(r);
      if (firsts.size() < replicas.size()) firsts.push_back(std::move(r));
    }
    return total;
  });
  const CampaignResult& first = firsts.front();

  std::printf("\n%-28s %8s %7s %9s %10s %12s\n", "cell", "trials", "rounds",
              "censored", "mean EL", "events/trial");
  for (const CellStats& c : first.cells) {
    std::printf("%-28s %8llu %7llu %9llu %10.3f %12.1f\n",
                (model::to_string(c.system) + "/" + c.plan_name).c_str(),
                static_cast<unsigned long long>(c.trials),
                static_cast<unsigned long long>(c.rounds),
                static_cast<unsigned long long>(c.censored), c.mean_lifetime(),
                static_cast<double>(c.events_executed) /
                    static_cast<double>(std::max<std::uint64_t>(1, c.trials)));
  }
  std::printf("\n");

  // The 1-thread re-run covers one seeded replicate; the other checks cover
  // every replicate.
  const std::size_t rerun = opt.seed % replicas.size();
  std::uint64_t failing = 0;
  for (std::size_t j = 0; j < replicas.size(); ++j) {
    failing += check_live_outputs(replicas[j], firsts[j], opt, rep, j == rerun);
  }
  finish(rep, reps, setup_s, failing, /*live=*/true);
  return rep;
}

std::uint64_t check_sweep_outputs(const SweepWorkload& w,
                                  const std::vector<SweepOutcome>& r,
                                  const Options& opt, Report& rep) {
  std::printf("\n%-28s %14s %14s %29s\n", "cell", "analytic EL", "MC EL",
              "MC mean +- 5 s.e.");
  std::uint64_t failing = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const SweepOutcome& o = r[i];
    std::printf("%-28s %14.4g %14.4g [%13.6g, %13.6g]\n",
                w.cells[i].label.c_str(), o.has_analytic ? o.analytic : NAN,
                o.mc_mean, o.ci_lo, o.ci_hi);
    if (!o.has_analytic) {
      rep.checks.push_back("SKIP no analytic model for " + w.cells[i].label);
      continue;
    }
    const double analytic =
        opt.break_check == "analytic" ? o.analytic * 1.5 : o.analytic;
    const bool ok = o.censored == 0 && o.ci_lo <= analytic && analytic <= o.ci_hi;
    if (!ok) {
      failing += o.trials;
      rep.check(false, "Monte-Carlo interval misses the analytic EL: " +
                           w.cells[i].label);
    }
  }
  if (failing == 0) {
    rep.check(true, "Monte-Carlo interval covers the analytic EL on every cell");
  }
  return failing;
}

Report run_sweep_workload(const Options& opt) {
  Report rep;
  const double setup_s = measure_setup_s(opt);

  const SweepWorkload w = load_sweep(opt);
  std::vector<SweepOutcome> first;
  const Repeats reps = measure(opt.seconds, [&] {
    std::vector<SweepOutcome> r = run_sweep(w, nproc());
    const Counters c = counters_of(r);
    if (first.empty()) first = std::move(r);
    return c;
  });

  const std::uint64_t failing = check_sweep_outputs(w, first, opt, rep);
  std::printf("\n");
  finish(rep, reps, setup_s, failing, /*live=*/false);
  return rep;
}

}  // namespace perfbench
