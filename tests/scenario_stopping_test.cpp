// Tests for adaptive stopping: the multi-metric rule engine, the
// rare-event/zero-mean budget fix, rule validation, and work-stealing
// rounds (deterministic capacity re-issue from closed to open cells).
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {
namespace {

net::ScenarioPlan fast_plan(std::uint64_t chi, double omega, double kappa,
                            std::uint64_t horizon) {
  net::ScenarioPlan plan;
  plan.keyspace = chi;
  plan.attack.probes_per_step = omega;
  plan.attack.indirect_fraction = kappa;
  plan.horizon_steps = horizon;
  plan.proxy_blacklist = false;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  return plan;
}

/// A single mean-lifetime rule with the given legs.
std::vector<StoppingRule> mean_rule(double target_rel, double abs_floor) {
  return {{StoppingRule::Metric::MeanLifetime, 0.99, target_rel, abs_floor}};
}

// --- the zero/near-zero-mean stall fix ------------------------------------

TEST(StoppingBudgetTest, NearZeroMeanCellClosesOnAbsoluteFloor) {
  // THE budget bug: chi = 24 under 16 probes/step compromises almost every
  // trial at step 0 or 1, so the mean lifetime sits near zero with nonzero
  // variance. The old relative-only criterion (half <= target_rel * mean)
  // was unsatisfiable there — this exact cell used to burn the entire
  // 512-trial cap over 64 rounds. With the default absolute floor of half
  // a step (lifetimes are whole steps; finer resolution is meaningless)
  // it must close after its very first round.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(24, 16.0, 0.0, 40)}};
  CampaignConfig cfg;
  cfg.base_seed = 7;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 32;
  cfg.adaptive.max_trials_per_cell = 512;
  const CampaignResult r = run_campaign(cells, cfg);
  EXPECT_EQ(r.cells[0].trials, 32u);
  EXPECT_EQ(r.cells[0].rounds, 1u);
  // Sanity: this really is the pathological shape — near-zero mean, and
  // (unlike the exact-zero-variance case) a nonzero-width interval.
  EXPECT_LT(r.cells[0].mean_lifetime(), 2.0);
  EXPECT_GT(r.cells[0].lifetime_ci.hi, r.cells[0].lifetime_ci.lo);
}

TEST(StoppingBudgetTest, DisablingTheFloorReproducesTheStall) {
  // The same cell with the floor explicitly zeroed runs to the cap — this
  // is the legacy semantics (and the bug), kept reachable on purpose so
  // the default's effect is observable.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(24, 16.0, 0.0, 40)}};
  CampaignConfig cfg;
  cfg.base_seed = 7;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 32;
  cfg.adaptive.rules = mean_rule(0.10, 0.0);
  cfg.adaptive.max_trials_per_cell = 128;
  const CampaignResult r = run_campaign(cells, cfg);
  EXPECT_EQ(r.cells[0].trials, cfg.adaptive.max_trials_per_cell);
}

// --- stopping_rule_satisfied unit behaviour -------------------------------

TEST(StoppingRuleTest, MeanLifetimeNeedsTwoTrials) {
  CellStats stats;
  StoppingRule rule;  // defaults: MeanLifetime, rel 0.10, floor 0
  rule.abs_floor = 100.0;
  EXPECT_FALSE(stopping_rule_satisfied(stats, rule, 0.95));
  stats.lifetime.add(5.0);
  stats.trials = 1;
  EXPECT_FALSE(stopping_rule_satisfied(stats, rule, 0.95));
  stats.lifetime.add(5.0);
  stats.trials = 2;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
}

TEST(StoppingRuleTest, CompromiseProbabilityClosesAtZeroSuccesses) {
  // The Wilson interval's half-width at p-hat = 0 shrinks like z^2/2n, so
  // a zero-compromise cell closes once n is large enough for the absolute
  // floor — with floor 0.05 that is n ~ 40, not never.
  StoppingRule rule;
  rule.metric = StoppingRule::Metric::CompromiseProbability;
  rule.target_rel = 0.25;
  rule.abs_floor = 0.05;
  CellStats stats;
  stats.trials = 20;
  stats.compromised = 0;
  EXPECT_FALSE(stopping_rule_satisfied(stats, rule, 0.95));
  stats.trials = 200;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
  // Symmetric at p-hat = 1 (all compromised): same closing behaviour.
  stats.compromised = 200;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
}

TEST(StoppingRuleTest, LatencyQuantileVacuousWithoutSamples) {
  // A plan with no traffic plane yields zero latency samples forever; the
  // rule must report satisfied or such plans would stall at the cap.
  StoppingRule rule;
  rule.metric = StoppingRule::Metric::LatencyQuantile;
  rule.abs_floor = 0.1;
  CellStats stats;
  stats.trials = 50;
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
  // With samples, the rule engages: single-bin mass has a zero-width rank
  // band, so it closes; a median spread across decades with few samples
  // has a rank band spanning bins and cannot.
  stats.traffic.latency.add_bin(10, 100);
  EXPECT_TRUE(stopping_rule_satisfied(stats, rule, 0.95));
  StoppingRule median = rule;
  median.quantile = 0.5;
  CellStats spread;
  spread.trials = 4;
  spread.traffic.latency.add_bin(5, 2);
  spread.traffic.latency.add_bin(40, 1);
  spread.traffic.latency.add_bin(60, 1);
  EXPECT_FALSE(stopping_rule_satisfied(spread, median, 0.95));
}

TEST(StoppingRuleTest, InvalidRulesAreRejectedAtCampaignEntry) {
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(64, 8.0, 0.5, 10)}};
  CampaignConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.max_trials_per_cell = 4;

  // CompromiseProbability without an absolute floor is exactly the
  // rare-event stall (no relative leg at p = 0): rejected, not run.
  StoppingRule bad;
  bad.metric = StoppingRule::Metric::CompromiseProbability;
  bad.abs_floor = 0.0;
  cfg.adaptive.rules = {bad};
  EXPECT_THROW(run_campaign(cells, cfg), ContractViolation);

  // A rule with no target at all can never be satisfied.
  StoppingRule never;
  never.target_rel = 0.0;
  never.abs_floor = 0.0;
  cfg.adaptive.rules = {never};
  EXPECT_THROW(run_campaign(cells, cfg), ContractViolation);

  // Quantiles live strictly inside (0, 1).
  StoppingRule q;
  q.metric = StoppingRule::Metric::LatencyQuantile;
  q.quantile = 1.0;
  q.abs_floor = 0.1;
  cfg.adaptive.rules = {q};
  EXPECT_THROW(run_campaign(cells, cfg), ContractViolation);
}

TEST(MultiMetricTest, EveryRuleMustHoldBeforeTheCellCloses) {
  // A calm (attack-off) cell satisfies the mean-lifetime rule after one
  // round (zero variance). Adding a compromise-probability rule keeps it
  // open until the Wilson interval narrows under the floor — strictly more
  // trials than the mean-only run, and at close both rules hold.
  net::ScenarioPlan calm = fast_plan(64, 8.0, 0.5, 20);
  calm.attack.enabled = false;
  std::vector<CampaignCell> cells = {{model::SystemKind::S1, calm}};

  CampaignConfig cfg;
  cfg.base_seed = 11;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 8;
  cfg.adaptive.max_trials_per_cell = 128;
  StoppingRule mean;
  mean.target_rel = 0.10;
  mean.abs_floor = 0.5;
  cfg.adaptive.rules = {mean};
  const CampaignResult mean_only = run_campaign(cells, cfg);
  EXPECT_EQ(mean_only.cells[0].trials, 8u);

  StoppingRule comp;
  comp.metric = StoppingRule::Metric::CompromiseProbability;
  comp.target_rel = 0.25;
  comp.abs_floor = 0.05;
  cfg.adaptive.rules = {mean, comp};
  const CampaignResult both = run_campaign(cells, cfg);
  EXPECT_GT(both.cells[0].trials, mean_only.cells[0].trials);
  EXPECT_LT(both.cells[0].trials, cfg.adaptive.max_trials_per_cell);
  for (const StoppingRule& rule : cfg.adaptive.rules) {
    EXPECT_TRUE(stopping_rule_satisfied(both.cells[0], rule, cfg.ci_level));
  }
}

TEST(MultiMetricTest, EmptyRulesAreRejected) {
  // An empty rule set would be vacuously satisfied and close every cell
  // after its first round, so adaptive mode refuses it. Fixed mode never
  // consults the rules.
  std::vector<CampaignCell> cells = {
      {model::SystemKind::S1, fast_plan(128, 8.0, 0.5, 60)}};
  CampaignConfig cfg;
  cfg.base_seed = 31337;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 4;
  cfg.adaptive.max_trials_per_cell = 32;
  ASSERT_FALSE(cfg.adaptive.rules.empty());
  cfg.adaptive.rules.clear();
  EXPECT_THROW(run_campaign(cells, cfg), ContractViolation);

  cfg.adaptive.enabled = false;
  cfg.trials_per_cell = 2;
  EXPECT_EQ(run_campaign(cells, cfg).cells[0].trials, 2u);
}

// --- work-stealing rounds -------------------------------------------------

CampaignConfig steal_config(bool stealing) {
  CampaignConfig cfg;
  cfg.base_seed = 90210;
  cfg.adaptive.enabled = true;
  cfg.adaptive.round_trials = 4;
  cfg.adaptive.work_stealing = stealing;
  return cfg;
}

TEST(WorkStealingTest, ReissuesClosedCellCapacityAndPreservesAggregates) {
  // One calm cell (closes after round 1) and one noisy cell driven to the
  // cap by an unreachable target. With stealing, the calm cell's share
  // flows to the noisy cell from round 2 on, so the noisy cell reaches the
  // cap in FEWER rounds — while executing the exact same contiguous trial
  // set, so every aggregate is bit-identical to the no-stealing run.
  net::ScenarioPlan calm = fast_plan(64, 8.0, 0.5, 20);
  calm.name = "calm";
  calm.attack.enabled = false;
  net::ScenarioPlan noisy = fast_plan(512, 8.0, 0.5, 80);
  noisy.name = "noisy";
  std::vector<CampaignCell> cells = {{model::SystemKind::S1, calm},
                                     {model::SystemKind::S1, noisy}};

  CampaignConfig base = steal_config(false);
  // Unreachable relative target: noisy runs to the cap, but calm (zero
  // variance) closes on the floor.
  base.adaptive.rules = mean_rule(1e-9, 0.5);
  base.adaptive.max_trials_per_cell = 24;
  const CampaignResult legacy = run_campaign(cells, base);

  CampaignConfig steal = base;
  steal.adaptive.work_stealing = true;
  const CampaignResult stolen = run_campaign(cells, steal);

  // Calm cell: closed in round 1 under both schedules, identical stats.
  EXPECT_EQ(legacy.cells[0].rounds, 1u);
  EXPECT_EQ(stolen.cells[0].rounds, 1u);
  EXPECT_EQ(legacy.cells[0].trials, stolen.cells[0].trials);
  EXPECT_EQ(legacy.cells[0].lifetime.mean(), stolen.cells[0].lifetime.mean());

  // Noisy cell: same cap, same trials, same aggregates — fewer rounds.
  EXPECT_EQ(legacy.cells[1].trials, base.adaptive.max_trials_per_cell);
  EXPECT_EQ(stolen.cells[1].trials, base.adaptive.max_trials_per_cell);
  EXPECT_LT(stolen.cells[1].rounds, legacy.cells[1].rounds);
  EXPECT_EQ(legacy.cells[1].lifetime.mean(), stolen.cells[1].lifetime.mean());
  EXPECT_EQ(legacy.cells[1].lifetime.variance(),
            stolen.cells[1].lifetime.variance());
  EXPECT_EQ(legacy.cells[1].events_executed, stolen.cells[1].events_executed);
  EXPECT_EQ(legacy.cells[1].attacker.direct_probes,
            stolen.cells[1].attacker.direct_probes);
  EXPECT_EQ(legacy.total_trials, stolen.total_trials);
  EXPECT_EQ(legacy.total_events, stolen.total_events);
}

TEST(WorkStealingTest, EqualsLegacyScheduleWhileEveryCellIsOpen) {
  // While no cell has closed, the even split of the full-grid capacity IS
  // round_trials per cell — so a grid where all cells run to the cap
  // together must be bit-identical under both schedules, rounds included.
  std::vector<net::ScenarioPlan> plans = {fast_plan(256, 8.0, 0.5, 60),
                                          fast_plan(512, 8.0, 0.25, 60)};
  plans[1].name = "slower";
  std::vector<CampaignCell> cells =
      cross({model::SystemKind::S1, model::SystemKind::S2}, plans);

  CampaignConfig base = steal_config(false);
  base.adaptive.rules = mean_rule(1e-9, 1e-9);
  base.adaptive.max_trials_per_cell = 12;
  const CampaignResult legacy = run_campaign(cells, base);
  CampaignConfig steal = base;
  steal.adaptive.work_stealing = true;
  const CampaignResult stolen = run_campaign(cells, steal);

  ASSERT_EQ(legacy.cells.size(), stolen.cells.size());
  EXPECT_EQ(legacy.total_trials, stolen.total_trials);
  EXPECT_EQ(legacy.total_events, stolen.total_events);
  for (std::size_t i = 0; i < legacy.cells.size(); ++i) {
    EXPECT_EQ(legacy.cells[i].trials, stolen.cells[i].trials);
    EXPECT_EQ(legacy.cells[i].rounds, stolen.cells[i].rounds);
    EXPECT_EQ(legacy.cells[i].lifetime.mean(),
              stolen.cells[i].lifetime.mean());
    EXPECT_EQ(legacy.cells[i].lifetime_ci.hi, stolen.cells[i].lifetime_ci.hi);
  }
}

TEST(WorkStealingTest, BitIdenticalForAnyThreadCountAndIsolation) {
  // The planner runs serially between rounds, so the stolen allocation —
  // and with it every aggregate and per-cell round count — must not depend
  // on thread count or on pooled-vs-fresh stacks.
  net::ScenarioPlan calm = fast_plan(64, 8.0, 0.5, 20);
  calm.name = "calm";
  calm.attack.enabled = false;
  net::ScenarioPlan noisy = fast_plan(256, 8.0, 0.5, 60);
  noisy.name = "noisy";
  std::vector<CampaignCell> cells = {{model::SystemKind::S1, calm},
                                     {model::SystemKind::S2, noisy},
                                     {model::SystemKind::S1, noisy}};

  CampaignConfig cfg = steal_config(true);
  cfg.adaptive.rules = mean_rule(0.15, 0.5);
  cfg.adaptive.max_trials_per_cell = 24;
  cfg.threads = 1;
  const CampaignResult serial = run_campaign(cells, cfg);
  for (unsigned threads : {2u, 8u}) {
    for (bool pooled : {true, false}) {
      cfg.threads = threads;
      cfg.reuse_trial_stacks = pooled;
      const CampaignResult other = run_campaign(cells, cfg);
      ASSERT_EQ(other.cells.size(), serial.cells.size());
      EXPECT_EQ(other.total_trials, serial.total_trials);
      EXPECT_EQ(other.total_events, serial.total_events);
      for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(other.cells[i].trials, serial.cells[i].trials)
            << "cell " << i << " threads " << threads << " pooled " << pooled;
        EXPECT_EQ(other.cells[i].rounds, serial.cells[i].rounds);
        EXPECT_EQ(other.cells[i].lifetime.mean(),
                  serial.cells[i].lifetime.mean());
        EXPECT_EQ(other.cells[i].lifetime.variance(),
                  serial.cells[i].lifetime.variance());
        EXPECT_EQ(other.cells[i].lifetime_ci.lo,
                  serial.cells[i].lifetime_ci.lo);
      }
    }
  }
  cfg.reuse_trial_stacks = true;
}

}  // namespace
}  // namespace fortress::scenario
