// Format pin for the campaign aggregates: a hand-built CampaignResult whose
// every field is non-zero and distinct, pushed through the result report,
// the shard sidecar and campaign_fingerprint, and compared against literals.
// Reports, sidecars and fingerprints are compared across processes and
// commits (the shard lane, corpus goldens, differential oracles), so a
// dropped, renamed or reordered aggregate field must fail here first.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/differential.hpp"
#include "scenario/shard.hpp"

namespace fortress::scenario {
namespace {

/// Every counter gets its own value (k spaces the two cells apart); the
/// doubles carry full-mantissa bit patterns, and both histograms occupy
/// several bins, including the underflow and overflow bins.
CellStats pinned_cell(int k) {
  std::uint64_t n = 1000 * static_cast<std::uint64_t>(k + 1);
  auto next = [&n] { return n += 7; };
  const double kd = static_cast<double>(k + 1);

  CellStats c;
  c.system = k == 0 ? model::SystemKind::S1 : model::SystemKind::S2;
  c.plan_name = k == 0 ? "pin-alpha" : "pin-beta";
  c.trials = next();
  c.rounds = next();
  c.compromised = next();
  c.censored = next();
  c.lifetime = RunningStats::from_raw(next(), 1000.0 / 3.0 * kd,
                                      std::sqrt(2.0) * 12345.0 * kd,
                                      0.1 * kd, 7777.0 / 9.0 * kd);
  c.lifetime_ci.lo = 1000.0 / 3.0 * kd - 1.0 / 7.0;
  c.lifetime_ci.hi = 1000.0 / 3.0 * kd + 1.0 / 7.0;
  c.lifetime_ci.level = 0.95;
  c.attacker.direct_probes = next();
  c.attacker.indirect_probes = next();
  c.attacker.crashes_caused = next();
  c.attacker.compromises = next();
  c.attacker.keys_learned = next();
  c.events_executed = next();
  c.blacklisted_sources = next();

  TrafficStats& t = c.traffic;
  t.offered = next();
  t.completed = next();
  t.timed_out = next();
  t.gave_up = next();
  t.retries = next();
  t.rejected_responses = next();
  t.enqueued = next();
  t.served = next();
  t.shed = next();
  t.backpressured = next();
  t.degraded = next();
  t.dropped_on_reboot = next();
  t.max_queue_depth = next();
  t.goodput = std::numbers::pi * kd + 0.1;
  t.latency.add_bin(0, next());
  t.latency.add_bin(5 + k, next());
  t.latency.add_bin(31, next());
  t.latency.add_bin(LatencyHistogram::kBins - 1, next());

  core::PopulationStats& p = c.population;
  p.offered = next();
  p.completed = next();
  p.timed_out = next();
  p.gave_up = next();
  p.retries = next();
  p.rejected_responses = next();
  p.skipped_busy = next();
  p.latency.add_bin(2, next());
  p.latency.add_bin(17 + k, next());
  p.latency.add_bin(40, next());
  return c;
}

CampaignResult pinned_result() {
  CampaignResult r;
  for (int k = 0; k < 2; ++k) {
    r.cells.push_back(pinned_cell(k));
    r.total_trials += r.cells.back().trials;
    r.total_events += r.cells.back().events_executed;
  }
  return r;
}

ShardResult pinned_sidecar() {
  ShardResult s;
  s.shard = 1;
  s.n_shards = 3;
  s.n_cells = 7;
  s.spec_digest = 0x0123456789abcdefull;
  s.cell_indices = {1, 4};
  s.cells = pinned_result().cells;
  return s;
}

/// Dotted member paths of a JSON object, depth first in document order.
void key_paths(const json::Value& v, const std::string& prefix,
               std::vector<std::string>& out) {
  for (const auto& [k, m] : v.members(prefix)) {
    const std::string path = prefix.empty() ? k : prefix + "." + k;
    out.push_back(path);
    if (m.is_object()) key_paths(m, path, out);
  }
}

TEST(AggregateFormatPinTest, FingerprintMatchesPinnedValue) {
  EXPECT_EQ(campaign_fingerprint(pinned_result()), 0x92a0ef2c3bbb9971ull);
}

TEST(AggregateFormatPinTest, CellLayoutMatchesPinnedKeyOrder) {
  const json::Value root =
      json::parse(campaign_result_to_json(pinned_result()));
  const auto& cells = root.required("cells", "report").as_array("cells");
  ASSERT_EQ(cells.size(), 2u);
  std::vector<std::string> paths;
  key_paths(cells[0], "", paths);
  const std::vector<std::string> want = {
      "index", "system", "plan_name", "trials", "rounds", "compromised",
      "censored", "lifetime", "lifetime.count", "lifetime.mean_bits",
      "lifetime.m2_bits", "lifetime.min_bits", "lifetime.max_bits",
      "lifetime_ci", "lifetime_ci.lo_bits", "lifetime_ci.hi_bits",
      "lifetime_ci.level_bits", "attacker", "attacker.direct_probes",
      "attacker.indirect_probes", "attacker.crashes_caused",
      "attacker.compromises", "attacker.keys_learned", "events_executed",
      "blacklisted_sources", "traffic", "traffic.offered",
      "traffic.completed", "traffic.timed_out", "traffic.gave_up",
      "traffic.retries", "traffic.rejected_responses", "traffic.enqueued",
      "traffic.served", "traffic.shed", "traffic.backpressured",
      "traffic.degraded", "traffic.dropped_on_reboot",
      "traffic.max_queue_depth", "traffic.goodput_bits",
      "traffic.latency_bins", "population", "population.offered",
      "population.completed", "population.timed_out", "population.gave_up",
      "population.retries", "population.rejected_responses",
      "population.skipped_busy", "population.latency_bins"};
  EXPECT_EQ(paths, want);
}

TEST(AggregateFormatPinTest, ReportAndSidecarMatchPinnedBytes) {
  const std::string report = campaign_result_to_json(pinned_result());
  const std::string sidecar = shard_result_to_json(pinned_sidecar());
  EXPECT_EQ(report.size(), 6552u);
  EXPECT_EQ(json::fnv1a64(report), 0x53d60f28c36aad96ull);
  EXPECT_EQ(sidecar.size(), 6589u);
  EXPECT_EQ(json::fnv1a64(sidecar), 0x847ce4e25eeb9fb3ull);
}

TEST(AggregateFormatPinTest, SidecarRoundTripsToIdenticalEncoding) {
  const std::string text = shard_result_to_json(pinned_sidecar());
  const ShardResult back = shard_result_from_json(text);
  EXPECT_EQ(shard_result_to_json(back), text);
  CampaignResult again;
  again.cells = back.cells;
  again.total_trials = pinned_result().total_trials;
  again.total_events = pinned_result().total_events;
  EXPECT_EQ(campaign_fingerprint(again),
            campaign_fingerprint(pinned_result()));
}

}  // namespace
}  // namespace fortress::scenario
