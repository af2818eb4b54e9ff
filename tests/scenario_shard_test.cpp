// Tests for the campaign scale-out plane: shard partitioning's bit-identity
// to the single-process run, the exact sidecar/spec codecs, and the merge's
// integrity checks (exactly-once coverage, digest agreement).
#include "scenario/shard.hpp"

#include <gtest/gtest.h>

#include "common/json.hpp"

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

CampaignSpec smoke_spec() {
  CampaignSpec spec;
  spec.name = "unit";
  spec.description = "shard unit fixture";
  spec.config.base_seed = 404;
  spec.config.threads = 2;
  spec.config.adaptive.enabled = true;
  spec.config.adaptive.round_trials = 4;
  spec.config.adaptive.rules = {
      {StoppingRule::Metric::MeanLifetime, 0.99, 0.15, 0.5}};
  spec.config.adaptive.max_trials_per_cell = 16;
  spec.systems = {model::SystemKind::S1, model::SystemKind::S2};
  spec.plans = {fast_plan(64, 8.0, 0.5, 40), fast_plan(128, 8.0, 0.25, 40)};
  spec.plans[1].name = "quarter-kappa";
  return spec;
}

/// The ParseError message `decode` throws ("" when it does not throw).
template <class Decode>
std::string parse_error(Decode&& decode) {
  try {
    decode();
  } catch (const json::ParseError& e) {
    return e.what();
  }
  return "";
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

void expect_cells_bit_identical(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.plan_name, b.plan_name);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.compromised, b.compromised);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_EQ(a.lifetime.count(), b.lifetime.count());
  EXPECT_EQ(a.lifetime.raw_mean(), b.lifetime.raw_mean());
  EXPECT_EQ(a.lifetime.raw_m2(), b.lifetime.raw_m2());
  EXPECT_EQ(a.lifetime.raw_min(), b.lifetime.raw_min());
  EXPECT_EQ(a.lifetime.raw_max(), b.lifetime.raw_max());
  EXPECT_EQ(a.lifetime_ci.lo, b.lifetime_ci.lo);
  EXPECT_EQ(a.lifetime_ci.hi, b.lifetime_ci.hi);
  EXPECT_EQ(a.lifetime_ci.level, b.lifetime_ci.level);
  EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
  EXPECT_EQ(a.attacker.indirect_probes, b.attacker.indirect_probes);
  EXPECT_EQ(a.attacker.crashes_caused, b.attacker.crashes_caused);
  EXPECT_EQ(a.attacker.compromises, b.attacker.compromises);
  EXPECT_EQ(a.attacker.keys_learned, b.attacker.keys_learned);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.blacklisted_sources, b.blacklisted_sources);
  EXPECT_EQ(a.traffic.offered, b.traffic.offered);
  EXPECT_EQ(a.traffic.completed, b.traffic.completed);
  EXPECT_EQ(a.traffic.max_queue_depth, b.traffic.max_queue_depth);
  EXPECT_EQ(a.traffic.goodput, b.traffic.goodput);
  EXPECT_EQ(a.traffic.latency.fingerprint(), b.traffic.latency.fingerprint());
  EXPECT_EQ(a.population.offered, b.population.offered);
  EXPECT_EQ(a.population.skipped_busy, b.population.skipped_busy);
  EXPECT_EQ(a.population.latency.fingerprint(),
            b.population.latency.fingerprint());
}

TEST(ShardTest, TwoShardMergeBitIdenticalToFullRun) {
  // The scale-out contract end to end, in process: partition the grid two
  // ways, run each shard independently, merge — every field of every cell
  // must be BIT-identical to the unpartitioned run, and the serialized
  // reports byte-identical.
  const CampaignSpec spec = smoke_spec();
  const std::vector<CampaignCell> cells = spec.cells();
  const CampaignResult full = run_campaign(cells, spec.config);

  const ShardResult s0 = run_campaign_shard(cells, spec.config, 0, 2);
  const ShardResult s1 = run_campaign_shard(cells, spec.config, 1, 2);
  EXPECT_EQ(s0.cells.size() + s1.cells.size(), cells.size());
  const CampaignResult merged = merge_shards({s0, s1});

  ASSERT_EQ(merged.cells.size(), full.cells.size());
  EXPECT_EQ(merged.total_trials, full.total_trials);
  EXPECT_EQ(merged.total_events, full.total_events);
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    expect_cells_bit_identical(merged.cells[i], full.cells[i]);
  }
  EXPECT_EQ(campaign_result_to_json(merged), campaign_result_to_json(full));

  // More shards than cells: the surplus shard is empty, the merge intact.
  std::vector<ShardResult> many;
  for (std::uint32_t s = 0; s < 5; ++s) {
    many.push_back(run_campaign_shard(cells, spec.config, s, 5));
  }
  const CampaignResult wide = merge_shards(many);
  EXPECT_EQ(campaign_result_to_json(wide), campaign_result_to_json(full));
}

TEST(ShardTest, SidecarJsonRoundTripsBitExactly) {
  const CampaignSpec spec = smoke_spec();
  const std::uint64_t digest = campaign_spec_digest(spec);
  const ShardResult r =
      run_campaign_shard(spec.cells(), spec.config, 0, 2, digest);
  const std::string text = shard_result_to_json(r);
  const ShardResult back = shard_result_from_json(text);
  EXPECT_EQ(back.shard, r.shard);
  EXPECT_EQ(back.n_shards, r.n_shards);
  EXPECT_EQ(back.n_cells, r.n_cells);
  EXPECT_EQ(back.spec_digest, digest);
  ASSERT_EQ(back.cells.size(), r.cells.size());
  EXPECT_EQ(back.cell_indices, r.cell_indices);
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    expect_cells_bit_identical(back.cells[i], r.cells[i]);
  }
  // Re-encoding the decoded sidecar reproduces the bytes: the codec is
  // canonical, so sidecars are diffable fixtures.
  EXPECT_EQ(shard_result_to_json(back), text);
}

TEST(ShardTest, MergeRejectsBrokenPartitions) {
  const CampaignSpec spec = smoke_spec();
  const std::vector<CampaignCell> cells = spec.cells();
  ShardResult s0 = run_campaign_shard(cells, spec.config, 0, 2, 7);
  ShardResult s1 = run_campaign_shard(cells, spec.config, 1, 2, 7);

  EXPECT_THROW(merge_shards({}), json::ParseError);
  // Missing a shard: cells uncovered.
  EXPECT_THROW(merge_shards({s0}), json::ParseError);
  // The same shard twice: duplicate coverage.
  EXPECT_THROW(merge_shards({s0, s0}), json::ParseError);
  // Sidecars from different specs must not merge.
  ShardResult other = s1;
  other.spec_digest = 8;
  EXPECT_THROW(merge_shards({s0, other}), json::ParseError);
  // Disagreeing grid sizes must not merge.
  ShardResult wrong = s1;
  wrong.n_cells += 1;
  EXPECT_THROW(merge_shards({s0, wrong}), json::ParseError);
  // An unpinned digest (0) is compatible with a pinned one.
  ShardResult unpinned = s1;
  unpinned.spec_digest = 0;
  EXPECT_EQ(merge_shards({s0, unpinned}).cells.size(), cells.size());
}

TEST(ShardSpecTest, SpecRoundTripsThroughJson) {
  CampaignSpec spec = smoke_spec();
  StoppingRule comp;
  comp.metric = StoppingRule::Metric::CompromiseProbability;
  comp.target_rel = 0.25;
  comp.abs_floor = 0.05;
  StoppingRule lat;
  lat.metric = StoppingRule::Metric::LatencyQuantile;
  lat.quantile = 0.999;
  lat.abs_floor = 0.25;
  spec.config.adaptive.rules = {comp, lat};
  spec.config.adaptive.work_stealing = true;
  spec.config.scheduler = sim::SchedulerKind::Heap;
  spec.config.reuse_trial_stacks = false;

  const std::string text = campaign_spec_to_json(spec);
  const CampaignSpec back = campaign_spec_from_json(text);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.config.base_seed, spec.config.base_seed);
  EXPECT_EQ(back.config.threads, spec.config.threads);
  EXPECT_EQ(back.config.ci_level, spec.config.ci_level);
  EXPECT_EQ(back.config.scheduler, spec.config.scheduler);
  EXPECT_EQ(back.config.reuse_trial_stacks, spec.config.reuse_trial_stacks);
  EXPECT_EQ(back.config.adaptive.enabled, spec.config.adaptive.enabled);
  EXPECT_EQ(back.config.adaptive.round_trials,
            spec.config.adaptive.round_trials);
  EXPECT_EQ(back.config.adaptive.work_stealing, true);
  ASSERT_EQ(back.config.adaptive.rules.size(), 2u);
  EXPECT_EQ(back.config.adaptive.rules[0].metric,
            StoppingRule::Metric::CompromiseProbability);
  EXPECT_EQ(back.config.adaptive.rules[0].abs_floor, 0.05);
  EXPECT_EQ(back.config.adaptive.rules[1].metric,
            StoppingRule::Metric::LatencyQuantile);
  EXPECT_EQ(back.config.adaptive.rules[1].quantile, 0.999);
  ASSERT_EQ(back.systems.size(), 2u);
  ASSERT_EQ(back.plans.size(), 2u);
  EXPECT_EQ(back.plans[1].name, "quarter-kappa");
  EXPECT_EQ(back.plans[1].keyspace, 128u);
  // Canonical: re-encode is byte-identical, and the digest is stable.
  EXPECT_EQ(campaign_spec_to_json(back), text);
  EXPECT_EQ(campaign_spec_digest(back), campaign_spec_digest(spec));
}

TEST(ShardSpecTest, StrictDecodeRejectsMalformedSpecs) {
  const std::string good = campaign_spec_to_json(smoke_spec());

  // Unknown top-level key.
  {
    std::string bad = good;
    bad.replace(bad.find("\"name\""), 6, "\"nmae\"");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Wrong schema tag.
  {
    std::string bad = good;
    bad.replace(bad.find("fortress-campaign-v1"), 20, "fortress-campaign-v9");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Unknown stopping-rule metric.
  {
    CampaignSpec spec = smoke_spec();
    StoppingRule r;
    r.abs_floor = 0.5;
    spec.config.adaptive.rules = {r};
    std::string bad = campaign_spec_to_json(spec);
    bad.replace(bad.find("mean_lifetime"), 13, "median_uptime");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Truncated document.
  EXPECT_THROW(campaign_spec_from_json(good.substr(0, good.size() / 2)),
               json::ParseError);
  // A thread count past 32 bits is rejected, not wrapped (2^32 + 2 used to
  // decode as 2 threads), and the error names the field.
  {
    const std::string bad =
        replaced(good, "\"threads\": 2,", "\"threads\": 4294967298,");
    EXPECT_NE(parse_error([&] { campaign_spec_from_json(bad); })
                  .find("campaign spec.threads"),
              std::string::npos);
  }
}

TEST(ShardSidecarTest, StrictDecodeRejectsTamperedSidecars) {
  const CampaignSpec spec = smoke_spec();
  const std::string text =
      shard_result_to_json(run_campaign_shard(spec.cells(), spec.config, 0,
                                              2, 7));
  // Unknown cell key.
  {
    std::string bad = text;
    bad.replace(bad.find("\"rounds\""), 8, "\"around\"");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
  // A truncated bit pattern is not a pinned double.
  {
    std::string bad = text;
    const std::size_t at = bad.find("0x");
    bad.replace(at, 4, "0x");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
  // Histogram must carry exactly kBins counts.
  {
    std::string bad = text;
    const std::size_t at = bad.find("\"latency_bins\": [");
    ASSERT_NE(at, std::string::npos);
    bad.insert(bad.find('[', at) + 1, "\n          0,");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
  // Shard ids past 32 bits are rejected, not wrapped (2^32 + k used to
  // decode as k, a valid id), and the error names the field.
  {
    const std::string bad =
        replaced(text, "\"shard\": 0,", "\"shard\": 4294967296,");
    EXPECT_NE(parse_error([&] { shard_result_from_json(bad); })
                  .find("shard result.shard"),
              std::string::npos);
  }
  {
    const std::string bad =
        replaced(text, "\"n_shards\": 2,", "\"n_shards\": 4294967298,");
    EXPECT_NE(parse_error([&] { shard_result_from_json(bad); })
                  .find("shard result.n_shards"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace fortress::scenario
