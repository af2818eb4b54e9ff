#include "scenario/shard.hpp"

#include <bit>
#include <type_traits>

#include "common/check.hpp"
#include "common/json.hpp"
#include "scenario/corpus.hpp"
#include "scenario/plan_codec.hpp"

namespace fortress::scenario {

namespace {

using json::hex64;
using json::ObjectReader;
using json::parse_hex64;
using json::ParseError;
using json::reemit;
using json::Value;
using json::Writer;

constexpr const char* kSpecSchema = "fortress-campaign-v1";
constexpr const char* kShardSchema = "fortress-campaign-shard-v1";
constexpr const char* kResultSchema = "fortress-campaign-result-v1";

sim::SchedulerKind scheduler_from_string(const std::string& s,
                                         const std::string& ctx) {
  if (s == "wheel") return sim::SchedulerKind::Wheel;
  if (s == "heap") return sim::SchedulerKind::Heap;
  throw ParseError(ctx + ": unknown scheduler \"" + s +
                   "\" (want wheel|heap)");
}

const char* metric_to_string(StoppingRule::Metric m) {
  switch (m) {
    case StoppingRule::Metric::MeanLifetime:
      return "mean_lifetime";
    case StoppingRule::Metric::CompromiseProbability:
      return "compromise_probability";
    case StoppingRule::Metric::LatencyQuantile:
      return "latency_quantile";
  }
  return "mean_lifetime";  // unreachable
}

StoppingRule::Metric metric_from_string(const std::string& s,
                                        const std::string& ctx) {
  if (s == "mean_lifetime") return StoppingRule::Metric::MeanLifetime;
  if (s == "compromise_probability") {
    return StoppingRule::Metric::CompromiseProbability;
  }
  if (s == "latency_quantile") return StoppingRule::Metric::LatencyQuantile;
  throw ParseError(
      ctx + ": unknown metric \"" + s +
      "\" (want mean_lifetime|compromise_probability|latency_quantile)");
}

// --- CellStats codec (shared by the sidecar and the result report) --------
//
// One value writer and one value reader, dispatching on the member's type;
// aggregates recurse over their field lists (common/fields.hpp), so the
// cell body has no per-field code. RunningStats and ConfidenceInterval keep
// explicit encodings: they cross as raw accumulator state by bit pattern.

void write_histogram(Writer& w, const LatencyHistogram& h) {
  w.begin_array();
  for (int b = 0; b < LatencyHistogram::kBins; ++b) w.value(h.bin(b));
  w.end_array();
}

LatencyHistogram read_histogram(const Value& v, const std::string& ctx) {
  const auto& bins = v.as_array(ctx);
  if (bins.size() != LatencyHistogram::kBins) {
    throw ParseError(ctx + ": expected " +
                     std::to_string(LatencyHistogram::kBins) + " bins, got " +
                     std::to_string(bins.size()));
  }
  LatencyHistogram h;
  for (int b = 0; b < LatencyHistogram::kBins; ++b) {
    const std::uint64_t n = bins[static_cast<std::size_t>(b)].as_u64(
        ctx + "[" + std::to_string(b) + "]");
    if (n > 0) h.add_bin(b, n);
  }
  return h;
}

// Doubles cross the sidecar as bit patterns, never as decimal text: the
// merge's bit-identity contract has no room for a parse round-trip to be
// "close". (Shortest round-trip formatting would in fact round-trip too,
// but bits make the intent unmissable and survive any future formatter.)
void write_bits(Writer& w, const char* key, double d) {
  w.key(key);
  w.value(std::string_view(hex64(std::bit_cast<std::uint64_t>(d))));
}

double read_bits(ObjectReader& r, const char* key) {
  return std::bit_cast<double>(parse_hex64(r.str(key), r.member_ctx(key)));
}

template <class T>
void write_value(Writer& w, const char* key, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    write_bits(w, key, v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.key(key);
    w.value(v);
  } else if constexpr (std::is_same_v<T, LatencyHistogram>) {
    w.key(key);
    write_histogram(w, v);
  } else {
    w.key(key);
    w.begin_object();
    if constexpr (std::is_same_v<T, RunningStats>) {
      w.key("count");
      w.value(v.count());
      write_bits(w, "mean_bits", v.raw_mean());
      write_bits(w, "m2_bits", v.raw_m2());
      write_bits(w, "min_bits", v.raw_min());
      write_bits(w, "max_bits", v.raw_max());
    } else if constexpr (std::is_same_v<T, ConfidenceInterval>) {
      write_bits(w, "lo_bits", v.lo);
      write_bits(w, "hi_bits", v.hi);
      write_bits(w, "level_bits", v.level);
    } else {
      fields::for_each<T>(
          [&](const auto& f) { write_value(w, f.name, v.*f.member); });
    }
    w.end_object();
  }
}

template <class T>
void read_value(ObjectReader& r, const char* key, T& v) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64(key);
  } else if constexpr (std::is_same_v<T, double>) {
    v = read_bits(r, key);
  } else if constexpr (std::is_same_v<T, LatencyHistogram>) {
    v = read_histogram(r.required(key), r.member_ctx(key));
  } else {
    ObjectReader o(r.required(key), r.member_ctx(key));
    if constexpr (std::is_same_v<T, RunningStats>) {
      const std::uint64_t count = o.u64("count");
      const double mean = read_bits(o, "mean_bits");
      const double m2 = read_bits(o, "m2_bits");
      const double min = read_bits(o, "min_bits");
      const double max = read_bits(o, "max_bits");
      v = RunningStats::from_raw(count, mean, m2, min, max);
    } else if constexpr (std::is_same_v<T, ConfidenceInterval>) {
      v.lo = read_bits(o, "lo_bits");
      v.hi = read_bits(o, "hi_bits");
      v.level = read_bits(o, "level_bits");
    } else {
      fields::for_each<T>(
          [&](const auto& f) { read_value(o, f.name, v.*f.member); });
    }
    o.done();
  }
}

void write_cell(Writer& w, std::uint64_t index, const CellStats& c) {
  w.begin_object();
  w.key("index");
  w.value(index);
  w.key("system");
  w.value(std::string_view(model::to_string(c.system)));
  w.key("plan_name");
  w.value(std::string_view(c.plan_name));
  fields::for_each<CellStats>(
      [&](const auto& f) { write_value(w, f.name, c.*f.member); });
  w.end_object();
}

std::pair<std::uint64_t, CellStats> read_cell(const Value& row,
                                              const std::string& ctx) {
  ObjectReader r(row, ctx);
  CellStats c;
  const std::uint64_t index = r.u64("index");
  c.system = system_kind_from_string(r.str("system"), r.member_ctx("system"));
  c.plan_name = r.str("plan_name");
  fields::for_each<CellStats>(
      [&](const auto& f) { read_value(r, f.name, c.*f.member); });
  r.done();
  return {index, std::move(c)};
}

}  // namespace

// --- CampaignSpec codec ---------------------------------------------------

std::string campaign_spec_to_json(const CampaignSpec& spec) {
  Writer w(/*compact=*/false);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view(kSpecSchema));
  w.key("name");
  w.value(std::string_view(spec.name));
  w.key("description");
  w.value(std::string_view(spec.description));
  w.key("base_seed");
  w.value(spec.config.base_seed);
  w.key("threads");
  w.value(static_cast<std::uint64_t>(spec.config.threads));
  w.key("ci_level");
  w.value(spec.config.ci_level);
  w.key("scheduler");
  w.value(std::string_view(sim::to_string(spec.config.scheduler)));
  w.key("reuse_trial_stacks");
  w.value(spec.config.reuse_trial_stacks);
  w.key("trials_per_cell");
  w.value(spec.config.trials_per_cell);
  w.key("adaptive");
  w.begin_object();
  w.key("enabled");
  w.value(spec.config.adaptive.enabled);
  w.key("round_trials");
  w.value(spec.config.adaptive.round_trials);
  w.key("max_trials_per_cell");
  w.value(spec.config.adaptive.max_trials_per_cell);
  w.key("work_stealing");
  w.value(spec.config.adaptive.work_stealing);
  w.key("rules");
  w.begin_array();
  for (const StoppingRule& r : spec.config.adaptive.rules) {
    w.begin_object();
    w.key("metric");
    w.value(std::string_view(metric_to_string(r.metric)));
    w.key("quantile");
    w.value(r.quantile);
    w.key("target_rel");
    w.value(r.target_rel);
    w.key("abs_floor");
    w.value(r.abs_floor);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("systems");
  w.begin_array();
  for (model::SystemKind s : spec.systems) {
    w.value(std::string_view(model::to_string(s)));
  }
  w.end_array();
  w.key("plans");
  w.begin_array();
  // Splice each plan's canonical pretty encoding (the plan_codec layout is
  // the contract), re-indented two levels, via the corpus placeholder
  // idiom: Writer has no raw-splice API on purpose.
  for (std::size_t i = 0; i < spec.plans.size(); ++i) {
    w.value(std::string_view("\x01plan" + std::to_string(i) + "\x01"));
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  for (std::size_t i = 0; i < spec.plans.size(); ++i) {
    const std::string placeholder =
        "\"\\u0001plan" + std::to_string(i) + "\\u0001\"";
    const std::string plan_json = plan_to_json(spec.plans[i]);
    std::string shifted;
    shifted.reserve(plan_json.size() + 128);
    for (char c : plan_json) {
      shifted.push_back(c);
      if (c == '\n') shifted.append("    ");
    }
    const std::size_t at = out.find(placeholder);
    FORTRESS_EXPECTS(at != std::string::npos);
    out.replace(at, placeholder.size(), shifted);
  }
  out.push_back('\n');  // committed files end with a newline
  return out;
}

CampaignSpec campaign_spec_from_json(std::string_view text) {
  const Value root = json::parse(text);
  ObjectReader r(root, "campaign spec");
  const std::string& schema = r.str("schema");
  if (schema != kSpecSchema) {
    throw ParseError(r.member_ctx("schema") + ": expected \"" + kSpecSchema +
                     "\", got \"" + schema + "\"");
  }

  CampaignSpec spec;
  CampaignConfig& cfg = spec.config;
  spec.name = r.str("name");
  spec.description = r.str("description");
  cfg.base_seed = r.u64("base_seed");
  cfg.threads = r.u32("threads");
  cfg.ci_level = r.dbl("ci_level");
  cfg.scheduler =
      scheduler_from_string(r.str("scheduler"), r.member_ctx("scheduler"));
  cfg.reuse_trial_stacks = r.boolean("reuse_trial_stacks");
  cfg.trials_per_cell = r.u64("trials_per_cell");
  {
    ObjectReader a(r.required("adaptive"), r.member_ctx("adaptive"));
    cfg.adaptive.enabled = a.boolean("enabled");
    cfg.adaptive.round_trials = a.u64("round_trials");
    cfg.adaptive.max_trials_per_cell = a.u64("max_trials_per_cell");
    cfg.adaptive.work_stealing = a.boolean("work_stealing");
    const auto& rules = a.array("rules");
    cfg.adaptive.rules.clear();
    for (std::size_t i = 0; i < rules.size(); ++i) {
      ObjectReader rr(rules[i], a.member_ctx("rules") + "[" +
                                    std::to_string(i) + "]");
      StoppingRule rule;
      rule.metric = metric_from_string(rr.str("metric"),
                                       rr.member_ctx("metric"));
      rule.quantile = rr.dbl("quantile");
      rule.target_rel = rr.dbl("target_rel");
      rule.abs_floor = rr.dbl("abs_floor");
      rr.done();
      cfg.adaptive.rules.push_back(rule);
    }
    a.done();
  }
  for (const Value& s : r.array("systems")) {
    spec.systems.push_back(system_kind_from_string(
        s.as_string(r.member_ctx("systems") + " element"),
        r.member_ctx("systems")));
  }
  if (spec.systems.empty()) {
    throw ParseError(r.member_ctx("systems") +
                     ": must list at least one system class");
  }
  const auto& plans = r.array("plans");
  if (plans.empty()) {
    throw ParseError(r.member_ctx("plans") + ": must list at least one plan");
  }
  for (const Value& plan : plans) {
    // Re-encode the subtree compactly (reemit keeps number lexemes
    // verbatim) and strict-decode through the plan codec, so every plan
    // obeys exactly the plan fixture contract.
    Writer w(/*compact=*/true);
    reemit(w, plan);
    spec.plans.push_back(plan_from_json(w.str()));
  }
  r.done();
  return spec;
}

std::uint64_t campaign_spec_digest(const CampaignSpec& spec) {
  return json::fnv1a64(campaign_spec_to_json(spec));
}

// --- Shard execution and merge --------------------------------------------

ShardResult run_campaign_shard(const std::vector<CampaignCell>& cells,
                               const CampaignConfig& config,
                               std::uint32_t shard, std::uint32_t n_shards,
                               std::uint64_t spec_digest) {
  FORTRESS_EXPECTS(n_shards >= 1);
  FORTRESS_EXPECTS(shard < n_shards);
  ShardResult result;
  result.shard = shard;
  result.n_shards = n_shards;
  result.n_cells = cells.size();
  result.spec_digest = spec_digest;
  std::vector<CampaignCell> mine;
  for (std::size_t c = shard; c < cells.size(); c += n_shards) {
    mine.push_back(cells[c]);
    result.cell_indices.push_back(c);
  }
  if (mine.empty()) return result;  // more shards than cells: empty slice
  CampaignResult r = run_campaign_subset(mine, config, result.cell_indices);
  result.cells = std::move(r.cells);
  return result;
}

CampaignResult merge_shards(const std::vector<ShardResult>& shards) {
  if (shards.empty()) throw ParseError("merge: no shard results");
  const std::uint64_t n_cells = shards[0].n_cells;
  const std::uint32_t n_shards = shards[0].n_shards;
  std::uint64_t digest = 0;
  for (const ShardResult& s : shards) {
    if (s.n_cells != n_cells) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " reports n_cells " + std::to_string(s.n_cells) +
                       ", shard " + std::to_string(shards[0].shard) +
                       " reports " + std::to_string(n_cells));
    }
    if (s.n_shards != n_shards) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " reports n_shards " + std::to_string(s.n_shards) +
                       ", expected " + std::to_string(n_shards));
    }
    if (s.spec_digest != 0) {
      if (digest != 0 && s.spec_digest != digest) {
        throw ParseError("merge: shard " + std::to_string(s.shard) +
                         " was computed from a different spec (digest " +
                         hex64(s.spec_digest) + " vs " + hex64(digest) + ")");
      }
      digest = s.spec_digest;
    }
    if (s.cell_indices.size() != s.cells.size()) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " has " + std::to_string(s.cell_indices.size()) +
                       " indices but " + std::to_string(s.cells.size()) +
                       " cell records");
    }
  }

  std::vector<const CellStats*> by_index(n_cells, nullptr);
  for (const ShardResult& s : shards) {
    for (std::size_t i = 0; i < s.cell_indices.size(); ++i) {
      const std::uint64_t idx = s.cell_indices[i];
      if (idx >= n_cells) {
        throw ParseError("merge: shard " + std::to_string(s.shard) +
                         " reports cell index " + std::to_string(idx) +
                         " outside the grid of " + std::to_string(n_cells));
      }
      if (by_index[idx] != nullptr) {
        throw ParseError("merge: cell " + std::to_string(idx) +
                         " appears in more than one shard");
      }
      by_index[idx] = &s.cells[i];
    }
  }
  for (std::uint64_t idx = 0; idx < n_cells; ++idx) {
    if (by_index[idx] == nullptr) {
      throw ParseError("merge: cell " + std::to_string(idx) +
                       " is covered by no shard");
    }
  }

  CampaignResult result;
  result.cells.reserve(n_cells);
  for (std::uint64_t idx = 0; idx < n_cells; ++idx) {
    result.cells.push_back(*by_index[idx]);
    result.total_trials += by_index[idx]->trials;
    result.total_events += by_index[idx]->events_executed;
  }
  return result;
}

// --- Sidecar and report codecs --------------------------------------------

std::string shard_result_to_json(const ShardResult& result) {
  FORTRESS_EXPECTS(result.cell_indices.size() == result.cells.size());
  Writer w(/*compact=*/false);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view(kShardSchema));
  w.key("shard");
  w.value(static_cast<std::uint64_t>(result.shard));
  w.key("n_shards");
  w.value(static_cast<std::uint64_t>(result.n_shards));
  w.key("n_cells");
  w.value(result.n_cells);
  w.key("spec_digest");
  w.value(std::string_view(hex64(result.spec_digest)));
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    write_cell(w, result.cell_indices[i], result.cells[i]);
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out.push_back('\n');
  return out;
}

ShardResult shard_result_from_json(std::string_view text) {
  const Value root = json::parse(text);
  ObjectReader r(root, "shard result");
  const std::string& schema = r.str("schema");
  if (schema != kShardSchema) {
    throw ParseError(r.member_ctx("schema") + ": expected \"" +
                     kShardSchema + "\", got \"" + schema + "\"");
  }
  ShardResult result;
  result.shard = r.u32("shard");
  result.n_shards = r.u32("n_shards");
  result.n_cells = r.u64("n_cells");
  result.spec_digest =
      parse_hex64(r.str("spec_digest"), r.member_ctx("spec_digest"));
  if (result.n_shards < 1 || result.shard >= result.n_shards) {
    throw ParseError("shard result: shard " + std::to_string(result.shard) +
                     " outside n_shards " + std::to_string(result.n_shards));
  }
  const auto& rows = r.array("cells");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string rctx = r.member_ctx("cells") + "[" +
                             std::to_string(i) + "]";
    auto [index, stats] = read_cell(rows[i], rctx);
    if (i > 0 && index <= result.cell_indices.back()) {
      throw ParseError(rctx + ": cell indices must be strictly ascending");
    }
    result.cell_indices.push_back(index);
    result.cells.push_back(std::move(stats));
  }
  r.done();
  return result;
}

std::string campaign_result_to_json(const CampaignResult& result) {
  Writer w(/*compact=*/false);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view(kResultSchema));
  w.key("total_trials");
  w.value(result.total_trials);
  w.key("total_events");
  w.value(result.total_events);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    write_cell(w, i, result.cells[i]);
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out.push_back('\n');
  return out;
}

}  // namespace fortress::scenario
