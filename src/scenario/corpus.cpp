#include "scenario/corpus.hpp"

#include <bit>

#include "common/json.hpp"
#include "scenario/campaign.hpp"
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

constexpr const char* kSchemaTag = "fortress-scenario-v1";

/// The golden row's pinned counters, in file order. Digests and bit
/// patterns (`hex`) are written as hex64 strings, counts as numbers.
struct GoldenPin {
  const char* name;
  std::uint64_t CorpusGoldenCell::*member;
  bool hex;
};
constexpr GoldenPin kGoldenPins[] = {
    {"trials", &CorpusGoldenCell::trials, false},
    {"compromised", &CorpusGoldenCell::compromised, false},
    {"censored", &CorpusGoldenCell::censored, false},
    {"lifetime_mean_bits", &CorpusGoldenCell::lifetime_mean_bits, true},
    {"direct_probes", &CorpusGoldenCell::direct_probes, false},
    {"indirect_probes", &CorpusGoldenCell::indirect_probes, false},
    {"events_executed", &CorpusGoldenCell::events_executed, false},
    {"blacklisted_sources", &CorpusGoldenCell::blacklisted_sources, false},
    {"traffic_fingerprint", &CorpusGoldenCell::traffic_fingerprint, true},
    {"population_fingerprint", &CorpusGoldenCell::population_fingerprint,
     true},
};

}  // namespace

model::SystemKind system_kind_from_string(const std::string& s,
                                          const std::string& ctx) {
  if (s == "S0") return model::SystemKind::S0;
  if (s == "S1") return model::SystemKind::S1;
  if (s == "S2") return model::SystemKind::S2;
  throw ParseError(ctx + ": unknown system \"" + s + "\" (want S0|S1|S2)");
}

CorpusEntry corpus_entry_from_json(std::string_view text) {
  // Strict key set; canonical order is NOT required on load (re-encode
  // byte-identity is checked separately by check_corpus_entry).
  const Value root = json::parse(text);
  ObjectReader r(root, "corpus entry");
  const std::string& schema = r.str("schema");
  if (schema != kSchemaTag) {
    throw ParseError(r.member_ctx("schema") + ": expected \"" + kSchemaTag +
                     "\", got \"" + schema + "\"");
  }

  CorpusEntry e;
  e.name = r.str("name");
  e.description = r.str("description");
  e.base_seed = r.u64("base_seed");
  e.trials_per_cell = r.u64("trials_per_cell");
  if (e.trials_per_cell < 1) {
    throw ParseError(r.member_ctx("trials_per_cell") + ": must be >= 1");
  }
  for (const Value& s : r.array("systems")) {
    e.systems.push_back(system_kind_from_string(
        s.as_string(r.member_ctx("systems") + " element"),
        r.member_ctx("systems")));
  }
  if (e.systems.empty()) {
    throw ParseError(r.member_ctx("systems") +
                     ": must list at least one system class");
  }
  e.digest = r.str("digest");

  {
    // Re-encode just the plan subtree and strict-decode it through the plan
    // codec, so the plan object obeys exactly the plan_codec contract.
    // Serialize the parsed subtree back to compact JSON for plan_from_json
    // (json::reemit keeps number lexemes verbatim, so u64 fields never pass
    // through a double on the wrapper->plan hop).
    Writer w(/*compact=*/true);
    reemit(w, r.required("plan"));
    e.plan = plan_from_json(w.str());
  }

  if (e.plan.name != e.name) {
    throw ParseError("corpus entry: name \"" + e.name +
                     "\" does not match plan.name \"" + e.plan.name + "\"");
  }

  const auto& rows = r.array("golden");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ObjectReader row(rows[i],
                     r.member_ctx("golden") + "[" + std::to_string(i) + "]");
    CorpusGoldenCell g;
    g.system =
        system_kind_from_string(row.str("system"), row.member_ctx("system"));
    for (const GoldenPin& pin : kGoldenPins) {
      g.*pin.member = pin.hex ? parse_hex64(row.str(pin.name),
                                            row.member_ctx(pin.name))
                              : row.u64(pin.name);
    }
    row.done();
    e.golden.push_back(g);
  }
  r.done();

  if (!e.golden.empty() && e.golden.size() != e.systems.size()) {
    throw ParseError("corpus entry: golden has " +
                     std::to_string(e.golden.size()) +
                     " rows but systems lists " +
                     std::to_string(e.systems.size()) + " classes");
  }
  return e;
}

std::string corpus_entry_to_json(const CorpusEntry& entry) {
  Writer w(/*compact=*/false);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view(kSchemaTag));
  w.key("name");
  w.value(std::string_view(entry.name));
  w.key("description");
  w.value(std::string_view(entry.description));
  w.key("base_seed");
  w.value(entry.base_seed);
  w.key("trials_per_cell");
  w.value(entry.trials_per_cell);
  w.key("systems");
  w.begin_array();
  for (model::SystemKind s : entry.systems) {
    w.value(std::string_view(model::to_string(s)));
  }
  w.end_array();
  w.key("digest");
  w.value(std::string_view(entry.digest));
  w.key("plan");
  // Splice the canonical pretty plan encoding, re-indented one level: the
  // plan codec's layout is the contract, so the wrapper reuses its bytes.
  {
    const std::string plan_json = plan_to_json(entry.plan);
    std::string shifted;
    shifted.reserve(plan_json.size() + 64);
    for (char c : plan_json) {
      shifted.push_back(c);
      if (c == '\n') shifted.append("  ");
    }
    // Writer has no raw-splice API on purpose (canonical layout); emit via
    // a placeholder then substitute below.
    w.value(std::string_view("\x01plan\x01"));
    w.key("golden");
    w.begin_array();
    for (const CorpusGoldenCell& g : entry.golden) {
      w.begin_object();
      w.key("system");
      w.value(std::string_view(model::to_string(g.system)));
      for (const GoldenPin& pin : kGoldenPins) {
        w.key(pin.name);
        if (pin.hex) {
          w.value(std::string_view(hex64(g.*pin.member)));
        } else {
          w.value(g.*pin.member);
        }
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::string out = w.str();
    const std::string placeholder = "\"\\u0001plan\\u0001\"";
    const std::size_t at = out.find(placeholder);
    out.replace(at, placeholder.size(), shifted);
    out.push_back('\n');  // committed files end with a newline
    return out;
  }
}

std::vector<CorpusGoldenCell> capture_corpus_golden(const CorpusEntry& entry) {
  std::vector<CampaignCell> cells;
  for (model::SystemKind s : entry.systems) cells.push_back({s, entry.plan});
  CampaignConfig cfg;
  cfg.trials_per_cell = entry.trials_per_cell;
  cfg.base_seed = entry.base_seed;
  cfg.threads = 1;
  const CampaignResult result = run_campaign(cells, cfg);

  std::vector<CorpusGoldenCell> rows;
  for (const CellStats& c : result.cells) {
    CorpusGoldenCell g;
    g.system = c.system;
    g.trials = c.trials;
    g.compromised = c.compromised;
    g.censored = c.censored;
    g.lifetime_mean_bits = std::bit_cast<std::uint64_t>(c.mean_lifetime());
    g.direct_probes = c.attacker.direct_probes;
    g.indirect_probes = c.attacker.indirect_probes;
    g.events_executed = c.events_executed;
    g.blacklisted_sources = c.blacklisted_sources;
    g.traffic_fingerprint = c.traffic.latency.fingerprint();
    g.population_fingerprint = c.population.latency.fingerprint();
    rows.push_back(g);
  }
  return rows;
}

std::vector<std::string> check_corpus_entry(const CorpusEntry& entry,
                                            std::string_view original_text) {
  std::vector<std::string> problems;

  const std::string expect_digest = plan_digest_string(entry.plan);
  if (entry.digest != expect_digest) {
    problems.push_back("digest drift: file pins " + entry.digest +
                       " but the plan encodes to " + expect_digest);
  }

  const std::string reencoded = corpus_entry_to_json(entry);
  if (reencoded != original_text) {
    problems.push_back(
        "canonical-form drift: re-encoding the entry does not reproduce the "
        "file bytes (run `plan_tool capture` and commit the output)");
  }

  if (entry.golden.empty()) {
    problems.push_back("no golden rows: run `plan_tool capture`");
    return problems;
  }

  const std::vector<CorpusGoldenCell> fresh = capture_corpus_golden(entry);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const CorpusGoldenCell& want = entry.golden[i];
    const CorpusGoldenCell& got = fresh[i];
    const std::string cell =
        "golden[" + std::to_string(i) + "] (" + model::to_string(got.system) +
        ")";
    if (want.system != got.system) {
      problems.push_back(cell + ": system order mismatch");
      continue;
    }
    for (const GoldenPin& pin : kGoldenPins) {
      if (want.*pin.member != got.*pin.member) {
        problems.push_back(cell + "." + pin.name + ": pinned " +
                           std::to_string(want.*pin.member) +
                           ", re-run produced " +
                           std::to_string(got.*pin.member));
      }
    }
  }
  return problems;
}

}  // namespace fortress::scenario
