#include "scenario/differential.hpp"

#include <bit>
#include <type_traits>

#include "common/json.hpp"

namespace fortress::scenario {

namespace {

/// Streaming FNV-1a 64 over heterogeneous aggregate words.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// One fingerprint step per member type; aggregates recurse over their
/// field lists (common/fields.hpp). The lifetime moments are hashed only
/// where their count preconditions hold.
template <class T>
void hash_value(Fnv& f, const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    f.add(v);
  } else if constexpr (std::is_same_v<T, LatencyHistogram>) {
    f.add(v.fingerprint());
  } else if constexpr (std::is_same_v<T, RunningStats>) {
    f.add(v.count());
    if (v.count() > 0) {
      f.add(v.mean());
      f.add(v.min());
      f.add(v.max());
    }
    if (v.count() > 1) f.add(v.variance());
  } else if constexpr (std::is_same_v<T, ConfidenceInterval>) {
    // Not hashed: derived from the lifetime accumulator and ci_level.
  } else {
    fields::for_each<T>([&](const auto& fd) { hash_value(f, v.*fd.member); });
  }
}

}  // namespace

std::uint64_t campaign_fingerprint(const CampaignResult& result) {
  Fnv f;
  f.add(static_cast<std::uint64_t>(result.cells.size()));
  f.add(result.total_trials);
  f.add(result.total_events);
  for (const CellStats& c : result.cells) hash_value(f, c);
  return f.digest();
}

std::vector<std::string> differential_check(
    const net::ScenarioPlan& plan, const DifferentialOptions& options) {
  std::vector<CampaignCell> cells;
  for (model::SystemKind s : options.systems) cells.push_back({s, plan});

  CampaignConfig reference;
  reference.trials_per_cell = options.trials_per_cell;
  reference.base_seed = options.base_seed;
  reference.threads = 1;
  reference.reuse_trial_stacks = true;
  reference.scheduler = sim::SchedulerKind::Wheel;
  const std::uint64_t want =
      campaign_fingerprint(run_campaign(cells, reference));

  struct Arm {
    const char* label;
    CampaignConfig cfg;
  };
  std::vector<Arm> arms;
  {
    Arm fresh{"fresh-stacks (vs pooled arenas)", reference};
    fresh.cfg.reuse_trial_stacks = false;
    arms.push_back(fresh);
    Arm threads{"8 threads (vs 1)", reference};
    threads.cfg.threads = options.threads;
    arms.push_back(threads);
    Arm heap{"heap scheduler (vs wheel)", reference};
    heap.cfg.scheduler = sim::SchedulerKind::Heap;
    arms.push_back(heap);
  }

  std::vector<std::string> divergences;
  for (const Arm& arm : arms) {
    const std::uint64_t got =
        campaign_fingerprint(run_campaign(cells, arm.cfg));
    if (got != want) {
      divergences.push_back("plan '" + plan.name + "': " + arm.label +
                            " diverged — fingerprint " + json::hex64(got) +
                            " != reference " + json::hex64(want));
    }
  }
  return divergences;
}

}  // namespace fortress::scenario
