// layers.cpp — the traced run: per-layer metrics from spans the benchmark
// records around its own calls into each module's public functions.
//
// Campaign-level layers (scenario, exec, sim, attack, traffic, population,
// osl) are read from a 1-thread campaign and a span-per-trial replay of the
// same cells and seeds through scenario::TrialArena. Side-driven layers
// (core, net, codec, crypto, analysis, montecarlo) are timed in batches:
// core and the models with the workload's own plans, net, codec and crypto
// on the frame mix captured from service_load's plans (ServiceFrames). The
// traced run makes the same output checks as the untraced one. A metric
// whose layer the workload does not exercise (no client traffic, no live
// trials) reads 0.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

#include "analysis/evaluator.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/client.hpp"
#include "core/live_system.hpp"
#include "core/population.hpp"
#include "crypto/hmac.hpp"
#include "montecarlo/engine.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "perfbench.hpp"
#include "replication/message.hpp"
#include "scenario/differential.hpp"

namespace perfbench {

using namespace fortress;
using scenario::CampaignCell;
using scenario::CampaignResult;
using scenario::CellStats;

// --- Tracer ------------------------------------------------------------------

std::uint32_t Tracer::begin(const char* name, std::uint64_t trace_id,
                            std::uint32_t parent) {
  Span s;
  s.name = name;
  s.trace_id = trace_id;
  s.parent = parent;
  s.start_s = elapsed_s(origin_);
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t span) { spans_.at(span).end_s = elapsed_s(origin_); }

double Tracer::total_s(const char* name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) t += s.duration();
  }
  return t;
}

std::vector<std::pair<std::string, double>> Tracer::self_time_by_name() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) self[s.parent] -= s.duration();
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return {by_name.begin(), by_name.end()};
}

void Tracer::write(const std::string& path) const {
  json::Writer w(/*compact=*/true);
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("name");
    w.value(std::string_view(s.name));
    w.key("trace");
    w.value(s.trace_id);
    w.key("parent");
    if (s.parent == kNoParent) {
      w.value_null();
    } else {
      w.value(static_cast<std::uint64_t>(s.parent));
    }
    w.key("start_s");
    w.value(s.start_s);
    w.key("end_s");
    w.value(s.end_s);
    w.end_object();
  }
  w.end_array();
  std::ofstream out(path);
  out << w.str() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

namespace {

// The traced run replays a quarter of a fixed-budget campaign three times
// at 1 thread (campaign, traced replay, untraced replay), which keeps it
// about as long as an untraced run.
constexpr std::uint64_t kTraceDivisor = 4;

/// Every per-layer metric, in report order, with its unit.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"scenario.trial_us.p50", "us"},
    {"scenario.trial_us.p99", "us"},
    {"scenario.campaign_self_frac", "frac"},
    {"scenario.trials", "count"},
    {"scenario.rounds", "count"},
    {"exec.speedup", "x"},
    {"core.build_us", "us"},
    {"core.reset_us", "us"},
    {"sim.events_per_trial", "count"},
    {"sim.ns_per_event", "ns"},
    {"attack.probes_per_trial", "count"},
    {"attack.crashes_per_trial", "count"},
    {"net.send_ns", "ns"},
    {"codec.decode_ns", "ns"},
    {"codec.encode_ns", "ns"},
    {"crypto.hmac_ns", "ns"},
    {"crypto.verify_ns", "ns"},
    {"traffic.requests_per_trial", "count"},
    {"traffic.retries_per_request", "ratio"},
    {"traffic.completed_frac", "frac"},
    {"population.ns_per_client_tick", "ns"},
    {"osl.shed_frac", "frac"},
    {"osl.max_queue_depth", "count"},
    {"mc.ns_per_trial", "ns"},
    {"analysis.eval_us", "us"},
    {"trace_overhead_frac", "frac"},
};

using Values = std::map<std::string, double>;

void emit(Report& rep, const Values& v) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = v.find(name);
    rep.add(name, it == v.end() ? 0.0 : it->second, unit);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- side-driven layers --------------------------------------------------------

/// Forwards every call to the wrapped application and keeps a copy of each
/// frame it is handed.
class AppTap final : public osl::Application {
 public:
  AppTap(osl::Application& app, std::vector<Bytes>& sink) : app_(app), sink_(sink) {}
  void handle_message(const net::Envelope& env) override {
    sink_.emplace_back(env.payload.begin(), env.payload.end());
    app_.handle_message(env);
  }
  void handle_connection_opened(net::ConnectionId id, net::HostId peer) override {
    app_.handle_connection_opened(id, peer);
  }
  void handle_connection_closed(net::ConnectionId id, net::HostId peer,
                                net::CloseReason reason) override {
    app_.handle_connection_closed(id, peer, reason);
  }
  void handle_reboot() override { app_.handle_reboot(); }
  std::optional<std::size_t> stage_verify(const net::Envelope& env,
                                          crypto::BatchVerifier& batch) override {
    return app_.stage_verify(env, batch);
  }

 private:
  osl::Application& app_;
  std::vector<Bytes>& sink_;
};

/// The same for a network host (a client or a population cohort).
class HostTap final : public net::Handler {
 public:
  HostTap(net::Handler& host, std::vector<Bytes>& sink) : host_(host), sink_(sink) {}
  void on_message(const net::Envelope& env) override {
    sink_.emplace_back(env.payload.begin(), env.payload.end());
    host_.on_message(env);
  }
  void on_connection_closed(net::ConnectionId id, net::HostId peer,
                            net::CloseReason reason) override {
    host_.on_connection_closed(id, peer, reason);
  }
  void on_connection_opened(net::ConnectionId id, net::HostId peer) override {
    host_.on_connection_opened(id, peer);
  }

 private:
  net::Handler& host_;
  std::vector<Bytes>& sink_;
};

/// The request/reply frame mix of service_load, captured from the library.
/// Each service_load plan runs once per system class on a deployment from
/// core::make_live_system, with the plan's client traffic (core::Clients,
/// arrivals drawn the way scenario::TrafficGenerator draws them) and its
/// client population, to the horizon and without the attacker, whose
/// probes the machines absorb before any application sees them. Taps keep
/// every frame the servers' and proxies' applications are handed (client
/// requests and the replication plane) and every frame a client or cohort
/// receives (responses). A stride sample of the frames keeps the mix.
struct ServiceFrames {
  struct Deployment {
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<core::LiveSystem> live;
  };
  /// Kept alive: their key registries verify the frames' signatures.
  std::vector<Deployment> deployments;
  std::vector<Bytes> wire;                 ///< the sample
  std::vector<std::size_t> deployment_of;  ///< per sampled frame
  double frames_per_request = 0.0;         ///< captured, before sampling
  double signed_per_request = 0.0;         ///< of those, frames with a signature

  ServiceFrames(const std::vector<net::ScenarioPlan>& plans, std::uint64_t seed);
};

constexpr std::size_t kFrameSample = 4096;

const char* msg_type_name(std::uint32_t type) {
  using T = replication::MsgType;
  switch (static_cast<T>(type)) {
    case T::Request: return "Request";
    case T::Response: return "Response";
    case T::ProxyResponse: return "ProxyResponse";
    case T::StateUpdate: return "StateUpdate";
    case T::Heartbeat: return "Heartbeat";
    case T::ViewChange: return "ViewChange";
    case T::PrePrepare: return "PrePrepare";
    case T::PrepareAck: return "PrepareAck";
    case T::NewView: return "NewView";
    case T::StateRequest: return "StateRequest";
    case T::StateReply: return "StateReply";
    case T::NsLookup: return "NsLookup";
    case T::NsReply: return "NsReply";
  }
  return "undecodable";
}

ServiceFrames::ServiceFrames(const std::vector<net::ScenarioPlan>& plans,
                             std::uint64_t seed) {
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> by_type;
  std::vector<std::pair<std::vector<Bytes>, std::size_t>> captured;
  std::uint64_t frames = 0, requests = 0;
  for (const net::ScenarioPlan& plan : plans) {
    for (const model::SystemKind kind : {model::SystemKind::S1, model::SystemKind::S2}) {
      Deployment d;
      d.sim = std::make_unique<sim::Simulator>();
      d.live = core::make_live_system(*d.sim, kind, plan, seed);
      core::LiveSystem& live = *d.live;
      std::vector<Bytes> sink;

      std::vector<std::pair<osl::Machine*, osl::Application*>> apps;
      if (auto* s1 = dynamic_cast<core::LiveS1*>(&live)) {
        for (int i = 0; i < s1->n_servers(); ++i) {
          apps.push_back({&s1->server_machine(i), &s1->server(i)});
        }
      } else if (auto* s2 = dynamic_cast<core::LiveS2*>(&live)) {
        for (int i = 0; i < s2->n_servers(); ++i) {
          apps.push_back({&s2->server_machine(i), &s2->server(i)});
        }
        for (int i = 0; i < s2->n_proxies(); ++i) {
          apps.push_back({&s2->proxy_machine(i), &s2->proxy(i)});
        }
      }
      std::vector<std::unique_ptr<AppTap>> app_taps;
      for (auto [machine, app] : apps) {
        app_taps.push_back(std::make_unique<AppTap>(*app, sink));
        machine->set_application(app_taps.back().get());
      }

      // As scenario::drive_trial: start, then population, then traffic.
      const sim::Time horizon = plan.step_duration * static_cast<sim::Time>(plan.horizon_steps);
      live.start();
      net::Network& network = live.network();
      std::vector<std::unique_ptr<HostTap>> host_taps;
      auto tap_host = [&](const net::Address& addr, net::Handler& host) {
        const net::HostId id = network.id_of(addr);
        network.detach(id);
        host_taps.push_back(std::make_unique<HostTap>(host, sink));
        network.attach(id, *host_taps.back());
      };
      std::unique_ptr<core::ClientPopulation> population;
      if (plan.population.enabled()) {
        population = std::make_unique<core::ClientPopulation>(
            *d.sim, network, live.registry(), live.directory(), plan.population,
            horizon, seed ^ 0x50B5CA1EULL);
        // One address per cohort, "pop-c<k>".
        for (int k = 0; network.attached("pop-c" + std::to_string(k)); ++k) {
          tap_host("pop-c" + std::to_string(k), *population);
        }
      }
      const net::TrafficSpec& spec = plan.traffic;
      std::vector<std::unique_ptr<core::Client>> clients;
      const std::uint64_t traffic_seed = seed ^ 0x7AFF1CULL;
      Rng rng;
      rng.reset_substream(traffic_seed, 0);
      std::size_t phase = 0, next_client = 0;
      std::function<void()> arrive;
      if (spec.enabled()) {
        for (int i = 0; i < spec.clients; ++i) {
          core::ClientConfig cfg;
          cfg.address = "lg-" + std::to_string(i);
          cfg.retry_interval = spec.retry_base;
          cfg.retry_multiplier = spec.retry_multiplier;
          cfg.retry_cap = spec.retry_cap;
          cfg.retry_jitter = spec.retry_jitter;
          cfg.retry_budget = spec.retry_budget;
          cfg.deadline = spec.request_deadline;
          cfg.seed = traffic_seed ^
                     ((static_cast<std::uint64_t>(i) + 1) * 0x9E3779B97F4A7C15ULL);
          clients.push_back(std::make_unique<core::Client>(
              *d.sim, network, live.registry(), live.directory(), cfg));
          tap_host(cfg.address, *clients.back());
        }
        arrive = [&] {
          const sim::Time now = d.sim->now();
          while (phase + 1 < spec.schedule.size() && spec.schedule[phase + 1].at <= now) {
            ++phase;
          }
          const double rate = spec.schedule[phase].rate;
          if (rate > 0.0) {
            const bool write = rng.bernoulli(spec.write_fraction);
            const std::string body = (write ? "PUT k" : "GET k") +
                                     std::to_string(rng.below(spec.distinct_keys)) +
                                     (write ? " v" : "");
            clients[next_client]->submit(Bytes(body.begin(), body.end()),
                                         [](std::uint64_t, const Bytes&) {});
            next_client = (next_client + 1) % clients.size();
            const sim::Time gap = spec.poisson ? rng.exponential(rate) : 1.0 / rate;
            if (now + gap < horizon) d.sim->schedule_after(gap, [&] { arrive(); });
          } else if (phase + 1 < spec.schedule.size() &&
                     spec.schedule[phase + 1].at < horizon) {
            d.sim->schedule_at(spec.schedule[phase + 1].at, [&] { arrive(); });
          }
        };
        if (spec.schedule.front().at < horizon) {
          d.sim->schedule_at(spec.schedule.front().at, [&] { arrive(); });
        }
      }
      d.sim->run_until(horizon);

      for (const auto& c : clients) requests += c->stats().submitted;
      if (population) requests += population->stats().offered;
      // Detach the taps before they go: clients and cohorts detach their
      // addresses on destruction, the machines get their applications back.
      clients.clear();
      population.reset();
      for (auto [machine, app] : apps) machine->set_application(app);
      for (const Bytes& f : sink) {
        const auto h = replication::MessageView::peek(f);
        auto& [n, bytes] = by_type[h ? static_cast<std::uint32_t>(h->type) : 0u];
        ++n;
        bytes += f.size();
      }
      frames += sink.size();
      captured.push_back({std::move(sink), deployments.size()});
      deployments.push_back(std::move(d));
    }
  }
  const std::uint64_t stride = std::max<std::uint64_t>(1, frames / kFrameSample);
  std::uint64_t k = 0, signed_sampled = 0;
  for (auto& [sink, dep] : captured) {
    for (Bytes& f : sink) {
      if (k++ % stride != 0) continue;
      const auto view = replication::MessageView::decode(f);
      if (view && view->signature()) ++signed_sampled;
      wire.push_back(std::move(f));
      deployment_of.push_back(dep);
    }
  }
  frames_per_request = ratio(static_cast<double>(frames), static_cast<double>(requests));
  signed_per_request = frames_per_request * ratio(static_cast<double>(signed_sampled),
                                                  static_cast<double>(wire.size()));
  std::printf("service_load frame mix: %llu requests, %llu frames (%.2f per "
              "request, %.2f signed), %zu sampled\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(frames), frames_per_request,
              signed_per_request, wire.size());
  for (const auto& [type, nb] : by_type) {
    std::printf("  %-14s %8.3f frames/request %8.1f bytes/frame\n", msg_type_name(type),
                ratio(static_cast<double>(nb.first), static_cast<double>(requests)),
                ratio(static_cast<double>(nb.second), static_cast<double>(nb.first)));
  }
}

/// ns per call of `op(i)` over `ops` calls, in `batches` spans named `name`.
template <typename Op>
double time_batches(Tracer& tr, const char* name, int batches, std::size_t ops,
                    Op&& op) {
  double total = 0.0;
  for (int b = 0; b < batches; ++b) {
    const std::uint32_t s = tr.begin(name, static_cast<std::uint64_t>(b));
    for (std::size_t i = 0; i < ops; ++i) op(i);
    tr.end(s);
    total += tr.spans()[s].duration();
  }
  return total * 1e9 / static_cast<double>(static_cast<std::size_t>(batches) * ops);
}

void probe_codec_crypto(Tracer& tr, Values& v, Report& rep, const ServiceFrames& mix) {
  constexpr int kBatches = 16;
  std::vector<replication::Message> messages;
  std::vector<const Bytes*> wire;
  for (const Bytes& f : mix.wire) {
    if (auto m = replication::Message::decode(f)) {
      messages.push_back(std::move(*m));
      wire.push_back(&f);
    }
  }
  rep.check(!messages.empty() && messages.size() == mix.wire.size(),
            "codec: every captured service_load frame decodes (" +
                std::to_string(messages.size()) + " of " +
                std::to_string(mix.wire.size()) + ")");
  const std::size_t n = messages.size();
  // Each timed call's result feeds a check, so none can be optimized away.
  std::size_t encoded = 0;
  v["codec.encode_ns"] = time_batches(tr, "codec.encode", kBatches, n, [&](std::size_t i) {
    encoded += messages[i].encode() == *wire[i];
  });
  rep.check(encoded == kBatches * n, "codec: every re-encode matches its wire frame");
  std::size_t decoded = 0;
  v["codec.decode_ns"] = time_batches(tr, "codec.decode", kBatches, n, [&](std::size_t i) {
    const auto view = replication::MessageView::decode(*wire[i]);
    decoded += view.has_value() && view->seq() == messages[i].seq;
  });
  rep.check(decoded == kBatches * n, "codec: every frame of the mix decodes");

  std::vector<Bytes> signing;
  std::vector<crypto::Digest> expected;
  const Bytes key = bytes_of("perfbench-hmac-key-0123456789abcdef");
  for (const auto& m : messages) {
    signing.push_back(m.signing_bytes());
    expected.push_back(crypto::hmac_sha256(key, signing.back()));
  }
  std::size_t macs = 0;
  v["crypto.hmac_ns"] = time_batches(tr, "crypto.hmac", kBatches, n, [&](std::size_t i) {
    macs += crypto::hmac_sha256(key, signing[i]) == expected[i];
  });
  rep.check(macs == kBatches * n, "crypto: every HMAC repeats");

  // Signed frames, verified against the key registry of the deployment that
  // sent them.
  std::vector<replication::MessageView> views;
  std::vector<const crypto::KeyRegistry*> registries;
  for (std::size_t i = 0; i < mix.wire.size(); ++i) {
    auto view = replication::MessageView::decode(mix.wire[i]);
    if (!view || !view->signature()) continue;
    views.push_back(*view);
    registries.push_back(&mix.deployments[mix.deployment_of[i]].live->registry());
  }
  std::size_t verified = 0;
  v["crypto.verify_ns"] =
      time_batches(tr, "crypto.verify", kBatches, views.size(), [&](std::size_t i) {
        verified += replication::verify_message(views[i], *registries[i]);
      });
  rep.check(!views.empty() && verified == kBatches * views.size(),
            "crypto: every signed frame of the mix verifies (" +
                std::to_string(views.size()) + " frames)");
}

struct SinkHandler final : net::Handler {
  std::uint64_t delivered = 0;
  void on_message(const net::Envelope&) override { ++delivered; }
};

/// Network::send plus its delivery, with the plan's latency and loss.
void probe_net(Tracer& tr, Values& v, const net::ScenarioPlan& plan,
               const ServiceFrames& mix, std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(sim, plan, seed);
  SinkHandler a, b;
  const net::HostId ha = network.attach("perfbench-a", a);
  const net::HostId hb = network.attach("perfbench-b", b);
  constexpr int kBatches = 32;
  constexpr std::size_t kSends = 2048;
  double total = 0.0;
  for (int batch = 0; batch < kBatches; ++batch) {
    const std::uint32_t s = tr.begin("net.send", static_cast<std::uint64_t>(batch));
    for (std::size_t i = 0; i < kSends; ++i) {
      const Bytes& frame = mix.wire[i % mix.wire.size()];
      Bytes buf = network.acquire_buffer();
      buf.assign(frame.begin(), frame.end());
      network.send(ha, hb, std::move(buf));
    }
    sim.run();
    tr.end(s);
    total += tr.spans()[s].duration();
  }
  v["net.send_ns"] = total * 1e9 / (kBatches * static_cast<double>(kSends));
}

/// core::make_live_system and LiveSystem::reset for each structural shape
/// among the cells; prints per-shape medians.
void probe_core(Tracer& tr, Values& v, const std::vector<CampaignCell>& cells,
                std::uint64_t seed) {
  std::set<std::tuple<int, int, int>> seen;
  std::vector<double> builds, resets;
  for (const CampaignCell& c : cells) {
    if (!seen.insert({static_cast<int>(c.system), c.plan.n_servers, c.plan.n_proxies})
             .second) {
      continue;
    }
    std::vector<double> shape_builds, shape_resets;
    for (int i = 0; i < 8; ++i) {
      sim::Simulator sim;
      const std::uint32_t s = tr.begin("core.build", static_cast<std::uint64_t>(i));
      auto live = core::make_live_system(sim, c.system, c.plan, seed + i);
      tr.end(s);
      shape_builds.push_back(tr.spans()[s].duration());
    }
    sim::Simulator sim;
    auto live = core::make_live_system(sim, c.system, c.plan, seed);
    for (int i = 0; i < 32; ++i) {
      live->start();
      sim.run_until(c.plan.step_duration);
      sim.reset();  // the owning simulator first, as LiveSystem::reset requires
      const std::uint32_t s = tr.begin("core.reset", static_cast<std::uint64_t>(i));
      live->reset(c.plan, seed + i + 1);
      tr.end(s);
      shape_resets.push_back(tr.spans()[s].duration());
    }
    std::printf("core: %s n_servers=%d n_proxies=%d build %.1f us, reset %.1f us "
                "(medians)\n",
                model::to_string(c.system).c_str(), c.plan.n_servers,
                c.plan.n_proxies, median(shape_builds) * 1e6,
                median(shape_resets) * 1e6);
    builds.insert(builds.end(), shape_builds.begin(), shape_builds.end());
    resets.insert(resets.end(), shape_resets.begin(), shape_resets.end());
  }
  v["core.build_us"] = median(builds) * 1e6;
  v["core.reset_us"] = median(resets) * 1e6;
}

/// analysis::analytic_lifetime and montecarlo::estimate_lifetime on the
/// model-side view of each distinct live cell.
void probe_models(Tracer& tr, Values& v, const std::vector<CampaignCell>& cells,
                  std::uint64_t seed) {
  constexpr std::uint64_t kMcTrials = 20'000;
  double eval_s = 0.0, mc_s = 0.0;
  std::uint64_t evals = 0, mc_trials = 0;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell m = sweep_cell_of(cells[i]);
    char key[128];
    std::snprintf(key, sizeof key, "%d %d %llu %.17g %.17g",
                  static_cast<int>(m.shape.kind), static_cast<int>(m.obf),
                  static_cast<unsigned long long>(m.params.chi), m.params.alpha,
                  m.params.kappa);
    if (!seen.insert(key).second) continue;
    for (int r = 0; r < 16; ++r) {
      const std::uint32_t s = tr.begin("analysis.eval", i);
      const auto ev = analysis::analytic_lifetime(m.shape, m.params, m.obf);
      tr.end(s);
      eval_s += tr.spans()[s].duration();
      ++evals;
      if (!ev) break;
    }
    montecarlo::McConfig mc;
    mc.trials = kMcTrials;
    mc.seed = scenario::trial_seed(seed, i, 0);
    const std::uint32_t s = tr.begin("mc.estimate", i);
    montecarlo::estimate_lifetime(m.shape, m.params, m.obf, model::Granularity::Step, mc);
    tr.end(s);
    mc_s += tr.spans()[s].duration();
    mc_trials += kMcTrials;
  }
  v["analysis.eval_us"] = ratio(eval_s * 1e6, static_cast<double>(evals));
  v["mc.ns_per_trial"] = ratio(mc_s * 1e9, static_cast<double>(mc_trials));
}

// --- campaign-level layers ------------------------------------------------------

/// One pass over every (cell, trial) a campaign executed, through one pooled
/// TrialArena; with a tracer, one "trial" span per call. Returns seconds.
double replay(const LiveWorkload& w, const CampaignResult& r, Tracer* tr,
              std::uint32_t parent, std::vector<std::uint64_t>* events) {
  scenario::TrialArena arena(w.config.scheduler);
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    for (std::uint64_t t = 0; t < r.cells[c].trials; ++t) {
      const std::uint64_t seed = scenario::trial_seed(w.config.base_seed, c, t);
      const std::uint32_t s =
          tr ? tr->begin("trial", (static_cast<std::uint64_t>(c) << 32) | t, parent) : 0;
      const scenario::TrialOutcome out =
          arena.run(w.cells[c].system, w.cells[c].plan, seed);
      if (tr) tr->end(s);
      if (events) (*events)[c] += out.events_executed;
    }
  }
  return elapsed_s(t0);
}

void print_self_times(const Tracer& tr) {
  std::printf("\nself time by span (s):");
  for (const auto& [name, self] : tr.self_time_by_name()) {
    std::printf(" %s=%.4f", name.c_str(), self);
  }
  std::printf("\n");
}

void write_spans(const Options& opt, const Tracer& tr) {
  if (!opt.results_dir.empty()) {
    tr.write(opt.results_dir + "/" + results_stem(opt) + "-spans.json");
  }
}

}  // namespace

Report trace_live(const Options& opt) {
  Report rep;
  Tracer tr;
  Values v;
  const double setup_s = measure_setup_s(opt);

  LiveWorkload w = load_live(opt);
  if (!w.config.adaptive.enabled) {
    w.config.trials_per_cell = std::max<std::uint64_t>(
        8, w.config.trials_per_cell / kTraceDivisor);
  }
  scenario::CampaignConfig one = w.config;
  one.threads = 1;

  const std::uint32_t sn = tr.begin("campaign.nproc");
  const CampaignResult rn = scenario::run_campaign(w.cells, w.config);
  tr.end(sn);
  const std::uint32_t s1 = tr.begin("campaign.1thread");
  const CampaignResult r1 = scenario::run_campaign(w.cells, one);
  tr.end(s1);
  const double tn = tr.spans()[sn].duration();
  const std::uint64_t failing = check_live_outputs(w, rn, opt, rep);

  // Replays of the same cells and seeds, alternately untraced and with one
  // span per trial; the faster pass of each kind counts, so neither pays for
  // warming the allocator. Two 1-thread campaigns bracket the replays, and
  // their mean is the campaign time.
  double untraced_s = 1e300;
  std::uint32_t sr = 0;
  std::vector<std::uint64_t> events;
  for (int pass = 0; pass < 2; ++pass) {
    untraced_s = std::min(untraced_s, replay(w, r1, nullptr, Tracer::kNoParent, nullptr));
    events.assign(w.cells.size(), 0);
    const std::uint32_t s = tr.begin("replay");
    replay(w, r1, &tr, s, &events);
    tr.end(s);
    if (pass == 0 || tr.spans()[s].duration() < tr.spans()[sr].duration()) sr = s;
  }
  const std::uint32_t s1b = tr.begin("campaign.1thread");
  const CampaignResult r1b = scenario::run_campaign(w.cells, one);
  tr.end(s1b);
  const double t1 = tr.total_s("campaign.1thread") / 2.0;
  const bool repeat_ok =
      counters_of(rn) == counters_of(r1) && counters_of(r1b) == counters_of(r1);
  rep.check(repeat_ok, "exact counters repeat across 3 same-seed campaigns (" +
                           std::to_string(w.config.threads) + ", 1 and 1 threads)");
  bool replay_ok = true;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    replay_ok = replay_ok && events[c] == r1.cells[c].events_executed;
  }
  rep.check(replay_ok, "per-trial replay reproduces every cell's event count");

  // Per-trial spans of the faster traced pass, in (cell, trial) order.
  std::vector<double> trial_s;
  for (const Tracer::Span& s : tr.spans()) {
    if (s.parent == sr) trial_s.push_back(s.duration());
  }
  std::vector<double> cell_trial_s(w.cells.size(), 0.0);
  {
    std::size_t k = 0;
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      for (std::uint64_t t = 0; t < r1.cells[c].trials; ++t) cell_trial_s[c] += trial_s[k++];
    }
  }
  double trials_total_s = 0.0;
  for (double d : trial_s) trials_total_s += d;

  const double trials = static_cast<double>(r1.total_trials);
  std::uint64_t rounds = 0, probes = 0, crashes = 0, requests = 0, retries = 0,
                completed = 0, enqueued = 0, shed = 0, max_depth = 0;
  double pop_ns = 0.0, client_ticks = 0.0;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const CellStats& cs = r1.cells[c];
    rounds = std::max(rounds, cs.rounds);
    probes += cs.attacker.direct_probes + cs.attacker.indirect_probes;
    crashes += cs.attacker.crashes_caused;
    requests += cs.traffic.offered + cs.population.offered;
    retries += cs.traffic.retries + cs.population.retries;
    completed += cs.traffic.completed + cs.population.completed;
    enqueued += cs.traffic.enqueued;
    shed += cs.traffic.shed;
    max_depth = std::max(max_depth, cs.traffic.max_queue_depth);
    const net::PopulationSpec& pop = w.cells[c].plan.population;
    if (pop.enabled()) {
      // Ticks run until compromise or the horizon: lifetime_steps whole
      // steps, plus the step a compromise happened in.
      const double steps = cs.lifetime.mean() * static_cast<double>(cs.trials) +
                           static_cast<double>(cs.compromised);
      client_ticks += static_cast<double>(pop.clients) * steps *
                      w.cells[c].plan.step_duration / pop.tick_interval;
      pop_ns += cell_trial_s[c] * 1e9;
    }
  }

  v["scenario.trial_us.p50"] = fortress::quantile(trial_s, 0.5) * 1e6;
  v["scenario.trial_us.p99"] = fortress::quantile(trial_s, 0.99) * 1e6;
  v["scenario.campaign_self_frac"] = (t1 - trials_total_s) / t1;
  v["scenario.trials"] = trials;
  v["scenario.rounds"] = static_cast<double>(rounds);
  v["exec.speedup"] = t1 / tn;
  v["sim.events_per_trial"] = static_cast<double>(r1.total_events) / trials;
  v["sim.ns_per_event"] = trials_total_s * 1e9 / static_cast<double>(r1.total_events);
  v["attack.probes_per_trial"] = static_cast<double>(probes) / trials;
  v["attack.crashes_per_trial"] = static_cast<double>(crashes) / trials;
  v["traffic.requests_per_trial"] = static_cast<double>(requests) / trials;
  v["traffic.retries_per_request"] = ratio(static_cast<double>(retries), static_cast<double>(requests));
  v["traffic.completed_frac"] = ratio(static_cast<double>(completed), static_cast<double>(requests));
  v["population.ns_per_client_tick"] = ratio(pop_ns, client_ticks);
  v["osl.shed_frac"] = ratio(static_cast<double>(shed), static_cast<double>(enqueued + shed));
  v["osl.max_queue_depth"] = static_cast<double>(max_depth);
  v["trace_overhead_frac"] = 1.0 - untraced_s / tr.spans()[sr].duration();

  const ServiceFrames mix(read_plans(opt.plans_dir + "/service_load"), opt.seed);
  probe_core(tr, v, w.cells, opt.seed);
  probe_net(tr, v, w.cells.front().plan, mix, opt.seed);
  probe_codec_crypto(tr, v, rep, mix);
  probe_models(tr, v, w.cells, opt.seed);

  // Attribution: shares of the 1-thread timeline (set-up + campaign).
  const double total = setup_s + t1;
  const double core_s = v["core.reset_us"] * 1e-6 * trials;
  std::printf("\nattribution, %s at 1 thread (%.0f trials, %.4f s):\n",
              w.name.c_str(), trials, total);
  std::printf("  %-28s %10.4f s %6.1f%%\n", "set-up", setup_s, 100 * setup_s / total);
  std::printf("  %-28s %10.4f s %6.1f%%\n", "core reset (est. per trial)", core_s,
              100 * core_s / total);
  std::printf("  %-28s %10.4f s %6.1f%%\n", "trial run (rest)", trials_total_s - core_s,
              100 * (trials_total_s - core_s) / total);
  std::printf("  %-28s %10.4f s %6.1f%%\n", "campaign self", t1 - trials_total_s,
              100 * (t1 - trials_total_s) / total);
  const double trial_ns = trials_total_s * 1e9 / trials;
  std::printf("side-driven layer cost per trial (mean trial %.1f us = %.1f events "
              "x %.1f ns):\n",
              trial_ns / 1e3, v["sim.events_per_trial"], v["sim.ns_per_event"]);
  const struct {
    const char* layer;
    double ns_per_op;
    const char* op;
    double ops_per_trial;
  } rows[] = {
      {"net", v["net.send_ns"], "probes (1+ send each)", v["attack.probes_per_trial"]},
      {"codec", v["codec.decode_ns"], "frames decoded",
       v["traffic.requests_per_trial"] * mix.frames_per_request},
      {"crypto", v["crypto.verify_ns"], "signed frames",
       v["traffic.requests_per_trial"] * mix.signed_per_request},
      {"core", v["core.reset_us"] * 1e3, "resets", 1.0},
  };
  for (const auto& r : rows) {
    const double ns = r.ns_per_op * r.ops_per_trial;
    std::printf("  %-7s %10.1f ns/op x %12.2f %-22s = %10.1f us/trial %6.1f%%\n",
                r.layer, r.ns_per_op, r.ops_per_trial, r.op, ns / 1e3,
                100 * ns / trial_ns);
  }
  print_self_times(tr);
  write_spans(opt, tr);

  rep.attempted = static_cast<std::uint64_t>(trials);
  rep.failed = repeat_ok && replay_ok ? failing : rep.attempted;
  // A failed side-driven check (codec, crypto) fails the whole run.
  if (!rep.correct() && rep.failed == 0) rep.failed = rep.attempted;
  emit(rep, v);
  return rep;
}

Report trace_sweep(const Options& opt) {
  Report rep;
  Tracer tr;
  Values v;
  SweepWorkload w = load_sweep(opt);
  w.trials_per_cell /= kTraceDivisor;

  const std::uint32_t sn = tr.begin("sweep.nproc");
  const Counters cn = counters_of(run_sweep(w, nproc()));
  tr.end(sn);
  const auto t0 = Clock::now();
  const Counters cu = counters_of(run_sweep(w, 1));
  const double untraced_s = elapsed_s(t0);
  const std::uint32_t s1 = tr.begin("sweep.1thread");
  const std::vector<SweepOutcome> r1 = run_sweep(w, 1, &tr);
  tr.end(s1);
  const Counters c1 = counters_of(r1);
  const bool repeat_ok = cn == c1 && cu == c1;
  rep.check(repeat_ok, "exact counters repeat across 3 same-seed sweeps (" +
                           std::to_string(nproc()) + ", 1 and 1 threads)");
  const std::uint64_t failing = check_sweep_outputs(w, r1, opt, rep);

  const double t1 = tr.spans()[s1].duration();
  v["exec.speedup"] = untraced_s / tr.spans()[sn].duration();
  v["mc.ns_per_trial"] = tr.total_s("mc.estimate") * 1e9 / static_cast<double>(c1.trials);
  v["analysis.eval_us"] =
      tr.total_s("analysis.eval") * 1e6 / static_cast<double>(w.cells.size());
  v["trace_overhead_frac"] = 1.0 - untraced_s / t1;

  // Live layers, side-driven with a default deployment of each class: the
  // sweep itself never builds one.
  std::vector<CampaignCell> cells = scenario::cross(
      {model::SystemKind::S0, model::SystemKind::S1, model::SystemKind::S2},
      {net::ScenarioPlan{}});
  const ServiceFrames mix(read_plans(opt.plans_dir + "/service_load"), opt.seed);
  probe_core(tr, v, cells, opt.seed);
  probe_net(tr, v, cells.front().plan, mix, opt.seed);
  probe_codec_crypto(tr, v, rep, mix);

  std::printf("\nattribution, model_sweep at 1 thread (%.4f s): analysis %.1f%%, "
              "Monte-Carlo %.1f%%\n",
              t1, 100 * tr.total_s("analysis.eval") / t1,
              100 * tr.total_s("mc.estimate") / t1);
  print_self_times(tr);
  write_spans(opt, tr);

  rep.attempted = c1.trials;
  rep.failed = repeat_ok ? failing : rep.attempted;
  if (!rep.correct() && rep.failed == 0) rep.failed = rep.attempted;
  emit(rep, v);
  return rep;
}

}  // namespace perfbench
