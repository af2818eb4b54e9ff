#include "scenario/plan_codec.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace fortress::scenario {

namespace {

using json::ObjectReader;
using json::ParseError;
using json::Value;
using json::Writer;

[[noreturn]] void codec_fail(const std::string& what) {
  throw ParseError(what);
}

// --- enum <-> string tables --------------------------------------------------

const char* to_string(net::LatencySpec::Kind k) {
  switch (k) {
    case net::LatencySpec::Kind::Fixed: return "fixed";
    case net::LatencySpec::Kind::Uniform: return "uniform";
    case net::LatencySpec::Kind::Exponential: return "exponential";
  }
  return "?";
}

net::LatencySpec::Kind latency_kind_from(const std::string& s,
                                         const std::string& ctx) {
  if (s == "fixed") return net::LatencySpec::Kind::Fixed;
  if (s == "uniform") return net::LatencySpec::Kind::Uniform;
  if (s == "exponential") return net::LatencySpec::Kind::Exponential;
  codec_fail(ctx + ": unknown latency kind \"" + s +
             "\" (want fixed|uniform|exponential)");
}

const char* to_string(net::OverloadPolicy p) {
  switch (p) {
    case net::OverloadPolicy::DropTail: return "drop_tail";
    case net::OverloadPolicy::ShedNewest: return "shed_newest";
    case net::OverloadPolicy::Backpressure: return "backpressure";
    case net::OverloadPolicy::DegradeUnsigned: return "degrade_unsigned";
  }
  return "?";
}

net::OverloadPolicy policy_from(const std::string& s, const std::string& ctx) {
  if (s == "drop_tail") return net::OverloadPolicy::DropTail;
  if (s == "shed_newest") return net::OverloadPolicy::ShedNewest;
  if (s == "backpressure") return net::OverloadPolicy::Backpressure;
  if (s == "degrade_unsigned") return net::OverloadPolicy::DegradeUnsigned;
  codec_fail(ctx + ": unknown overload policy \"" + s +
             "\" (want drop_tail|shed_newest|backpressure|degrade_unsigned)");
}

const char* to_string(net::FaultEvent::Target t) {
  return t == net::FaultEvent::Target::Server ? "server" : "proxy";
}

net::FaultEvent::Target fault_target_from(const std::string& s,
                                          const std::string& ctx) {
  if (s == "server") return net::FaultEvent::Target::Server;
  if (s == "proxy") return net::FaultEvent::Target::Proxy;
  codec_fail(ctx + ": unknown fault target \"" + s + "\" (want server|proxy)");
}

const char* to_string(net::FaultEvent::Kind k) {
  return k == net::FaultEvent::Kind::Recover ? "recover" : "crash";
}

net::FaultEvent::Kind fault_kind_from(const std::string& s,
                                      const std::string& ctx) {
  if (s == "recover") return net::FaultEvent::Kind::Recover;
  if (s == "crash") return net::FaultEvent::Kind::Crash;
  codec_fail(ctx + ": unknown fault kind \"" + s + "\" (want recover|crash)");
}

// --- encode ------------------------------------------------------------------

void write_latency(Writer& w, const net::LatencySpec& l) {
  w.begin_object();
  w.key("kind");
  w.value(std::string_view(to_string(l.kind)));
  w.key("a");
  w.value(l.a);
  w.key("b");
  w.value(l.b);
  w.end_object();
}

void write_plan(Writer& w, const net::ScenarioPlan& p) {
  w.begin_object();
  w.key("name");
  w.value(std::string_view(p.name));

  w.key("latency");
  write_latency(w, p.latency);
  w.key("drop_probability");
  w.value(p.drop_probability);
  w.key("duplicate_probability");
  w.value(p.duplicate_probability);
  w.key("partitions");
  w.begin_array();
  for (const net::PartitionWindow& win : p.partitions) {
    w.begin_object();
    w.key("start");
    w.value(win.start);
    w.key("end");
    w.value(win.end);
    w.key("island");
    w.begin_array();
    for (const net::Address& a : win.island) w.value(std::string_view(a));
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("faults");
  w.begin_array();
  for (const net::FaultEvent& f : p.faults) {
    w.begin_object();
    w.key("target");
    w.value(std::string_view(to_string(f.target)));
    w.key("index");
    w.value(f.index);
    w.key("at");
    w.value(f.at);
    w.key("kind");
    w.value(std::string_view(to_string(f.kind)));
    w.end_object();
  }
  w.end_array();

  w.key("attack");
  w.begin_object();
  w.key("enabled");
  w.value(p.attack.enabled);
  w.key("direct_enabled");
  w.value(p.attack.direct_enabled);
  w.key("probes_per_step");
  w.value(p.attack.probes_per_step);
  w.key("indirect_fraction");
  w.value(p.attack.indirect_fraction);
  w.key("start_time");
  w.value(p.attack.start_time);
  w.key("sybil_identities");
  w.value(static_cast<std::uint64_t>(p.attack.sybil_identities));
  w.end_object();

  w.key("keyspace");
  w.value(p.keyspace);
  w.key("step_duration");
  w.value(p.step_duration);
  w.key("rerandomize");
  w.value(p.rerandomize);
  w.key("n_servers");
  w.value(p.n_servers);
  w.key("n_proxies");
  w.value(p.n_proxies);
  w.key("proxy_blacklist");
  w.value(p.proxy_blacklist);
  w.key("detection_threshold");
  w.value(static_cast<std::uint64_t>(p.detection_threshold));
  w.key("detection_window");
  w.value(p.detection_window);
  w.key("horizon_steps");
  w.value(p.horizon_steps);

  w.key("service");
  w.begin_object();
  w.key("enabled");
  w.value(p.service.enabled);
  w.key("request_service");
  write_latency(w, p.service.request_service);
  w.key("response_service");
  write_latency(w, p.service.response_service);
  w.key("other_service");
  write_latency(w, p.service.other_service);
  w.key("verify_cost");
  w.value(p.service.verify_cost);
  w.key("queue_capacity");
  w.value(static_cast<std::uint64_t>(p.service.queue_capacity));
  w.key("policy");
  w.value(std::string_view(to_string(p.service.policy)));
  w.key("degrade_watermark");
  w.value(static_cast<std::uint64_t>(p.service.degrade_watermark));
  w.key("pushback_delay");
  w.value(p.service.pushback_delay);
  w.key("queue_control");
  w.value(p.service.queue_control);
  w.end_object();

  w.key("traffic");
  w.begin_object();
  w.key("schedule");
  w.begin_array();
  for (const net::RatePhase& ph : p.traffic.schedule) {
    w.begin_object();
    w.key("at");
    w.value(ph.at);
    w.key("rate");
    w.value(ph.rate);
    w.end_object();
  }
  w.end_array();
  w.key("clients");
  w.value(p.traffic.clients);
  w.key("write_fraction");
  w.value(p.traffic.write_fraction);
  w.key("distinct_keys");
  w.value(static_cast<std::uint64_t>(p.traffic.distinct_keys));
  w.key("poisson");
  w.value(p.traffic.poisson);
  w.key("retry_base");
  w.value(p.traffic.retry_base);
  w.key("retry_multiplier");
  w.value(p.traffic.retry_multiplier);
  w.key("retry_cap");
  w.value(p.traffic.retry_cap);
  w.key("retry_jitter");
  w.value(p.traffic.retry_jitter);
  w.key("retry_budget");
  w.value(static_cast<std::uint64_t>(p.traffic.retry_budget));
  w.key("request_deadline");
  w.value(p.traffic.request_deadline);
  w.end_object();

  w.key("population");
  w.begin_object();
  w.key("clients");
  w.value(p.population.clients);
  w.key("cohort_size");
  w.value(static_cast<std::uint64_t>(p.population.cohort_size));
  w.key("request_rate");
  w.value(p.population.request_rate);
  w.key("write_fraction");
  w.value(p.population.write_fraction);
  w.key("distinct_keys");
  w.value(static_cast<std::uint64_t>(p.population.distinct_keys));
  w.key("tick_interval");
  w.value(p.population.tick_interval);
  w.key("retry_base");
  w.value(p.population.retry_base);
  w.key("retry_multiplier");
  w.value(p.population.retry_multiplier);
  w.key("retry_cap");
  w.value(p.population.retry_cap);
  w.key("retry_budget");
  w.value(static_cast<std::uint64_t>(p.population.retry_budget));
  w.key("request_deadline");
  w.value(p.population.request_deadline);
  w.end_object();

  w.end_object();
}

// --- decode ------------------------------------------------------------------

net::LatencySpec read_latency(const Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  net::LatencySpec l;
  l.kind = latency_kind_from(r.str("kind"), r.member_ctx("kind"));
  l.a = r.dbl("a");
  l.b = r.dbl("b");
  r.done();
  return l;
}

net::ScenarioPlan read_plan(const Value& root) {
  ObjectReader r(root, "plan");
  net::ScenarioPlan p;
  p.name = r.str("name");

  p.latency = read_latency(r.required("latency"), r.member_ctx("latency"));
  p.drop_probability = r.dbl("drop_probability");
  p.duplicate_probability = r.dbl("duplicate_probability");

  {
    const std::string ctx = r.member_ctx("partitions");
    const auto& arr = r.required("partitions").as_array(ctx);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      ObjectReader pr(arr[i], ctx + "[" + std::to_string(i) + "]");
      net::PartitionWindow win;
      win.start = pr.dbl("start");
      win.end = pr.dbl("end");
      const std::string ictx = pr.member_ctx("island");
      for (const Value& a : pr.required("island").as_array(ictx)) {
        win.island.push_back(a.as_string(ictx + " element"));
      }
      pr.done();
      p.partitions.push_back(std::move(win));
    }
  }

  {
    const std::string ctx = r.member_ctx("faults");
    const auto& arr = r.required("faults").as_array(ctx);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      ObjectReader fr(arr[i], ctx + "[" + std::to_string(i) + "]");
      net::FaultEvent f;
      f.target = fault_target_from(fr.str("target"), fr.member_ctx("target"));
      f.index = fr.int32("index");
      f.at = fr.dbl("at");
      f.kind = fault_kind_from(fr.str("kind"), fr.member_ctx("kind"));
      fr.done();
      p.faults.push_back(f);
    }
  }

  {
    ObjectReader ar(r.required("attack"), r.member_ctx("attack"));
    p.attack.enabled = ar.boolean("enabled");
    p.attack.direct_enabled = ar.boolean("direct_enabled");
    p.attack.probes_per_step = ar.dbl("probes_per_step");
    p.attack.indirect_fraction = ar.dbl("indirect_fraction");
    p.attack.start_time = ar.dbl("start_time");
    p.attack.sybil_identities = ar.u32("sybil_identities");
    ar.done();
  }

  p.keyspace = r.u64("keyspace");
  p.step_duration = r.dbl("step_duration");
  p.rerandomize = r.boolean("rerandomize");
  p.n_servers = r.int32("n_servers");
  p.n_proxies = r.int32("n_proxies");
  p.proxy_blacklist = r.boolean("proxy_blacklist");
  p.detection_threshold = r.u32("detection_threshold");
  p.detection_window = r.dbl("detection_window");
  p.horizon_steps = r.u64("horizon_steps");

  {
    ObjectReader sr(r.required("service"), r.member_ctx("service"));
    p.service.enabled = sr.boolean("enabled");
    p.service.request_service = read_latency(sr.required("request_service"),
                                             sr.member_ctx("request_service"));
    p.service.response_service = read_latency(
        sr.required("response_service"), sr.member_ctx("response_service"));
    p.service.other_service = read_latency(sr.required("other_service"),
                                           sr.member_ctx("other_service"));
    p.service.verify_cost = sr.dbl("verify_cost");
    p.service.queue_capacity = sr.u32("queue_capacity");
    p.service.policy = policy_from(sr.str("policy"), sr.member_ctx("policy"));
    p.service.degrade_watermark = sr.u32("degrade_watermark");
    p.service.pushback_delay = sr.dbl("pushback_delay");
    p.service.queue_control = sr.boolean("queue_control");
    sr.done();
  }

  {
    ObjectReader tr(r.required("traffic"), r.member_ctx("traffic"));
    const std::string sctx = tr.member_ctx("schedule");
    const auto& arr = tr.required("schedule").as_array(sctx);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      ObjectReader ph(arr[i], sctx + "[" + std::to_string(i) + "]");
      net::RatePhase phase;
      phase.at = ph.dbl("at");
      phase.rate = ph.dbl("rate");
      ph.done();
      p.traffic.schedule.push_back(phase);
    }
    p.traffic.clients = tr.int32("clients");
    p.traffic.write_fraction = tr.dbl("write_fraction");
    p.traffic.distinct_keys = tr.u32("distinct_keys");
    p.traffic.poisson = tr.boolean("poisson");
    p.traffic.retry_base = tr.dbl("retry_base");
    p.traffic.retry_multiplier = tr.dbl("retry_multiplier");
    p.traffic.retry_cap = tr.dbl("retry_cap");
    p.traffic.retry_jitter = tr.dbl("retry_jitter");
    p.traffic.retry_budget = tr.u32("retry_budget");
    p.traffic.request_deadline = tr.dbl("request_deadline");
    tr.done();
  }

  {
    ObjectReader pr(r.required("population"), r.member_ctx("population"));
    p.population.clients = pr.u64("clients");
    p.population.cohort_size = pr.u32("cohort_size");
    p.population.request_rate = pr.dbl("request_rate");
    p.population.write_fraction = pr.dbl("write_fraction");
    p.population.distinct_keys = pr.u32("distinct_keys");
    p.population.tick_interval = pr.dbl("tick_interval");
    p.population.retry_base = pr.dbl("retry_base");
    p.population.retry_multiplier = pr.dbl("retry_multiplier");
    p.population.retry_cap = pr.dbl("retry_cap");
    p.population.retry_budget = pr.u32("retry_budget");
    p.population.request_deadline = pr.dbl("request_deadline");
    pr.done();
  }

  r.done();
  return p;
}

}  // namespace

std::string plan_to_json(const net::ScenarioPlan& plan) {
  Writer w(/*compact=*/false);
  write_plan(w, plan);
  return w.str();
}

std::string plan_to_json_compact(const net::ScenarioPlan& plan) {
  Writer w(/*compact=*/true);
  write_plan(w, plan);
  return w.str();
}

net::ScenarioPlan plan_from_json(std::string_view text) {
  Value root = json::parse(text);
  net::ScenarioPlan plan = read_plan(root);
  plan.validate();
  return plan;
}

std::uint64_t plan_digest(const net::ScenarioPlan& plan) {
  return json::fnv1a64(plan_to_json_compact(plan));
}

std::string plan_digest_string(const net::ScenarioPlan& plan) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016llx",
                static_cast<unsigned long long>(plan_digest(plan)));
  return buf;
}

}  // namespace fortress::scenario
