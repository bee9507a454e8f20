#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/strings.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"

namespace orv {

namespace {

/// Virtual seconds between monitor ticks (occupancy sampling, rule
/// evaluation, dashboard lines).
constexpr double kMonitorTickSeconds = 0.25;
/// The dashboard's completion rate and latency quantiles cover the last 5
/// virtual seconds, in 20 slots.
constexpr double kDashSlotSeconds = 0.25;
constexpr std::size_t kDashSlots = 20;

/// One generated arrival, before execution.
struct Arrival {
  double time = 0;
  std::size_t client = 0;
  std::size_t mix_index = 0;
  std::size_t index = 0;  // global submission index (assigned post-sort)
};

/// Expands every client's arrival process into one deterministic,
/// time-sorted submission list. Each client gets an independent PRNG
/// stream derived from (seed, client), so adding a client never perturbs
/// another's arrivals.
std::vector<Arrival> generate_arrivals(const WorkloadSpec& spec) {
  std::vector<Arrival> all;
  for (std::size_t c = 0; c < spec.clients.size(); ++c) {
    const WorkloadClientSpec& cl = spec.clients[c];
    ORV_REQUIRE(!cl.mix.empty(), "workload client needs a non-empty mix");
    std::uint64_t sm = spec.seed ^ (0xC11E27ull * (c + 1));
    Xoshiro256StarStar rng(splitmix64(sm));
    double weight_total = 0;
    for (const auto& q : cl.mix) weight_total += q.weight;
    ORV_REQUIRE(weight_total > 0, "workload mix weights must sum > 0");
    auto pick_mix = [&]() {
      double r = rng.uniform01() * weight_total;
      for (std::size_t m = 0; m + 1 < cl.mix.size(); ++m) {
        r -= cl.mix[m].weight;
        if (r < 0) return m;
      }
      return cl.mix.size() - 1;
    };
    if (!cl.trace_arrivals.empty()) {
      for (double t : cl.trace_arrivals) {
        all.push_back({t, c, pick_mix(), 0});
      }
      continue;
    }
    ORV_REQUIRE(cl.poisson_rate > 0,
                "poisson_rate must be positive without a trace");
    double t = 0;
    for (std::size_t k = 0; k < cl.num_queries; ++k) {
      t += -std::log(1.0 - rng.uniform01()) / cl.poisson_rate;
      all.push_back({t, c, pick_mix(), 0});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.client < b.client;
                   });
  for (std::size_t i = 0; i < all.size(); ++i) all[i].index = i;
  return all;
}

/// Live-monitoring state for one run: the rule monitor, node health,
/// flight recorder and dashboard windows, plus the per-node occupancy
/// sampling state (pure busy-time-delta reads). Every run starts from
/// zero, whatever obs context is installed.
struct MonitorRig {
  MonitorRig(std::size_t num_storage, std::size_t num_compute)
      : health(num_storage, num_compute) {}
  ~MonitorRig() {
    if (faults != nullptr) faults->subscribe({});
  }

  obs::Monitor monitor;
  obs::NodeHealthTracker health;
  std::unique_ptr<obs::FlightRecorder> own_flight;
  obs::FlightRecorder* flight = nullptr;
  std::unique_ptr<obs::ScopedFlight> scoped_flight;
  obs::SinkFile dash;
  // The dashboard's completion rate and recent latency quantiles.
  obs::WindowedCounter completed{kDashSlotSeconds, kDashSlots};
  obs::WindowedHistogram latency{obs::duration_bounds(), kDashSlotSeconds,
                                 kDashSlots};

  // Occupancy sampling state (busy-time deltas between ticks).
  double last_tick = 0;
  Cluster::BusyTimes last_busy;

  // Fault events heard from the cluster's injector, which the rig
  // subscribes to for the run; a non-zero count forces an end-of-run dump
  // so no injected fault escapes capture.
  fault::FaultInjector* faults = nullptr;
  std::size_t fault_events = 0;
};

/// Builds the monitor rig for one run, or returns null when monitoring is
/// off. A flight or dash sink forces it on.
std::unique_ptr<MonitorRig> make_monitor_rig(Cluster& cluster,
                                             const WorkloadSpec& spec,
                                             const obs::Sinks& sinks) {
  if (!spec.monitor.enabled && !sinks.monitors_workload()) return nullptr;

  auto rig = std::make_unique<MonitorRig>(cluster.num_storage(),
                                          cluster.num_compute());
  if (spec.monitor.flight != nullptr) {
    rig->flight = spec.monitor.flight;
  } else {
    obs::FlightRecorder::Config fc;
    fc.dump_dir = sinks.flight;
    rig->own_flight = std::make_unique<obs::FlightRecorder>(fc);
    rig->flight = rig->own_flight.get();
  }
  rig->scoped_flight = std::make_unique<obs::ScopedFlight>(*rig->flight);
  MonitorRig* r = rig.get();
  rig->faults = cluster.faults();
  if (rig->faults != nullptr) {
    rig->faults->subscribe([r](const fault::FaultEvent& ev) {
      ++r->fault_events;
      if (ev.kind) {
        r->health.note_fault(*ev.kind == fault::NodeKind::Storage, ev.node,
                             ev.time);
      }
    });
  }
  rig->monitor.set_on_alert([r](const obs::Alert& a) {
    obs::flight_note(a.time, obs::FlightEvent::Kind::Alert, "", a.rule,
                     a.resolved ? 0.0 : 1.0,
                     obs::severity_name(a.severity));
    if (!a.resolved) r->flight->dump("alert:" + a.rule, a.time);
  });

  if (!sinks.dash.empty()) rig->dash = obs::SinkFile(sinks.dash);

  rig->last_tick = cluster.engine().now();
  rig->last_busy = cluster.busy_times();
  return rig;
}

/// Everything the per-query coroutines share.
struct Driver {
  const WorkloadSpec& spec;
  QesSession& session;
  AdmissionController& admission;
  double start = 0;  // engine time when the workload began
  std::vector<QueryOutcome>* outcomes = nullptr;
  MonitorRig* mon = nullptr;

  // Live tallies for the monitor/dashboard (submission-time view).
  std::size_t total = 0;
  std::size_t arrived = 0;
  std::size_t resolved = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
};

void note_outcome(Driver& d, const QueryOutcome& out) {
  if (d.mon == nullptr) return;
  const double t = out.finish;
  d.mon->monitor.note_outcome(t, out.rejected, out.deadline > 0,
                              out.deadline_met);
  if (!out.rejected && !out.failed) {
    d.mon->completed.add(t, 1);
    d.mon->latency.observe(t, out.latency());
  }
}

/// One monitor evaluation point: node health, then the rules.
void monitor_eval(Driver& d, double now) {
  if (d.mon == nullptr) return;
  d.mon->health.update(now);
  d.mon->monitor.evaluate(now, d.admission.queued(),
                          d.mon->health.min_health());
}

/// One dashboard JSON line (JSON-lines stream, ORV_DASH).
void dash_emit(Driver& d, double now) {
  MonitorRig& m = *d.mon;
  if (!m.dash.enabled()) return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("t");
  w.value(now - d.start);
  w.key("offered");
  w.value(static_cast<std::uint64_t>(d.arrived));
  w.key("running");
  w.value(static_cast<std::uint64_t>(d.admission.running()));
  w.key("queued");
  w.value(static_cast<std::uint64_t>(d.admission.queued()));
  w.key("completed");
  w.value(static_cast<std::uint64_t>(d.completed));
  w.key("rejected");
  w.value(static_cast<std::uint64_t>(d.rejected));
  w.key("failed");
  w.value(static_cast<std::uint64_t>(d.failed));
  w.key("completion_rate");
  w.value(m.completed.rate());
  const auto lat = m.latency.merged();
  w.key("p50");
  w.value(lat.p50);
  w.key("p95");
  w.value(lat.p95);
  w.key("p99");
  w.value(lat.p99);
  w.key("alerts");
  w.begin_array();
  for (const std::string& r : m.monitor.active_rules()) w.value(r);
  w.end_array();
  w.key("node_health");
  w.begin_array();
  for (std::size_t i = 0; i < m.health.num_storage(); ++i) {
    w.value(m.health.health(true, i));
  }
  for (std::size_t j = 0; j < m.health.num_compute(); ++j) {
    w.value(m.health.health(false, j));
  }
  w.end_array();
  w.end_object();
  m.dash.append(w.take() + '\n');
}

/// Per-node occupancy sampling: pure busy-time-delta reads, feeding the
/// health tracker's busy fractions. Storage occupancy comes from the
/// node's NIC (always per-node, even under a shared filesystem), compute
/// occupancy from the node's CPU.
void sample_occupancy(Driver& d, Cluster& cluster, double now) {
  MonitorRig& m = *d.mon;
  const double dt = now - m.last_tick;
  if (dt <= 0) return;
  Cluster::BusyTimes busy = cluster.busy_times();
  for (std::size_t i = 0; i < busy.storage_nic.size(); ++i) {
    m.health.observe_occupancy(
        true, i, (busy.storage_nic[i] - m.last_busy.storage_nic[i]) / dt);
  }
  for (std::size_t j = 0; j < busy.compute_cpu.size(); ++j) {
    m.health.observe_occupancy(
        false, j, (busy.compute_cpu[j] - m.last_busy.compute_cpu[j]) / dt);
  }
  m.last_busy = std::move(busy);
  m.last_tick = now;
}

/// The monitor tick: sleeps on the virtual clock, samples occupancy,
/// evaluates rules, emits a dashboard line. Every input is a pure read,
/// so the tick never perturbs query execution; the loop exits once all
/// outcomes resolved so the engine run still drains.
sim::Task<> monitor_tick(Driver& d, Cluster& cluster) {
  sim::Engine& engine = cluster.engine();
  while (d.resolved < d.total) {
    co_await engine.sleep(kMonitorTickSeconds);
    const double now = engine.now();
    sample_occupancy(d, cluster, now);
    monitor_eval(d, now);
    dash_emit(d, now);
  }
}

/// One query, arrival to outcome. The coroutine never throws: rejection,
/// execution failure and success all resolve into the outcome record, so
/// the engine run always drains cleanly.
sim::Task<> one_query(Driver& d, Arrival a) {
  sim::Engine& engine = d.session.cluster().engine();
  co_await engine.wait_until(d.start + a.time);

  const WorkloadQuerySpec& qs = d.spec.clients[a.client].mix[a.mix_index];
  QueryOutcome& out = (*d.outcomes)[a.index];
  out.client = a.client;
  out.index = a.index;
  out.arrival = engine.now();
  out.deadline = qs.deadline;
  ++d.arrived;

  const bool admitted = co_await d.admission.admit();
  if (!admitted) {
    out.rejected = true;
    out.deadline_met = false;
    out.admit_time = out.finish = engine.now();
    ++d.resolved;
    ++d.rejected;
    note_outcome(d, out);
    monitor_eval(d, engine.now());
    co_return;
  }
  out.admit_time = engine.now();

  QesSession::Outcome so;
  co_await d.session.run_query(qs.query, d.spec.base_options, &so, qs.force);
  out.finish = engine.now();
  d.admission.release();

  out.algorithm = algorithm_name(so.algorithm);
  out.predicted = so.plan.predicted_seconds();
  if (so.failed) {
    out.failed = true;
    out.error = so.error;
    out.deadline_met = false;
    ++d.failed;
  } else {
    out.result_tuples = so.result.result_tuples;
    out.fingerprint = so.result.result_fingerprint;
    out.degraded = so.result.degraded;
    out.deadline_met = qs.deadline <= 0 || out.latency() <= qs.deadline;
    ++d.completed;
  }
  ++d.resolved;
  note_outcome(d, out);
  if (d.mon != nullptr) {
    // Straggler deviation from this query's per-node busy breakdown.
    if (!so.failed && !so.result.node_work.empty()) {
      std::vector<double> busy;
      for (const auto& nw : so.result.node_work) {
        if (nw.node >= busy.size()) busy.resize(nw.node + 1, 0.0);
        busy[nw.node] += nw.busy_seconds;
      }
      d.mon->health.observe_query_work(busy);
    }
    monitor_eval(d, engine.now());
    // Degraded or failed queries are exactly the "something went wrong"
    // moments the flight recorder exists for.
    if ((out.failed || out.degraded) && d.mon->flight != nullptr) {
      d.mon->flight->dump(strformat("query-%s:%zu",
                                    out.failed ? "failed" : "degraded",
                                    out.index),
                          engine.now());
    }
  }
}

}  // namespace

std::string WorkloadResult::to_string() const {
  return strformat(
      "workload: %zu submitted, %zu completed (%zu degraded), %zu rejected, "
      "%zu failed, %zu deadlines missed | latency p50=%.3fs p95=%.3fs "
      "p99=%.3fs | queue p99=%.3fs | makespan=%.3fs throughput=%.3f q/s",
      submitted, completed, degraded, rejected, failed, deadlines_missed,
      p50_latency, p95_latency, p99_latency, p99_queue_wait, makespan,
      throughput);
}

WorkloadResult run_workload(Cluster& cluster, BdsService& bds,
                            const MetaDataService& meta,
                            const WorkloadSpec& spec,
                            const obs::Sinks& sinks) {
  sim::Engine& engine = cluster.engine();
  const std::vector<Arrival> arrivals = generate_arrivals(spec);

  QesSession session(cluster, bds, meta, spec.session);
  AdmissionController admission(engine, spec.admission);
  std::unique_ptr<MonitorRig> rig = make_monitor_rig(cluster, spec, sinks);

  WorkloadResult result;
  result.outcomes.resize(arrivals.size());
  Driver driver{spec, session, admission, engine.now(),
                &result.outcomes};
  driver.mon = rig.get();
  driver.total = arrivals.size();
  for (const Arrival& a : arrivals) {
    engine.spawn(one_query(driver, a),
                 strformat("wl-q%zu-c%zu", a.index, a.client));
  }
  if (rig != nullptr && !arrivals.empty()) {
    engine.spawn(monitor_tick(driver, cluster), "wl-monitor");
  }
  engine.run();

  if (rig != nullptr) {
    const double now = engine.now();
    sample_occupancy(driver, cluster, now);
    monitor_eval(driver, now);
    dash_emit(driver, now);
    // Guarantee every injected fault (and every page) is captured in at
    // least one dump, even when the triggering query itself completed
    // cleanly after retries.
    if (rig->fault_events > 0 || rig->monitor.fired_count() > 0) {
      rig->flight->dump("run-end", now);
    }
    result.alerts = rig->monitor.alerts();
    for (std::size_t i = 0; i < rig->health.num_storage(); ++i) {
      result.storage_health.push_back(rig->health.health(true, i));
    }
    for (std::size_t j = 0; j < rig->health.num_compute(); ++j) {
      result.compute_health.push_back(rig->health.health(false, j));
    }
    result.flight_dumps = rig->flight->dumps().size();
    result.dash_lines = rig->dash.records();
  }

  result.submitted = arrivals.size();
  std::vector<double> latencies;
  std::vector<double> waits;
  double last_finish = driver.start;
  for (const QueryOutcome& out : result.outcomes) {
    if (out.rejected) {
      ++result.rejected;
      continue;
    }
    if (out.failed) {
      ++result.failed;
      continue;
    }
    ++result.completed;
    if (out.degraded) ++result.degraded;
    if (out.deadline > 0 && !out.deadline_met) ++result.deadlines_missed;
    latencies.push_back(out.latency());
    waits.push_back(out.queue_wait());
    result.mean_latency += out.latency();
    result.mean_queue_wait += out.queue_wait();
    last_finish = std::max(last_finish, out.finish);
  }
  if (result.completed > 0) {
    const auto n = static_cast<double>(result.completed);
    result.mean_latency /= n;
    result.mean_queue_wait /= n;
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(waits.begin(), waits.end());
  result.p50_latency = obs::exact_quantile(latencies, 0.50);
  result.p95_latency = obs::exact_quantile(latencies, 0.95);
  result.p99_latency = obs::exact_quantile(latencies, 0.99);
  result.p99_queue_wait = obs::exact_quantile(waits, 0.99);
  result.makespan = last_finish - driver.start;
  result.throughput = result.makespan > 0
                          ? static_cast<double>(result.completed) /
                                result.makespan
                          : 0;
  result.cache = session.cache_totals();
  return result;
}

}  // namespace orv
