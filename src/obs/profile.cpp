#include "obs/profile.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "obs/json.hpp"

namespace orv::obs {

std::vector<StageTime> aggregate_stages(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string_view, std::vector<double>> durations;
  for (const auto& span : spans) {
    if (span.closed()) durations[span.name].push_back(span.duration());
  }
  std::vector<StageTime> out;
  out.reserve(durations.size());
  for (auto& [name, d] : durations) {
    StageTime& st = out.emplace_back();
    st.name = std::string(name);
    for (const double v : d) st.seconds += v;
    st.count = d.size();
    std::sort(d.begin(), d.end());
    st.p50 = exact_quantile(d, 0.50);
    st.p95 = exact_quantile(d, 0.95);
    st.p99 = exact_quantile(d, 0.99);
  }
  std::sort(out.begin(), out.end(), [](const StageTime& a, const StageTime& b) {
    return a.seconds > b.seconds;
  });
  return out;
}

ExecutionProfile build_profile(const ObsSnapshot& snap, std::string query,
                               std::string algorithm, double elapsed) {
  ExecutionProfile p;
  p.query = std::move(query);
  p.algorithm = std::move(algorithm);
  p.elapsed = elapsed;
  p.stages = aggregate_stages(snap.spans);
  p.counters = snap.metrics.counters;
  if (!snap.plans.empty()) {
    p.has_plan = true;
    p.plan = snap.plans.back();
  }
  return p;
}

ProfileStream::ProfileStream() {
  w_.begin_object();
  w_.key("schema_version");
  w_.value(kObsSchemaVersion);
  w_.key("profiles");
  w_.begin_array();
}

std::string ExecutionProfile::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version");
  w.value(kObsSchemaVersion);
  w.key("query");
  w.value(query);
  w.key("algorithm");
  w.value(algorithm);
  w.key("elapsed");
  w.value(elapsed);
  w.key("stages");
  w.begin_array();
  for (const auto& st : stages) {
    w.begin_object();
    w.key("name");
    w.value(st.name);
    w.key("seconds");
    w.value(st.seconds);
    w.key("count");
    w.value(st.count);
    w.key("p50");
    w.value(st.p50);
    w.key("p95");
    w.value(st.p95);
    w.key("p99");
    w.value(st.p99);
    w.end_object();
  }
  w.end_array();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : counters) {
    w.key(name);
    w.value(v);
  }
  w.end_object();
  if (has_plan) {
    w.key("plan");
    w.begin_object();
    w.key("chosen");
    w.value(plan.chosen);
    w.key("executed");
    w.value(plan.executed);
    w.key("predicted_ij");
    w.value(plan.predicted_ij);
    w.key("predicted_gh");
    w.value(plan.predicted_gh);
    w.key("predicted");
    w.value(plan.predicted);
    w.key("measured");
    w.value(plan.measured);
    w.key("error_ratio");
    w.value(plan.error_ratio());
    if (plan.calibrated) {
      w.key("calibrated");
      w.value(true);
      w.key("predicted_prior");
      w.value(plan.predicted_prior);
      w.key("prior_error_ratio");
      w.value(plan.prior_error_ratio());
    }
    if (!plan.stages.empty()) {
      w.key("stages");
      w.begin_array();
      for (const auto& sa : plan.stages) {
        w.begin_object();
        w.key("stage");
        w.value(sa.stage);
        w.key("predicted");
        w.value(sa.predicted);
        w.key("measured");
        w.value(sa.measured);
        w.key("error_ratio");
        w.value(sa.error_ratio());
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  if (has_diagnosis) {
    w.key("diagnosis");
    w.raw(diagnosis.to_json());
  }
  w.end_object();
  return w.str();
}

}  // namespace orv::obs
