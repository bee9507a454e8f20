#include "obs/profile.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"

namespace orv::obs {

std::vector<StageTime> aggregate_stages(const ObsContext& ctx) {
  std::map<std::string, StageTime> by_name;
  for (const auto& span : ctx.tracer.snapshot()) {
    if (!span.closed()) continue;
    StageTime& st = by_name[span.name];
    st.name = span.name;
    st.seconds += span.duration();
    ++st.count;
  }
  const MetricsSnapshot snap = ctx.registry.snapshot();
  for (const auto& h : snap.histograms) {
    // StageScope records durations under "<name>_seconds".
    constexpr std::string_view kSuffix = "_seconds";
    if (h.name.size() <= kSuffix.size() ||
        h.name.compare(h.name.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) != 0) {
      continue;
    }
    const auto it =
        by_name.find(h.name.substr(0, h.name.size() - kSuffix.size()));
    if (it == by_name.end()) continue;
    it->second.p50 = h.p50;
    it->second.p95 = h.p95;
    it->second.p99 = h.p99;
  }
  std::vector<StageTime> out;
  out.reserve(by_name.size());
  for (auto& [_, st] : by_name) out.push_back(std::move(st));
  std::sort(out.begin(), out.end(), [](const StageTime& a, const StageTime& b) {
    return a.seconds > b.seconds;
  });
  return out;
}

ExecutionProfile build_profile(const ObsContext& ctx, std::string query,
                               std::string algorithm, double elapsed) {
  ExecutionProfile p;
  p.query = std::move(query);
  p.algorithm = std::move(algorithm);
  p.elapsed = elapsed;
  p.stages = aggregate_stages(ctx);
  p.counters = ctx.registry.snapshot().counters;
  const auto validations = ctx.plan_validations();
  if (!validations.empty()) {
    p.has_plan = true;
    p.plan = validations.back();
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
