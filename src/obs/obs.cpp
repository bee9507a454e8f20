#include "obs/obs.hpp"

namespace orv::obs {

std::atomic<ObsContext*> g_context{nullptr};

void install(ObsContext* ctx) {
  g_context.store(ctx, std::memory_order_release);
}

void uninstall() { g_context.store(nullptr, std::memory_order_release); }

void ObsContext::add_plan_validation(PlanValidation pv) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_validations_.push_back(std::move(pv));
}

std::vector<PlanValidation> ObsContext::plan_validations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_validations_;
}

void ObsContext::add_sample(std::string_view series, double t, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : series_) {
    if (s.name == series) {
      s.points.emplace_back(t, v);
      return;
    }
  }
  TimeSeries ts;
  ts.name = std::string(series);
  ts.points.emplace_back(t, v);
  series_.push_back(std::move(ts));
}

std::vector<TimeSeries> ObsContext::time_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_;
}

}  // namespace orv::obs
