#include "sched/admission.hpp"

#include "common/error.hpp"

namespace orv {

const char* admission_policy_name(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::Fifo:
      return "fifo";
    case AdmissionPolicy::ShortestCostFirst:
      return "sjf";
    case AdmissionPolicy::FairShare:
      return "fair";
  }
  return "?";
}

AdmissionController::AdmissionController(sim::Engine& engine,
                                         AdmissionConfig config)
    : engine_(engine), config_(config) {}

sim::Task<bool> AdmissionController::admit(std::size_t client,
                                           double predicted_cost) {
  if (client >= service_.size()) service_.resize(client + 1, 0.0);
  if (config_.max_running == 0 || running_ < config_.max_running) {
    ++running_;
    ++admitted_;
    co_return true;
  }
  if (config_.max_queued > 0 && waiting_.size() >= config_.max_queued) {
    ++rejected_;
    co_return false;
  }
  Waiter w;
  w.client = client;
  w.predicted = predicted_cost;
  w.seq = next_seq_++;
  w.granted = std::make_unique<sim::Event>(engine_);
  sim::Event& ev = *w.granted;
  waiting_.push_back(std::move(w));
  co_await ev.wait();
  // The releasing query transferred its slot (running_ stays constant
  // across the handoff) and erased this entry before setting the event.
  ++admitted_;
  co_return true;
}

std::size_t AdmissionController::pick_next() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < waiting_.size(); ++i) {
    const Waiter& a = waiting_[i];
    const Waiter& b = waiting_[best];
    bool better = false;
    switch (config_.policy) {
      case AdmissionPolicy::Fifo:
        better = a.seq < b.seq;
        break;
      case AdmissionPolicy::ShortestCostFirst:
        better = a.predicted < b.predicted ||
                 (a.predicted == b.predicted && a.seq < b.seq);
        break;
      case AdmissionPolicy::FairShare: {
        const double sa = service_[a.client];
        const double sb = service_[b.client];
        better = sa < sb || (sa == sb && a.seq < b.seq);
        break;
      }
    }
    if (better) best = i;
  }
  return best;
}

void AdmissionController::grant(std::size_t idx) {
  std::unique_ptr<sim::Event> ev = std::move(waiting_[idx].granted);
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(idx));
  // set() hands every waiter to the engine's queue and the resumed
  // coroutines never touch the Event again, so it may die right here.
  ev->set();
}

void AdmissionController::release(std::size_t client, double service_seconds) {
  ORV_CHECK(running_ > 0, "admission release without a running query");
  if (client >= service_.size()) service_.resize(client + 1, 0.0);
  service_[client] += service_seconds;
  if (!waiting_.empty()) {
    // Hand the slot straight to the chosen waiter: running_ is unchanged.
    grant(pick_next());
    return;
  }
  --running_;
}

double AdmissionController::client_service(std::size_t client) const {
  return client < service_.size() ? service_[client] : 0.0;
}

}  // namespace orv
