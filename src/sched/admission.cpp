#include "sched/admission.hpp"

#include "common/error.hpp"

namespace orv {

AdmissionController::AdmissionController(sim::Engine& engine,
                                         AdmissionConfig config)
    : engine_(engine), config_(config) {}

sim::Task<bool> AdmissionController::admit() {
  if (config_.max_running == 0 || running_ < config_.max_running) {
    ++running_;
    ++admitted_;
    co_return true;
  }
  if (config_.max_queued > 0 && waiting_.size() >= config_.max_queued) {
    ++rejected_;
    co_return false;
  }
  waiting_.push_back(std::make_unique<sim::Event>(engine_));
  sim::Event& ev = *waiting_.back();
  co_await ev.wait();
  // The releasing query transferred its slot (running_ stays constant
  // across the handoff) and popped this entry before setting the event.
  ++admitted_;
  co_return true;
}

void AdmissionController::release() {
  ORV_CHECK(running_ > 0, "admission release without a running query");
  if (waiting_.empty()) {
    --running_;
    return;
  }
  // Hand the slot straight to the oldest waiter: running_ is unchanged.
  // set() hands every waiter to the engine's queue and the resumed
  // coroutine never touches the Event again, so it may die right here.
  std::unique_ptr<sim::Event> ev = std::move(waiting_.front());
  waiting_.pop_front();
  ev->set();
}

}  // namespace orv
