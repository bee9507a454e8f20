#include "sim/engine.hpp"

#include "common/error.hpp"

namespace orv::sim {

Engine::~Engine() {
  // Drop pending events first so nothing refers into frames while they die,
  // then destroy the root frames newest first: a process only references
  // frames of processes spawned before it (its spawner's state), so their
  // destructors still find that state alive.
  while (!queue_.empty()) queue_.pop();
  while (!roots_.empty()) roots_.pop_back();
}

void Engine::schedule(Time t, std::coroutine_handle<> h) {
  ORV_CHECK(t >= now_, "cannot schedule into the virtual past");
  queue_.push(Scheduled{t, next_seq_++, h});
}

Task<> Engine::run_root(Task<> inner, std::shared_ptr<JoinState> state) {
  try {
    co_await std::move(inner);
  } catch (...) {
    state->exception = std::current_exception();
  }
  state->done = true;
  for (auto waiter : state->waiters) {
    state->engine->note_blocked(-1);
    state->engine->schedule_now(waiter);
  }
  state->waiters.clear();
}

JoinHandle Engine::spawn(Task<> task, std::string name) {
  ORV_REQUIRE(task.valid(), "spawn of an empty task");
  auto state = std::make_shared<JoinState>();
  state->engine = this;
  state->name = std::move(name);
  Task<> wrapper = run_root(std::move(task), state);
  schedule(now_, wrapper.handle());
  roots_.push_back(std::move(wrapper));
  states_.push_back(state);
  return JoinHandle(std::move(state));
}

void Engine::run() {
  ORV_CHECK(!running_, "Engine::run is not reentrant");
  running_ = true;
  while (!queue_.empty()) {
    Scheduled next = queue_.top();
    queue_.pop();
    ORV_CHECK(next.time >= now_, "event queue went backwards");
    now_ = next.time;
    ++events_processed_;
    next.handle.resume();
  }
  running_ = false;

  for (const auto& state : states_) {
    if (state->exception && !state->exception_observed) {
      state->exception_observed = true;
      std::rethrow_exception(state->exception);
    }
  }
  if (blocked_ > 0) {
    std::string who;
    for (const auto& state : states_) {
      if (!state->done) {
        if (!who.empty()) who += ", ";
        who += state->name.empty() ? "<unnamed>" : state->name;
      }
    }
    throw Error("simulation deadlock: " + std::to_string(blocked_) +
                " coroutine(s) blocked with an empty event queue; "
                "unfinished processes: " + who);
  }
}

}  // namespace orv::sim
