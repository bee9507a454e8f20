#include "net/aggregator.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace orv::net {

const char* flush_cause_name(FlushCause c) {
  switch (c) {
    case FlushCause::Size: return "size";
    case FlushCause::Timeout: return "timeout";
    case FlushCause::Drain: return "drain";
  }
  return "size";
}

MessageAggregator::MessageAggregator(Cluster& cluster, AggregatorConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  ORV_REQUIRE(cfg_.flush_batches >= 1, "flush_batches must be at least 1");
  flows_.resize(cluster_.num_storage() * cluster_.num_compute());
  src_pending_.resize(cluster_.num_storage(), 0);
  src_waiters_.resize(cluster_.num_storage());
}

void MessageAggregator::post(std::size_t src, std::size_t dst, double bytes,
                             obs::SpanId sender_span,
                             std::function<sim::Task<>()> deliver) {
  ORV_REQUIRE(src < cluster_.num_storage() && dst < cluster_.num_compute(),
              "aggregator flow endpoints out of range");
  Flow& flow = flows_[flow_index(src, dst)];
  flow.buffer.push_back(
      Pending{src, dst, bytes, sender_span, std::move(deliver)});
  flow.buffered_bytes += bytes;
  ++stats_.messages_posted;
  stats_.bytes_deferred += bytes;
  ++src_pending_[src];
  if (auto* ctx = obs::context()) {
    ctx->registry.counter("net.agg.bytes_deferred")
        .add(static_cast<std::uint64_t>(bytes));
  }
  if (flow.buffer.size() >= cfg_.flush_batches) {
    flush_flow(src, dst, FlushCause::Size);
    return;
  }
  if (!flow.timer_armed && cfg_.flush_timeout > 0) {
    flow.timer_armed = true;
    cluster_.engine().spawn(timeout_timer(src, dst, flow.generation),
                            strformat("net-agg-timer-%zu-%zu", src, dst));
  }
}

void MessageAggregator::flush_flow(std::size_t src, std::size_t dst,
                                   FlushCause cause) {
  Flow& flow = flows_[flow_index(src, dst)];
  if (flow.buffer.empty()) return;
  std::vector<Pending> messages = std::move(flow.buffer);
  const double frame_bytes = flow.buffered_bytes;
  flow.buffer.clear();
  flow.buffered_bytes = 0;
  ++flow.generation;  // retires any armed timeout timer
  flow.timer_armed = false;

  switch (cause) {
    case FlushCause::Size: ++stats_.flush_size; break;
    case FlushCause::Timeout: ++stats_.flush_timeout; break;
    case FlushCause::Drain: ++stats_.flush_drain; break;
  }
  if (auto* ctx = obs::context()) {
    ctx->registry
        .counter(strformat("net.agg.flush_%s", flush_cause_name(cause)))
        .add(1);
  }

  // Chain the frame behind the flow's previous one so constituents are
  // delivered in post order within the flow.
  auto done = std::make_shared<sim::Event>(cluster_.engine());
  auto prev = std::exchange(flow.prev_frame_done, done);
  cluster_.engine().spawn(
      send_frame(src, dst, std::move(messages), frame_bytes, cause,
                 std::move(prev), std::move(done)),
      strformat("net-agg-frame-%zu-%zu", src, dst));
}

sim::Task<> MessageAggregator::send_frame(
    std::size_t src, std::size_t dst, std::vector<Pending> messages,
    double frame_bytes, FlushCause cause, std::shared_ptr<sim::Event> prev,
    std::shared_ptr<sim::Event> done) {
  if (prev) co_await prev->wait();

  auto* ctx = obs::context();
  obs::StageScope flush_span(ctx, "net.agg.flush");
  flush_span.tag("src", static_cast<std::uint64_t>(src));
  flush_span.tag("dst", static_cast<std::uint64_t>(dst));
  flush_span.tag("cause", std::string(flush_cause_name(cause)));
  flush_span.tag("messages", static_cast<std::uint64_t>(messages.size()));
  if (ctx) {
    // Flow links from the frame to every constituent logical message's
    // send span: the trace DAG shows exactly which batches shared a frame.
    for (const Pending& m : messages) {
      if (m.sender_span) ctx->tracer.link(flush_span.id(), m.sender_span);
    }
    ctx->registry.counter("net.agg.frames").add(1);
    ctx->registry.counter("net.agg.messages").add(messages.size());
    ctx->registry.counter("net.agg.frame_bytes")
        .add(static_cast<std::uint64_t>(frame_bytes));
  }
  ++stats_.frames_sent;

  auto* inj = cluster_.faults();
  std::uint64_t retransmits = 0;
  while (true) {
    // One egress reservation (source NIC + switch) for the whole frame:
    // the NIC's per-op overhead is paid once here, however many logical
    // messages ride along.
    co_await cluster_.storage_egress(src, frame_bytes);
    if (inj) {
      // The drop/delay dice rolls once per frame. A dropped frame is
      // re-sent whole after the retransmit timeout, so every constituent
      // is still delivered exactly once.
      const auto act = inj->on_message(src, dst);
      if (act.drop) {
        obs::StageScope retrans(ctx, "net.agg.retransmit", flush_span.id());
        co_await cluster_.engine().sleep(inj->plan().retransmit_timeout);
        retrans.close();
        ++retransmits;
        ++stats_.frames_retransmitted;
        if (ctx) ctx->registry.counter("net.agg.retransmits").add(1);
        continue;
      }
      if (act.delay > 0) {
        co_await cluster_.engine().sleep(act.delay);
      }
    }
    break;
  }
  if (retransmits > 0) flush_span.tag("retransmits", retransmits);

  // Deliver constituents in post order. Deliveries may block (bounded
  // channels, receiver NICs), which back-pressures this flow's next frame
  // through the done-event chain.
  for (Pending& m : messages) {
    co_await m.deliver();
    ++stats_.messages_delivered;
    note_delivered(src);
  }
  done->set();
}

sim::Task<> MessageAggregator::timeout_timer(std::size_t src, std::size_t dst,
                                             std::uint64_t generation) {
  co_await cluster_.engine().sleep(cfg_.flush_timeout);
  Flow& flow = flows_[flow_index(src, dst)];
  if (flow.generation == generation && !flow.buffer.empty()) {
    flush_flow(src, dst, FlushCause::Timeout);
  }
}

sim::Task<> MessageAggregator::drain(std::size_t src) {
  ORV_REQUIRE(src < cluster_.num_storage(),
              "aggregator drain source out of range");
  for (std::size_t dst = 0; dst < cluster_.num_compute(); ++dst) {
    flush_flow(src, dst, FlushCause::Drain);
  }
  // Wait for every posted message out of `src` to be delivered; re-check
  // after each wake because another producer on the node may have posted
  // meanwhile (in which case its messages are awaited too — drain means
  // the node's flows are empty *now*).
  while (src_pending_[src] > 0) {
    auto event = std::make_shared<sim::Event>(cluster_.engine());
    src_waiters_[src].push_back(event);
    co_await event->wait();
    for (std::size_t dst = 0; dst < cluster_.num_compute(); ++dst) {
      flush_flow(src, dst, FlushCause::Drain);
    }
  }
}

void MessageAggregator::note_delivered(std::size_t src) {
  ORV_CHECK(src_pending_[src] > 0, "aggregator delivery underflow");
  if (--src_pending_[src] == 0 && !src_waiters_[src].empty()) {
    auto waiters = std::move(src_waiters_[src]);
    src_waiters_[src].clear();
    for (const auto& e : waiters) e->set();
  }
}

}  // namespace orv::net
