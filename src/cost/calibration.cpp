#include "cost/calibration.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "qes/qes.hpp"

namespace orv {

obs::CalibrationState calibration_priors(const CostParams& p) {
  obs::CalibrationState s;
  s.read_io_bw = p.read_io_bw;
  s.write_io_bw = p.write_io_bw;
  s.net_bw = p.net_bw;
  s.local_bus_bw = p.local_bw;
  s.alpha_build = p.alpha_build;
  s.alpha_lookup = p.alpha_lookup;
  s.msg_overhead = p.msg_overhead;
  return s;
}

CostParams apply_calibration(CostParams p, const obs::CalibrationState& s) {
  if (s.read_io_bw > 0) p.read_io_bw = s.read_io_bw;
  if (s.write_io_bw > 0) p.write_io_bw = s.write_io_bw;
  if (s.net_bw > 0) p.net_bw = s.net_bw;
  // Only a colocated cluster has a local bus in the model (local_bw > 0);
  // a calibrated bus bandwidth never invents one.
  if (s.local_bus_bw > 0 && p.local_bw > 0) p.local_bw = s.local_bus_bw;
  if (s.alpha_build > 0) p.alpha_build = s.alpha_build;
  if (s.alpha_lookup > 0) p.alpha_lookup = s.alpha_lookup;
  if (s.queries_observed > 0) p.msg_overhead = s.msg_overhead;
  return p;
}

obs::QueryObservation make_observation(const CostParams& prior,
                                       bool indexed_join,
                                       const QesResult& result,
                                       const obs::ObsContext& ctx,
                                       const obs::CriticalPath& cp,
                                       std::string label) {
  obs::QueryObservation o;
  o.query = std::move(label);
  o.indexed_join = indexed_join;
  o.degraded = result.degraded;
  o.n_s = prior.n_s;
  o.n_j = prior.n_j;

  // Binding analysis under the prior beliefs: the transfer phase is
  // network-bound when the aggregate storage read bandwidth exceeds the
  // network, disk-bound otherwise (mirrors the model's min()).
  const double read_agg = prior.shared_filesystem
                              ? prior.read_io_bw
                              : prior.read_io_bw * prior.n_s;
  o.net_bound = prior.net_bw <= read_agg;

  // Stage aggregates: summed closed-span seconds by name.
  double ij_build = 0, ij_probe = 0, gh_join = 0, gh_spill = 0, gh_read = 0;
  for (const auto& st : obs::aggregate_stages(ctx.tracer.snapshot())) {
    if (st.name == "ij.build") ij_build = st.seconds;
    else if (st.name == "ij.probe") ij_probe = st.seconds;
    else if (st.name == "gh.join") gh_join = st.seconds;
    else if (st.name == "gh.spill") gh_spill = st.seconds;
    else if (st.name == "gh.bucket_read") gh_read = st.seconds;
  }

  o.build_tuples = result.join_stats.build_tuples;
  o.probe_tuples = result.join_stats.probe_tuples;
  if (indexed_join) {
    o.build_seconds = ij_build;
    o.probe_seconds = ij_probe;
  } else {
    // Grace Hash charges build + probe in one fused gh.join span; split it
    // by the prior per-tuple costs (only the split, not the magnitude,
    // leans on the priors).
    const double wb =
        prior.alpha_build * static_cast<double>(o.build_tuples);
    const double wl =
        prior.alpha_lookup * static_cast<double>(o.probe_tuples);
    if (wb + wl > 0) {
      o.build_seconds = gh_join * wb / (wb + wl);
      o.probe_seconds = gh_join * wl / (wb + wl);
    }
  }

  o.transfer_bytes = result.network_bytes + result.local_transfer_bytes;
  o.local_bytes = result.local_transfer_bytes;
  o.transfer_wall_seconds = cp.stage_seconds(obs::Stage::Network);

  o.spill_bytes = result.scratch_write_bytes;
  o.spill_seconds = gh_spill;
  o.read_bytes = result.scratch_read_bytes;
  o.read_seconds = gh_read;

  // Gamma attribution counts what actually paid the per-message overhead:
  // physical frames through the switch when the network aggregator ran
  // (net.agg.frames), logical batches otherwise — with aggregation on,
  // attributing per batch would underestimate gamma by the flush factor.
  std::uint64_t batches = 0;
  std::uint64_t frames = 0;
  for (const auto& [name, v] : ctx.registry.snapshot().counters) {
    if (name == "gh.batches") batches = v;
    else if (name == "net.agg.frames") frames = v;
  }
  o.messages = frames > 0 ? frames : batches;
  return o;
}

}  // namespace orv
