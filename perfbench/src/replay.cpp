// Join-kernel replay for the traced run: walks a connectivity graph's
// pairs through the public hash-join kernel (BuiltHashTable), building one
// table per left sub-table and probing it with each connected right
// sub-table, and times build, probe and the result fingerprint
// separately. Sub-tables are extracted with a private registry, so the
// replay does not feed the timed extractors' counters.

#include <map>

#include "extract/extractor.hpp"
#include "join/hash_join.hpp"
#include "join/key.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMaxPairsPerSource = 4096;

}  // namespace

void report_join_replay(Report& report,
                        const std::vector<ReplaySource>& sources) {
  const orv::ExtractorRegistry plain;
  std::int64_t build_ns = 0, probe_ns = 0, fingerprint_ns = 0;
  std::uint64_t build_tuples = 0, probe_tuples = 0, fingerprint_rows = 0;

  for (const ReplaySource& src : sources) {
    std::map<orv::SubTableId, std::shared_ptr<const orv::SubTable>> loaded;
    auto load = [&](const orv::SubTableId& id) {
      auto& slot = loaded[id];
      if (!slot) {
        const auto& loc = src.meta.chunk(id).location;
        const auto bytes = src.stores.at(loc.storage_node)->read(loc);
        slot = std::make_shared<const orv::SubTable>(
            orv::extract_chunk(bytes, plain));
      }
      return slot;
    };
    std::size_t pairs = 0;
    for (const auto& component : src.graph.components()) {
      for (const auto& left_id : component.left_subtables) {
        if (pairs >= kMaxPairsPerSource) break;
        const auto left = load(left_id);
        std::int64_t t0 = now_ns();
        const orv::BuiltHashTable table(left, src.join_attrs);
        build_ns += now_ns() - t0;
        build_tuples += left->num_rows();
        for (const auto& pair : component.pairs) {
          if (pair.left != left_id) continue;
          const auto right = load(pair.right);
          const auto key = orv::JoinKey::resolve(right->schema(),
                                                 src.join_attrs);
          orv::SubTable out(std::make_shared<const orv::Schema>(
                                orv::Schema::join_result(
                                    left->schema(), right->schema(),
                                    key.attr_indices())),
                            orv::SubTableId{});
          t0 = now_ns();
          table.probe(*right, src.join_attrs, out);
          probe_ns += now_ns() - t0;
          probe_tuples += right->num_rows();
          t0 = now_ns();
          sink = out.unordered_fingerprint();
          fingerprint_ns += now_ns() - t0;
          fingerprint_rows += out.num_rows();
          ++pairs;
        }
      }
    }
  }
  auto per = [](std::int64_t ns, std::uint64_t n) {
    return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  report.metric("join.build_ns_per_tuple", per(build_ns, build_tuples),
                "ns/tuple");
  report.metric("join.probe_ns_per_tuple", per(probe_ns, probe_tuples),
                "ns/tuple");
  report.metric("subtable.fingerprint_ns_per_row",
                per(fingerprint_ns, fingerprint_rows), "ns/row");
}

}  // namespace perfbench
