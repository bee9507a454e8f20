#include "join/key.hpp"

#include "common/error.hpp"

namespace orv {

namespace {

/// One key attribute's lanes (see JoinKey::lane_columns); true when one
/// of them is NaN.
template <typename T>
bool lane_column(const std::byte* field, std::size_t stride,
                 const std::uint32_t* sel, std::size_t n,
                 std::uint64_t* out) {
  bool nan = false;
  const auto one = [&](std::size_t j, const std::byte* p) {
    const T v = load_field<T>(p);
    out[j] = key_lane_of(v);
    if constexpr (std::is_floating_point_v<T>) nan |= v != v;
  };
  if (sel != nullptr) {
    for (std::size_t j = 0; j < n; ++j) one(j, field + sel[j] * stride);
  } else {
    for (std::size_t j = 0; j < n; ++j) one(j, field + j * stride);
  }
  return nan;
}

}  // namespace

JoinKey JoinKey::resolve(const Schema& schema,
                         const std::vector<std::string>& attr_names) {
  ORV_REQUIRE(!attr_names.empty(), "join needs at least one key attribute");
  JoinKey key;
  for (const auto& name : attr_names) {
    const std::size_t idx = schema.require_index(name);
    key.indices_.push_back(idx);
    key.offsets_.push_back(schema.offset(idx));
    key.types_.push_back(schema.attr(idx).type);
  }
  return key;
}

bool JoinKey::lane_columns(const std::byte* rows, std::size_t stride,
                           const std::uint32_t* sel, std::size_t n,
                           std::uint64_t* lanes,
                           std::size_t lane_stride) const {
  bool nan = false;
  for (std::size_t i = 0; i < arity(); ++i) {
    with_attr_type(types_[i], [&](auto t) {
      nan |= lane_column<decltype(t)>(rows + offsets_[i], stride, sel, n,
                                      lanes + i * lane_stride);
    });
  }
  return nan;
}

}  // namespace orv
