#include "join/key.hpp"

#include "common/error.hpp"

namespace orv {

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

}  // namespace orv
