#pragma once

// Row-by-row reference for SubTable::compute_bounds: every cell goes
// through Value, the way the engine read records before the bounds pass
// was typed. The subtable and filter_rows tests compare against it.

#include <limits>

#include "subtable/subtable.hpp"

namespace orv::test {

/// compute_bounds() cell by cell: Value::as_double into Rect::expand, and
/// the empty box {1, -1} per attribute for zero rows.
inline Rect value_bounds(const SubTable& st) {
  const std::size_t n_attrs = st.schema().num_attrs();
  Rect b(n_attrs);
  for (std::size_t d = 0; d < n_attrs; ++d) {
    b[d] = st.num_rows() == 0
               ? Interval{1.0, -1.0}
               : Interval{std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  }
  for (std::size_t r = 0; r < st.num_rows(); ++r) {
    for (std::size_t d = 0; d < n_attrs; ++d) {
      b.expand(d, st.value(r, d).as_double());
    }
  }
  return b;
}

}  // namespace orv::test
