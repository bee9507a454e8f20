#include "subtable/subtable.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"

namespace orv {

SubTable::SubTable(SchemaPtr schema, SubTableId id)
    : schema_(std::move(schema)), id_(id) {
  ORV_REQUIRE(schema_ != nullptr, "SubTable needs a schema");
  bounds_ = Rect::unbounded(schema_->num_attrs());
}

void SubTable::append_row(std::span<const std::byte> record) {
  ORV_REQUIRE(record.size() == record_size(),
              "append_row record size mismatch");
  data_.insert(data_.end(), record.begin(), record.end());
  ++num_rows_;
}

void SubTable::append_rows(const SubTable& src) {
  ORV_REQUIRE(src.record_size() == record_size(),
              "append_rows record size mismatch");
  const std::size_t n = src.num_rows();
  if (n == 0) return;  // an empty table's buffer may be null
  // Reserve first: `src` may be this table, whose bytes may move.
  std::byte* dst = append_rows_reserve(n);
  std::memcpy(dst, src.data_.data(), n * record_size());
  append_rows_commit(n);
}

std::byte* SubTable::append_rows_reserve(std::size_t n) {
  const std::size_t committed = num_rows_ * record_size();
  const std::size_t need = committed + n * record_size();
  if (data_.size() < need) data_.resize(need);
  return data_.data() + committed;
}

void SubTable::append_rows_commit(std::size_t n) {
  num_rows_ += n;
  ORV_REQUIRE(num_rows_ * record_size() <= data_.size(),
              "append_rows_commit beyond the reserved window");
}

void SubTable::append_rows_trim() { data_.resize(num_rows_ * record_size()); }

void append_projected(const SubTable& in, const std::vector<std::size_t>& attrs,
                      SubTable& out) {
  struct Field {
    std::size_t src = 0;
    std::size_t dst = 0;
    std::size_t size = 0;
  };
  std::vector<Field> fields;
  std::size_t dst = 0;
  for (std::size_t a : attrs) {
    const std::size_t size = attr_size(in.schema().attr(a).type);
    fields.push_back({in.schema().offset(a), dst, size});
    dst += size;
  }
  ORV_REQUIRE(dst == out.record_size(),
              "append_projected record size mismatch");
  const std::size_t n = in.num_rows();
  if (n == 0) return;  // an empty table's buffer may be null
  std::byte* to = out.append_rows_reserve(n);
  const std::byte* from = in.row(0);
  for (std::size_t r = 0; r < n; ++r) {
    for (const Field& f : fields) std::memcpy(to + f.dst, from + f.src, f.size);
    to += dst;
    from += in.record_size();
  }
  out.append_rows_commit(n);
}

void SubTable::append_values(std::span<const Value> values) {
  ORV_REQUIRE(values.size() == schema_->num_attrs(),
              "append_values arity mismatch");
  const std::size_t base = data_.size();
  data_.resize(base + record_size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i].write(schema_->attr(i).type, data_.data() + base +
                                               schema_->offset(i));
  }
  ++num_rows_;
}

const std::byte* SubTable::row(std::size_t r) const {
  ORV_REQUIRE(r < num_rows_, "row index out of range");
  return data_.data() + r * record_size();
}

std::byte* SubTable::mutable_row(std::size_t r) {
  ORV_REQUIRE(r < num_rows_, "row index out of range");
  return data_.data() + r * record_size();
}

Value SubTable::value(std::size_t r, std::size_t attr) const {
  return Value::read(schema_->attr(attr).type, row(r) + schema_->offset(attr));
}

double SubTable::as_double(std::size_t r, std::size_t attr) const {
  return as_double_from_bytes(schema_->attr(attr).type,
                              row(r) + schema_->offset(attr));
}

void SubTable::adopt_bytes(std::vector<std::byte> payload) {
  ORV_REQUIRE(payload.size() % record_size() == 0,
              "payload size not a multiple of record size");
  num_rows_ = payload.size() / record_size();
  data_ = std::move(payload);
}

void SubTable::set_bounds(Rect b) {
  ORV_REQUIRE(b.dims() == schema_->num_attrs(),
              "bounds dimension must equal attribute count");
  bounds_ = std::move(b);
}

void SubTable::compute_bounds() {
  const std::size_t n_attrs = schema_->num_attrs();
  Rect b(n_attrs);
  for (std::size_t d = 0; d < n_attrs; ++d) {
    if (num_rows_ == 0) {
      // Empty sub-table: an empty box (lo > hi) that overlaps nothing.
      b[d] = Interval{1.0, -1.0};
      continue;
    }
    // The comparisons of Rect::expand: NaN never moves a bound.
    Interval iv{std::numeric_limits<double>::infinity(),
                -std::numeric_limits<double>::infinity()};
    for_each_as_double(d, [&iv](std::size_t, double v) {
      if (v < iv.lo) iv.lo = v;
      if (v > iv.hi) iv.hi = v;
    });
    b[d] = iv;
  }
  bounds_ = std::move(b);
}

std::uint64_t SubTable::unordered_fingerprint() const {
  // Sum of strong per-row hashes: commutative, so partition order and row
  // order do not matter; collisions need ~2^32 rows (birthday bound) which
  // is far beyond test sizes.
  std::uint64_t acc = 0;
  const std::size_t rs = record_size();
  for (std::size_t r = 0; r < num_rows_; ++r) {
    const std::byte* p = data_.data() + r * rs;
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    std::size_t i = 0;
    for (; i + 8 <= rs; i += 8) {
      std::uint64_t lane;
      std::memcpy(&lane, p + i, 8);
      h = hash_combine(h, lane);
    }
    if (i < rs) {
      std::uint64_t lane = 0;
      std::memcpy(&lane, p + i, rs - i);
      h = hash_combine(h, lane);
    }
    acc += h;
  }
  return acc;
}

std::string SubTable::to_string(std::size_t max_rows) const {
  std::string out = "SubTable" + id_.to_string() + " [" +
                    schema_->to_string() + "] rows=" +
                    std::to_string(num_rows_) + "\n";
  const std::size_t n = num_rows_ < max_rows ? num_rows_ : max_rows;
  for (std::size_t r = 0; r < n; ++r) {
    out += "  ";
    for (std::size_t a = 0; a < schema_->num_attrs(); ++a) {
      if (a) out += " | ";
      out += value(r, a).to_string();
    }
    out += "\n";
  }
  if (n < num_rows_) out += "  ... (" + std::to_string(num_rows_ - n) + " more)\n";
  return out;
}

}  // namespace orv
