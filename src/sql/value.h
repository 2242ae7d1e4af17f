#ifndef RQL_SQL_VALUE_H_
#define RQL_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace rql::sql {

/// Column/value types. Mirrors the SQLite storage classes the paper's
/// queries rely on (INTEGER, REAL, TEXT plus NULL).
enum class ValueType : uint8_t {
  kNull = 0,
  kInteger = 1,
  kReal = 2,
  kText = 3,
};

std::string_view ValueTypeName(ValueType type);

/// A dynamically typed SQL value with SQLite-style coercion rules.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  static Value Null() { return Value(); }
  static Value Integer(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Text(std::string v) { return Value(std::move(v)); }

  ValueType type() const {
    switch (data_.index()) {
      case 0: return ValueType::kNull;
      case 1: return ValueType::kInteger;
      case 2: return ValueType::kReal;
      default: return ValueType::kText;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInteger || type() == ValueType::kReal;
  }

  /// Accessors require the matching type.
  int64_t integer() const { return std::get<int64_t>(data_); }
  double real() const { return std::get<double>(data_); }
  const std::string& text() const { return std::get<std::string>(data_); }

  /// Numeric value as double (integer or real). 0.0 for other types.
  double AsDouble() const {
    if (type() == ValueType::kInteger) return static_cast<double>(integer());
    if (type() == ValueType::kReal) return real();
    return 0.0;
  }

  /// Numeric value as int64 (truncating reals). 0 for other types.
  int64_t AsInt() const {
    if (type() == ValueType::kInteger) return integer();
    if (type() == ValueType::kReal) return static_cast<int64_t>(real());
    return 0;
  }

  /// Rendering for result printing and debugging (NULL -> "NULL",
  /// text unquoted).
  std::string ToString() const;

  bool operator==(const Value& other) const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// A record: one value per column.
using Row = std::vector<Value>;

/// Total order used by indexes, ORDER BY, DISTINCT and GROUP BY:
/// NULL < numeric (ints and reals compared numerically) < text.
/// Returns <0, 0, >0.
int CompareValues(const Value& a, const Value& b);

/// Lexicographic row comparison with CompareValues semantics; a shorter row
/// that is a prefix of a longer one compares less.
int CompareRows(const Row& a, const Row& b);

/// True when `a` and `b` have the same type and the same payload bits, so
/// EncodeRow writes them as the same bytes. Stricter than CompareValues:
/// INTEGER 1 and REAL 1.0 compare equal but are not identical.
bool IdenticalValues(const Value& a, const Value& b);

/// Serializes a row to a compact byte string and back. The encoding is not
/// order-preserving; ordered structures decode before comparing.
void EncodeRow(const Row& row, std::string* out);
std::string EncodeRow(const Row& row);
Result<Row> DecodeRow(std::string_view data);

/// Splits an EncodeRow record into the bytes of each value, in column
/// order, without decoding: equal spans are identical values
/// (IdenticalValues). Fails on a malformed record.
Status SplitEncodedRow(std::string_view record,
                       std::vector<std::string_view>* values);

}  // namespace rql::sql

#endif  // RQL_SQL_VALUE_H_
