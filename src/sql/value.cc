#include "sql/value.h"

#include <cstring>

namespace rql::sql {

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInteger: return "INTEGER";
    case ValueType::kReal: return "REAL";
    case ValueType::kText: return "TEXT";
  }
  return "?";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInteger:
      return std::to_string(integer());
    case ValueType::kReal: {
      std::string s = std::to_string(real());
      return s;
    }
    case ValueType::kText:
      return text();
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  return CompareValues(*this, other) == 0;
}

namespace {
// Ordering rank of a type class: NULL < numeric < text.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull: return 0;
    case ValueType::kInteger:
    case ValueType::kReal: return 1;
    case ValueType::kText: return 2;
  }
  return 3;
}
}  // namespace

int CompareValues(const Value& a, const Value& b) {
  int ra = TypeRank(a.type());
  int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:  // both NULL
      return 0;
    case 1: {  // numeric
      if (a.type() == ValueType::kInteger && b.type() == ValueType::kInteger) {
        int64_t x = a.integer(), y = b.integer();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      double x = a.AsDouble(), y = b.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {  // text
      int c = a.text().compare(b.text());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = CompareValues(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

bool IdenticalValues(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInteger:
      return a.integer() == b.integer();
    case ValueType::kReal: {
      double x = a.real(), y = b.real();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kText:
      return a.text() == b.text();
  }
  return false;
}

namespace {

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < sizeof(*v)) return false;
  std::memcpy(v, in->data(), sizeof(*v));
  in->remove_prefix(sizeof(*v));
  return true;
}
bool GetU64(std::string_view* in, uint64_t* v) {
  if (in->size() < sizeof(*v)) return false;
  std::memcpy(v, in->data(), sizeof(*v));
  in->remove_prefix(sizeof(*v));
  return true;
}

}  // namespace

void EncodeRow(const Row& row, std::string* out) {
  PutU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    out->push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInteger:
        PutU64(out, static_cast<uint64_t>(v.integer()));
        break;
      case ValueType::kReal: {
        uint64_t bits;
        double d = v.real();
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(out, bits);
        break;
      }
      case ValueType::kText:
        PutU32(out, static_cast<uint32_t>(v.text().size()));
        out->append(v.text());
        break;
    }
  }
}

std::string EncodeRow(const Row& row) {
  std::string out;
  EncodeRow(row, &out);
  return out;
}

Result<Row> DecodeRow(std::string_view data) {
  uint32_t count = 0;
  if (!GetU32(&data, &count)) {
    return Status::Corruption("row decode: truncated header");
  }
  Row row;
  row.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (data.empty()) return Status::Corruption("row decode: truncated tag");
    auto type = static_cast<ValueType>(data.front());
    data.remove_prefix(1);
    switch (type) {
      case ValueType::kNull:
        row.push_back(Value::Null());
        break;
      case ValueType::kInteger: {
        uint64_t v;
        if (!GetU64(&data, &v)) {
          return Status::Corruption("row decode: truncated int");
        }
        row.push_back(Value::Integer(static_cast<int64_t>(v)));
        break;
      }
      case ValueType::kReal: {
        uint64_t bits;
        if (!GetU64(&data, &bits)) {
          return Status::Corruption("row decode: truncated real");
        }
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        row.push_back(Value::Real(d));
        break;
      }
      case ValueType::kText: {
        uint32_t len;
        if (!GetU32(&data, &len) || data.size() < len) {
          return Status::Corruption("row decode: truncated text");
        }
        row.push_back(Value::Text(std::string(data.substr(0, len))));
        data.remove_prefix(len);
        break;
      }
      default:
        return Status::Corruption("row decode: bad type tag");
    }
  }
  if (!data.empty()) return Status::Corruption("row decode: trailing bytes");
  return row;
}

Status SplitEncodedRow(std::string_view record,
                       std::vector<std::string_view>* values) {
  values->clear();
  uint32_t count = 0;
  if (!GetU32(&record, &count)) {
    return Status::Corruption("row split: truncated header");
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (record.empty()) return Status::Corruption("row split: truncated tag");
    size_t size = 1;
    switch (static_cast<ValueType>(record.front())) {
      case ValueType::kNull:
        break;
      case ValueType::kInteger:
      case ValueType::kReal:
        size += sizeof(uint64_t);
        break;
      case ValueType::kText: {
        std::string_view len_bytes = record.substr(1);
        uint32_t len;
        if (!GetU32(&len_bytes, &len)) {
          return Status::Corruption("row split: truncated text");
        }
        size += sizeof(uint32_t) + len;
        break;
      }
      default:
        return Status::Corruption("row split: bad type tag");
    }
    if (record.size() < size) {
      return Status::Corruption("row split: truncated value");
    }
    values->push_back(record.substr(0, size));
    record.remove_prefix(size);
  }
  if (!record.empty()) return Status::Corruption("row split: trailing bytes");
  return Status::OK();
}

}  // namespace rql::sql
