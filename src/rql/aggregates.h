#ifndef RQL_RQL_AGGREGATES_H_
#define RQL_RQL_AGGREGATES_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "sql/value.h"

namespace rql {

/// Aggregate functions usable in RQL's Aggregate Data In Variable /
/// Aggregate Data In Table mechanisms.
///
/// Section 2.3 of the paper: the function must be definable by an abelian
/// monoid (X, op, e) — op associative and commutative with identity e — so
/// that folding values across snapshots in iteration order is well
/// defined. MIN, MAX, SUM and COUNT qualify; AVG does not, but is widely
/// used, so the mechanisms implement it as a special case by carrying a
/// (sum, count) pair. COUNT DISTINCT and friends are rejected — the paper
/// directs those to Collate Data plus a final SQL query.
enum class RqlAggFunc {
  kMin,
  kMax,
  kSum,
  kCount,
  kAvg,  // special case: not a monoid, handled via (sum, count) state
};

/// Parses "min"/"max"/"sum"/"count"/"avg" (case-insensitive).
Result<RqlAggFunc> RqlAggFuncFromName(std::string_view name);

std::string_view RqlAggFuncName(RqlAggFunc func);

/// True for the functions that satisfy the monoid requirement directly.
bool IsMonoid(RqlAggFunc func);

/// The monoid combine: op(acc, next). NULLs act as the identity (they are
/// absorbed), matching SQL aggregate NULL handling. Not valid for kAvg.
Result<sql::Value> RqlCombine(RqlAggFunc func, const sql::Value& acc,
                              const sql::Value& next);

/// Folds vals[0..n) into `acc` left to right with RqlCombine semantics in
/// one call — exactly equivalent to n sequential RqlCombine applications
/// (same tie-breaking, same int/real promotion point, same errors), just
/// without a Result round-trip per element. Not valid for kAvg.
Result<sql::Value> RqlCombineBatch(RqlAggFunc func, sql::Value acc,
                                   const sql::Value* vals, size_t n);

/// --- Vectorized fold kernels -------------------------------------------
///
/// The per-value transition of each SQL aggregate, applied over a whole
/// selection vector in one call. These are the batch-execution
/// counterparts of the executor's row-at-a-time accumulator update: they
/// mutate the same accumulator fields with the same per-element operation
/// order (NULL skip, count bump, int/real split, long-double running
/// sum), so a batch fold is bit-identical to the equivalent sequence of
/// scalar updates — including float rounding, which is what keeps
/// batch-executed (RqlProfile::kFast) results byte-identical to the row
/// path. AVG and TOTAL share FoldSum: both carry the (real_sum, count)
/// pair and diverge only at finalization. Header-inline so the sql executor can fold without a
/// link-time dependency on the rql core library.
namespace batch {

/// Input span for a fold: either rows selected out of a batch, read in
/// place (dense == nullptr; value i is rows[sel[i]][col], zero-copy), or
/// a pre-evaluated dense value vector (expression arguments; value i is
/// dense[i]).
struct FoldInput {
  const sql::Row* rows = nullptr;
  const uint32_t* sel = nullptr;
  int col = 0;
  const sql::Value* dense = nullptr;
  size_t n = 0;

  static FoldInput Column(const sql::Row* rows, const uint32_t* sel,
                          size_t n, int col) {
    FoldInput in;
    in.rows = rows;
    in.sel = sel;
    in.n = n;
    in.col = col;
    return in;
  }
  static FoldInput Dense(const sql::Value* vals, size_t n) {
    FoldInput in;
    in.dense = vals;
    in.n = n;
    return in;
  }
  const sql::Value& at(size_t i) const {
    return dense != nullptr ? dense[i]
                            : rows[sel[i]][static_cast<size_t>(col)];
  }
};

/// SUM / AVG / TOTAL transition: per non-null value, bump the count, add
/// into the integer sum while all inputs are integers, and always into
/// the long-double running sum the real result is taken from.
inline Status FoldSum(const FoldInput& in, int64_t* count, bool* has_value,
                      long double* real_sum, int64_t* int_sum,
                      bool* int_only) {
  for (size_t i = 0; i < in.n; ++i) {
    const sql::Value& v = in.at(i);
    if (v.is_null()) continue;
    if (!v.is_numeric()) {
      return Status::InvalidArgument("SUM/AVG of non-numeric value");
    }
    ++*count;
    if (v.type() == sql::ValueType::kInteger) {
      *int_sum += v.integer();
    } else {
      *int_only = false;
    }
    *real_sum += v.AsDouble();
    *has_value = true;
  }
  return Status::OK();
}

/// COUNT(expr) transition: count the non-null values.
inline void FoldCount(const FoldInput& in, int64_t* count) {
  for (size_t i = 0; i < in.n; ++i) {
    if (!in.at(i).is_null()) ++*count;
  }
}

/// MIN/MAX transition: first non-null value seeds the extreme; later
/// values replace it only on strict improvement (first-wins on ties,
/// like the scalar update).
inline void FoldExtreme(bool is_min, const FoldInput& in, int64_t* count,
                        bool* has_value, sql::Value* extreme) {
  for (size_t i = 0; i < in.n; ++i) {
    const sql::Value& v = in.at(i);
    if (v.is_null()) continue;
    ++*count;
    if (!*has_value) {
      *extreme = v;
    } else {
      int c = sql::CompareValues(v, *extreme);
      if (is_min ? c < 0 : c > 0) *extreme = v;
    }
    *has_value = true;
  }
}

}  // namespace batch

/// Running state for AVG's special-case implementation.
struct AvgState {
  long double sum = 0;
  int64_t count = 0;

  void Add(const sql::Value& v) {
    if (v.is_null()) return;
    sum += v.AsDouble();
    ++count;
  }
  sql::Value Final() const {
    if (count == 0) return sql::Value::Null();
    return sql::Value::Real(static_cast<double>(sum) /
                            static_cast<double>(count));
  }
};

}  // namespace rql

#endif  // RQL_RQL_AGGREGATES_H_
