#ifndef RQL_SQL_ROW_BATCH_H_
#define RQL_SQL_ROW_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sql/shared_scan_cache.h"
#include "sql/value.h"

namespace rql::sql {

/// One heap page's worth of decoded rows, handed to the executor as a
/// unit. The batch does not own the row storage: `rows` points into a
/// SharedScanCache::DecodedPage and `page` keeps that entry (and, through
/// its PinnedPage, the raw record bytes any text values were decoded
/// from) alive for as long as the batch is held. Batches built from shared
/// cache entries therefore borrow the decoded values zero-copy — the
/// per-row Row materialization the scalar scan pays on every snapshot
/// is skipped entirely.
///
/// `selection` is the executor-side filter state: the indices into
/// `rows[0..size)` that survive predicate evaluation, in ascending row
/// order. A freshly produced batch has an empty selection; consumers
/// initialize it to the identity and narrow it with each predicate.
struct RowBatch {
  /// Lifetime anchor for `rows`. Either a scan-cache entry (shared,
  /// version-keyed) or a batch-private decoded page for unversioned
  /// pages; the executor never needs to distinguish the two.
  std::shared_ptr<const SharedScanCache::DecodedPage> page;
  const Row* rows = nullptr;
  uint32_t size = 0;
  std::vector<uint32_t> selection;

  const Value& at(uint32_t row, size_t col) const { return rows[row][col]; }
};

}  // namespace rql::sql

#endif  // RQL_SQL_ROW_BATCH_H_
