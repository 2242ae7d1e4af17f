#ifndef RQL_STORAGE_PAGE_STORE_H_
#define RQL_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/page.h"

namespace rql::storage {

/// The interface through which the SQL engine reads pages. Implemented by
/// PageStore (current state) and by the Retro snapshot view (as-of state).
class PageReader {
 public:
  virtual ~PageReader() = default;
  virtual Status ReadPage(PageId id, Page* page) = 0;

  /// Physical identity of the page version this reader resolves `id` to,
  /// when one exists that is stable across readers. The Retro snapshot
  /// view returns the page's Pagelog offset for SPT-mapped (archived)
  /// pages: two snapshots resolving a page to the same offset see
  /// byte-identical content, which is what makes cross-snapshot decoded-
  /// page reuse sound. Readers of mutable state (the default) have no
  /// stable version key and return false.
  virtual bool PageVersion(PageId id, uint64_t* version) {
    (void)id;
    (void)version;
    return false;
  }

  /// Reads `id` as a ref-counted pin on an immutable cached page, when the
  /// reader can serve one (the Retro view pins archived pages straight
  /// from the snapshot cache, skipping the copy-out ReadPage does). An
  /// empty pin means "unsupported here" — callers fall back to ReadPage.
  virtual Result<PinnedPage> ReadPagePinned(PageId id) {
    (void)id;
    return PinnedPage();
  }
};

/// The interface through which the SQL engine mutates pages. The Retro
/// layer wraps a PageStore behind this interface to interpose copy-on-write
/// pre-state capture on writes, mirroring how Retro interposes on the
/// Berkeley DB storage manager.
class PageWriter : public PageReader {
 public:
  virtual Result<PageId> AllocatePage() = 0;
  virtual Status FreePage(PageId id) = 0;
  virtual Status WritePage(PageId id, const Page& page) = 0;
};

/// A file of pages with a free list, a handful of named root-page slots
/// (the catalog root lives in slot 0), and write-ahead-logged atomic
/// batches. Page 0 is the header and is never handed out.
///
/// Mutations accumulate in an in-memory dirty set and reach the file only
/// through a WAL commit: the batch is appended to <name>.wal with a
/// checksum and commit sentinel, synced, applied to the page file, and
/// the WAL truncated. A crash anywhere in that protocol leaves either the
/// whole batch or none of it — recovery on Open replays a complete WAL
/// and discards an incomplete one. Mutations outside an explicit batch
/// commit individually.
class PageStore : public PageWriter {
 public:
  /// Number of root-page slots in the header available to higher layers.
  static constexpr uint32_t kNumRoots = 8;

  /// Opens (creating if necessary) the page file `name` (WAL: <name>.wal)
  /// inside `env`, running crash recovery if a committed WAL is present.
  static Result<std::unique_ptr<PageStore>> Open(Env* env,
                                                 const std::string& name);

  Result<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  Status ReadPage(PageId id, Page* page) override;
  Status WritePage(PageId id, const Page& page) override;

  /// Starts an explicit atomic batch; mutations buffer until CommitBatch.
  Status BeginBatch();
  /// Atomically persists the batch through the WAL.
  Status CommitBatch();
  /// Drops every buffered mutation (free: nothing reached the file).
  Status RollbackBatch();
  bool in_batch() const { return in_batch_; }

  /// Root slots persist across Open calls; used for catalog roots.
  Result<PageId> GetRoot(uint32_t slot) const;
  Status SetRoot(uint32_t slot, PageId id);

  /// Total pages in the file image, including the header and free pages.
  uint32_t page_count() const { return page_count_; }

  /// Pages currently allocated (excludes header and free-list pages).
  uint32_t allocated_pages() const { return page_count_ - 1 - free_count_; }

  /// Monotonic count of mutations (AllocatePage, FreePage, WritePage,
  /// SetRoot), committed or not: whether anything wrote between two reads.
  uint64_t mutations() const { return mutations_; }

  /// Hook invoked before each non-empty commit becomes durable (before
  /// the WAL append). The Retro layer uses it to sync the Pagelog and
  /// Maplog first, so no committed post-state can outlive its archived
  /// pre-state. A failing hook aborts the commit.
  using PreCommitHook = std::function<Status()>;
  void set_pre_commit_hook(PreCommitHook hook) {
    pre_commit_hook_ = std::move(hook);
  }

 private:
  PageStore() = default;

  Status LoadHeader();
  void StageHeader();
  Status RecoverWal();
  Status CommitDirty();
  /// Reads a page preferring the dirty set over the file.
  Status ReadThrough(PageId id, Page* page) const;
  /// Counts the mutation just staged; auto-commits when not inside an
  /// explicit batch.
  Status MaybeAutoCommit();

  std::unique_ptr<File> file_;
  std::unique_ptr<File> wal_;
  uint32_t page_count_ = 0;      // includes header page
  PageId free_head_ = kInvalidPageId;
  uint32_t free_count_ = 0;
  PageId roots_[kNumRoots] = {};
  // Pages staged by the current batch (or single mutation), including the
  // header page 0.
  std::map<PageId, Page> dirty_;
  // page_count_ as of the last commit: the file's real page extent.
  uint32_t committed_page_count_ = 0;
  bool in_batch_ = false;
  uint64_t mutations_ = 0;
  PreCommitHook pre_commit_hook_;
};

}  // namespace rql::storage

#endif  // RQL_STORAGE_PAGE_STORE_H_
