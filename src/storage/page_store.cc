#include "storage/page_store.h"

#include <cstring>
#include <string>

namespace rql::storage {

namespace {

constexpr uint32_t kMagic = 0x52514C31;      // "RQL1"
constexpr uint32_t kWalMagic = 0x57414C31;   // "WAL1"
constexpr uint32_t kWalCommit = 0x434D5431;  // "CMT1"

// Header page layout (page 0).
constexpr uint32_t kMagicOffset = 0;
constexpr uint32_t kPageCountOffset = 4;
constexpr uint32_t kFreeHeadOffset = 8;
constexpr uint32_t kFreeCountOffset = 12;
constexpr uint32_t kRootsOffset = 16;

uint64_t Fnv1a(const char* data, size_t n, uint64_t seed = 0xCBF29CE484222325ull) {
  uint64_t hash = seed;
  for (size_t i = 0; i < n; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

}  // namespace

Result<std::unique_ptr<PageStore>> PageStore::Open(Env* env,
                                                   const std::string& name) {
  auto store = std::unique_ptr<PageStore>(new PageStore());
  RQL_ASSIGN_OR_RETURN(store->file_, env->OpenFile(name));
  RQL_ASSIGN_OR_RETURN(store->wal_, env->OpenFile(name + ".wal"));
  RQL_RETURN_IF_ERROR(store->RecoverWal());
  if (store->file_->Size() == 0) {
    // Fresh file: commit an empty header.
    store->page_count_ = 1;
    store->free_head_ = kInvalidPageId;
    store->free_count_ = 0;
    store->StageHeader();
    RQL_RETURN_IF_ERROR(store->CommitDirty());
  } else {
    RQL_RETURN_IF_ERROR(store->LoadHeader());
    store->committed_page_count_ = store->page_count_;
  }
  return store;
}

Status PageStore::RecoverWal() {
  uint64_t size = wal_->Size();
  if (size == 0) return Status::OK();
  // Header: magic, count, crc.
  struct WalHeader {
    uint32_t magic;
    uint32_t count;
    uint64_t crc;
  } header;
  auto discard = [this]() { return wal_->Truncate(0); };
  if (size < sizeof(header)) return discard();
  RQL_RETURN_IF_ERROR(wal_->Read(0, sizeof(header),
                                 reinterpret_cast<char*>(&header)));
  if (header.magic != kWalMagic) return discard();
  uint64_t payload_bytes =
      static_cast<uint64_t>(header.count) * (4 + kPageSize);
  uint64_t expected = sizeof(header) + payload_bytes + 4;
  if (size < expected) return discard();  // torn batch: never committed
  std::string payload(payload_bytes, '\0');
  RQL_RETURN_IF_ERROR(wal_->Read(sizeof(header), payload_bytes,
                                 payload.data()));
  uint32_t commit = 0;
  RQL_RETURN_IF_ERROR(wal_->Read(sizeof(header) + payload_bytes, 4,
                                 reinterpret_cast<char*>(&commit)));
  if (commit != kWalCommit ||
      Fnv1a(payload.data(), payload.size()) != header.crc) {
    return discard();
  }
  // A fully committed batch: (re)apply it.
  const char* ptr = payload.data();
  for (uint32_t i = 0; i < header.count; ++i) {
    uint32_t id;
    std::memcpy(&id, ptr, 4);
    RQL_RETURN_IF_ERROR(file_->Write(static_cast<uint64_t>(id) * kPageSize,
                                     kPageSize, ptr + 4));
    ptr += 4 + kPageSize;
  }
  RQL_RETURN_IF_ERROR(file_->Sync());
  return wal_->Truncate(0);
}

Status PageStore::LoadHeader() {
  Page header;
  RQL_RETURN_IF_ERROR(file_->Read(0, kPageSize, header.data));
  if (header.ReadU32(kMagicOffset) != kMagic) {
    return Status::Corruption("bad page store magic");
  }
  page_count_ = header.ReadU32(kPageCountOffset);
  free_head_ = header.ReadU32(kFreeHeadOffset);
  free_count_ = header.ReadU32(kFreeCountOffset);
  for (uint32_t i = 0; i < kNumRoots; ++i) {
    roots_[i] = header.ReadU32(kRootsOffset + i * 4);
  }
  return Status::OK();
}

void PageStore::StageHeader() {
  Page header;
  header.Zero();
  header.WriteU32(kMagicOffset, kMagic);
  header.WriteU32(kPageCountOffset, page_count_);
  header.WriteU32(kFreeHeadOffset, free_head_);
  header.WriteU32(kFreeCountOffset, free_count_);
  for (uint32_t i = 0; i < kNumRoots; ++i) {
    header.WriteU32(kRootsOffset + i * 4, roots_[i]);
  }
  dirty_[0] = header;
}

Status PageStore::ReadThrough(PageId id, Page* page) const {
  auto it = dirty_.find(id);
  if (it != dirty_.end()) {
    *page = it->second;
    return Status::OK();
  }
  return file_->Read(static_cast<uint64_t>(id) * kPageSize, kPageSize,
                     page->data);
}

Status PageStore::MaybeAutoCommit() {
  ++mutations_;
  if (in_batch_) return Status::OK();
  return CommitDirty();
}

Status PageStore::CommitDirty() {
  if (dirty_.empty()) return Status::OK();
  if (pre_commit_hook_) RQL_RETURN_IF_ERROR(pre_commit_hook_());
  // 1. Serialize the batch.
  struct WalHeader {
    uint32_t magic;
    uint32_t count;
    uint64_t crc;
  } header;
  std::string payload;
  payload.reserve(dirty_.size() * (4 + kPageSize));
  for (const auto& [id, page] : dirty_) {
    payload.append(reinterpret_cast<const char*>(&id), 4);
    payload.append(page.data, kPageSize);
  }
  header.magic = kWalMagic;
  header.count = static_cast<uint32_t>(dirty_.size());
  header.crc = Fnv1a(payload.data(), payload.size());
  std::string record(reinterpret_cast<const char*>(&header), sizeof(header));
  record += payload;
  record.append(reinterpret_cast<const char*>(&kWalCommit), 4);

  // 2. WAL write + sync: the batch becomes durable and atomic here. On
  // failure the batch never became durable; drop any partial WAL record
  // (best effort — the WAL is empty between commits) so a later commit or
  // reopen cannot trip over a torn batch, and keep the dirty set so the
  // caller can rollback or retry.
  uint64_t wal_offset = 0;
  Status wal_status = wal_->Append(record.size(), record.data(), &wal_offset);
  if (wal_status.ok()) wal_status = wal_->Sync();
  if (!wal_status.ok()) {
    (void)wal_->Truncate(0);
    return wal_status;
  }

  // 3. Apply to the page file, then retire the WAL.
  for (const auto& [id, page] : dirty_) {
    RQL_RETURN_IF_ERROR(file_->Write(static_cast<uint64_t>(id) * kPageSize,
                                     kPageSize, page.data));
  }
  RQL_RETURN_IF_ERROR(file_->Sync());
  RQL_RETURN_IF_ERROR(wal_->Truncate(0));
  dirty_.clear();
  committed_page_count_ = page_count_;
  return Status::OK();
}

Status PageStore::BeginBatch() {
  if (in_batch_) return Status::InvalidArgument("batch already active");
  if (!dirty_.empty()) {
    return Status::Internal("dirty pages outside a batch");
  }
  in_batch_ = true;
  return Status::OK();
}

Status PageStore::CommitBatch() {
  if (!in_batch_) return Status::InvalidArgument("no active batch");
  in_batch_ = false;
  Status s = CommitDirty();
  if (!s.ok()) {
    // The store must stay usable after a failed commit: drop the batch and
    // restore the in-memory header from the file (best effort). If the
    // failure hit after the WAL became durable (during apply), reopening
    // replays the WAL, so the batch is not lost — merely not visible to
    // this process.
    dirty_.clear();
    (void)LoadHeader();
  }
  return s;
}

Status PageStore::RollbackBatch() {
  if (!in_batch_) return Status::InvalidArgument("no active batch");
  in_batch_ = false;
  dirty_.clear();
  // Restore the in-memory header state from the committed file image.
  return LoadHeader();
}

Result<PageId> PageStore::AllocatePage() {
  PageId id;
  if (free_head_ != kInvalidPageId) {
    id = free_head_;
    Page page;
    RQL_RETURN_IF_ERROR(ReadThrough(id, &page));
    free_head_ = page.ReadU32(0);
    --free_count_;
  } else {
    id = page_count_;
    ++page_count_;
  }
  Page zero;
  zero.Zero();
  dirty_[id] = zero;
  StageHeader();
  RQL_RETURN_IF_ERROR(MaybeAutoCommit());
  return id;
}

Status PageStore::FreePage(PageId id) {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument("FreePage: bad page id");
  }
  Page page;
  page.Zero();
  page.WriteU32(0, free_head_);
  dirty_[id] = page;
  free_head_ = id;
  ++free_count_;
  StageHeader();
  return MaybeAutoCommit();
}

Status PageStore::ReadPage(PageId id, Page* page) {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument("ReadPage: bad page id " +
                                   std::to_string(id));
  }
  return ReadThrough(id, page);
}

Status PageStore::WritePage(PageId id, const Page& page) {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument("WritePage: bad page id " +
                                   std::to_string(id));
  }
  dirty_[id] = page;
  return MaybeAutoCommit();
}

Result<PageId> PageStore::GetRoot(uint32_t slot) const {
  if (slot >= kNumRoots) {
    return Status::InvalidArgument("GetRoot: bad slot");
  }
  return roots_[slot];
}

Status PageStore::SetRoot(uint32_t slot, PageId id) {
  if (slot >= kNumRoots) {
    return Status::InvalidArgument("SetRoot: bad slot");
  }
  roots_[slot] = id;
  StageHeader();
  return MaybeAutoCommit();
}

}  // namespace rql::storage
