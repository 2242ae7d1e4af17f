#include "sql/heap_table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "retro/snapshot_store.h"

namespace rql::sql {
namespace {

class HeapTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = retro::SnapshotStore::Open(&env_, "t");
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    auto root = HeapTable::Create(store_.get());
    ASSERT_TRUE(root.ok());
    root_ = *root;
  }

  std::vector<std::string> ScanAll(storage::PageReader* reader = nullptr) {
    std::vector<std::string> records;
    auto it = HeapTable::Scan(reader ? reader : store_.get(), root_);
    for (; it.Valid(); it.Next()) {
      records.emplace_back(it.record());
    }
    EXPECT_TRUE(it.status().ok()) << it.status().ToString();
    return records;
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<retro::SnapshotStore> store_;
  storage::PageId root_ = storage::kInvalidPageId;
};

TEST_F(HeapTableTest, InsertAndScan) {
  HeapTable table(store_.get(), root_);
  for (int i = 0; i < 10; ++i) {
    auto rid = table.Insert("rec" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
  }
  auto records = ScanAll();
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records[0], "rec0");
  EXPECT_EQ(records[9], "rec9");
}

TEST_F(HeapTableTest, GetByRid) {
  HeapTable table(store_.get(), root_);
  auto rid = table.Insert("hello");
  ASSERT_TRUE(rid.ok());
  auto rec = HeapTable::Get(store_.get(), *rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "hello");
}

TEST_F(HeapTableTest, DeleteHidesRecord) {
  HeapTable table(store_.get(), root_);
  auto a = table.Insert("a");
  auto b = table.Insert("b");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(table.Delete(*a).ok());
  auto records = ScanAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "b");
  EXPECT_FALSE(HeapTable::Get(store_.get(), *a).ok());
  EXPECT_FALSE(table.Delete(*a).ok());  // double delete
}

TEST_F(HeapTableTest, SpansManyPages) {
  HeapTable table(store_.get(), root_);
  std::string record(500, 'x');
  for (int i = 0; i < 100; ++i) {
    record[0] = static_cast<char>('a' + i % 26);
    ASSERT_TRUE(table.Insert(record).ok());
  }
  auto pages = HeapTable::CountPages(store_.get(), root_);
  ASSERT_TRUE(pages.ok());
  EXPECT_GT(*pages, 10u);
  EXPECT_EQ(ScanAll().size(), 100u);
}

TEST_F(HeapTableTest, EmptiedPagesAreRecycled) {
  HeapTable table(store_.get(), root_);
  std::string record(500, 'x');
  std::vector<Rid> rids;
  for (int i = 0; i < 100; ++i) {
    auto rid = table.Insert(record);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  uint32_t before = store_->page_store()->allocated_pages();
  // Delete everything, then reinsert the same volume: the table should not
  // net-grow the database (rotating TPC-H refresh pattern).
  for (Rid rid : rids) ASSERT_TRUE(table.Delete(rid).ok());
  auto pages_after_delete = HeapTable::CountPages(store_.get(), root_);
  ASSERT_TRUE(pages_after_delete.ok());
  EXPECT_EQ(*pages_after_delete, 1u);  // only the root remains
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Insert(record).ok());
  }
  EXPECT_LE(store_->page_store()->allocated_pages(), before + 1);
  EXPECT_EQ(ScanAll().size(), 100u);
}

TEST_F(HeapTableTest, DeadSlotSpaceIsCompacted) {
  HeapTable table(store_.get(), root_);
  // Fill one page, delete half, and verify new records still fit without
  // chaining a second page.
  std::string record(300, 'y');
  std::vector<Rid> rids;
  for (int i = 0; i < 13; ++i) {  // ~3900 bytes + slots: page nearly full
    auto rid = table.Insert(record);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(table.Delete(rids[i]).ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(table.Insert(record).ok());
  auto pages = HeapTable::CountPages(store_.get(), root_);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 1u);
}

TEST_F(HeapTableTest, UpdateInPlaceAndMoving) {
  HeapTable table(store_.get(), root_);
  auto rid = table.Insert("0123456789");
  ASSERT_TRUE(rid.ok());
  // Same-size update stays in place.
  auto same = table.Update(*rid, "abcdefghij");
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, *rid);
  // A larger update may move.
  std::string big(100, 'z');
  auto moved = table.Update(*same, big);
  ASSERT_TRUE(moved.ok());
  auto rec = HeapTable::Get(store_.get(), *moved);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, big);
}

/// Counts each page's reads and writes on the way to the wrapped writer.
class CountingWriter : public storage::PageWriter {
 public:
  explicit CountingWriter(storage::PageWriter* base) : base_(base) {}
  Status ReadPage(storage::PageId id, storage::Page* page) override {
    ++reads[id];
    return base_->ReadPage(id, page);
  }
  Status WritePage(storage::PageId id, const storage::Page& page) override {
    ++writes[id];
    return base_->WritePage(id, page);
  }
  Result<storage::PageId> AllocatePage() override {
    return base_->AllocatePage();
  }
  Status FreePage(storage::PageId id) override { return base_->FreePage(id); }

  std::map<storage::PageId, int> reads, writes;

 private:
  storage::PageWriter* base_;
};

TEST_F(HeapTableTest, OverwriteTouchesEachPageOnceWithUpdatesBytes) {
  // A twin store takes the same inserts, then the overwrites as Update
  // calls one at a time; every page must end byte-identical.
  storage::InMemoryEnv twin_env;
  auto twin = retro::SnapshotStore::Open(&twin_env, "t");
  ASSERT_TRUE(twin.ok());
  auto twin_root = HeapTable::Create(twin->get());
  ASSERT_TRUE(twin_root.ok());
  ASSERT_EQ(*twin_root, root_);
  HeapTable table(store_.get(), root_);
  HeapTable twin_table(twin->get(), root_);
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) {
    std::string record(300, static_cast<char>('a' + i % 26));
    auto rid = table.Insert(record);
    ASSERT_TRUE(rid.ok());
    auto twin_rid = twin_table.Insert(record);
    ASSERT_TRUE(twin_rid.ok());
    ASSERT_EQ(*rid, *twin_rid);
    rids.push_back(*rid);
  }
  // Pages interleave; row 0 is rewritten twice, shrinking both times, and
  // row 12 keeps its size.
  std::vector<RecordOverwrite> overwrites;
  std::set<storage::PageId> touched;
  for (int i : {0, 25, 3, 12, 0, 27, 13}) {
    size_t size = i == 12 ? 300 : 200 - overwrites.size() * 10;
    overwrites.push_back({rids[i], std::string(size, 'A' + i % 26)});
    touched.insert(RidPage(rids[i]));
  }
  ASSERT_GE(touched.size(), 3u);
  for (const RecordOverwrite& o : overwrites) {
    auto rid = twin_table.Update(o.rid, o.record);
    ASSERT_TRUE(rid.ok());
    ASSERT_EQ(*rid, o.rid);
  }

  CountingWriter counting(store_.get());
  HeapTable counted(&counting, root_);
  ASSERT_TRUE(counted.Overwrite(overwrites).ok());
  EXPECT_EQ(counting.reads.size(), touched.size());
  EXPECT_EQ(counting.writes.size(), touched.size());
  for (storage::PageId id : touched) {
    EXPECT_EQ(counting.reads[id], 1) << id;
    EXPECT_EQ(counting.writes[id], 1) << id;
  }

  storage::PageId id = root_;
  while (id != storage::kInvalidPageId) {
    storage::Page page, twin_page;
    ASSERT_TRUE(store_->ReadPage(id, &page).ok());
    ASSERT_TRUE((*twin)->ReadPage(id, &twin_page).ok());
    EXPECT_EQ(std::memcmp(page.data, twin_page.data, storage::kPageSize), 0)
        << "page " << id;
    id = page.ReadU32(0);  // the next-page link
  }
  EXPECT_EQ(ScanAll().size(), 30u);
}

TEST_F(HeapTableTest, OverwriteRejectsGrownRecordsAndDeadSlots) {
  HeapTable table(store_.get(), root_);
  auto live = table.Insert("short");
  auto dead = table.Insert("other");
  ASSERT_TRUE(live.ok() && dead.ok());
  ASSERT_TRUE(table.Delete(*dead).ok());

  CountingWriter counting(store_.get());
  HeapTable counted(&counting, root_);
  EXPECT_TRUE(counted.Overwrite({{*live, "longer!"}}).IsInvalidArgument());
  EXPECT_TRUE(counted.Overwrite({{*dead, "x"}}).IsNotFound());
  EXPECT_TRUE(
      counted.Overwrite({{MakeRid(RidPage(*live), 99), "x"}}).IsNotFound());
  // A valid overwrite ahead of a bad one on the same page is not written.
  EXPECT_TRUE(counted.Overwrite({{*live, "tiny"}, {*dead, "x"}}).IsNotFound());
  EXPECT_TRUE(counting.writes.empty());
  auto record = HeapTable::Get(store_.get(), *live);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(*record, "short");
}

TEST_F(HeapTableTest, RejectsOversizedRecord) {
  HeapTable table(store_.get(), root_);
  std::string huge(storage::kPageSize, 'x');
  EXPECT_FALSE(table.Insert(huge).ok());
}

TEST_F(HeapTableTest, DropFreesAllPages) {
  HeapTable table(store_.get(), root_);
  std::string record(500, 'x');
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(table.Insert(record).ok());
  ASSERT_TRUE(table.Drop().ok());
  EXPECT_EQ(store_->page_store()->allocated_pages(), 0u);
}

TEST_F(HeapTableTest, SnapshotScanSeesOldRecords) {
  HeapTable table(store_.get(), root_);
  ASSERT_TRUE(table.Insert("old1").ok());
  ASSERT_TRUE(table.Insert("old2").ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  auto it = HeapTable::Scan(store_.get(), root_);
  std::vector<Rid> rids;
  for (; it.Valid(); it.Next()) rids.push_back(it.rid());
  ASSERT_TRUE(table.Delete(rids[0]).ok());
  ASSERT_TRUE(table.Insert("new").ok());

  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  auto old_records = ScanAll(view->get());
  ASSERT_EQ(old_records.size(), 2u);
  EXPECT_EQ(old_records[0], "old1");
  EXPECT_EQ(old_records[1], "old2");

  auto current = ScanAll();
  std::set<std::string> current_set(current.begin(), current.end());
  EXPECT_EQ(current_set, (std::set<std::string>{"old2", "new"}));
}

TEST_F(HeapTableTest, ScanOfEmptyTable) {
  EXPECT_TRUE(ScanAll().empty());
}

}  // namespace
}  // namespace rql::sql
