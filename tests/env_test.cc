#include "storage/env.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/fault_env.h"
#include "storage/latency_env.h"
#include "storage/page.h"

namespace rql::storage {
namespace {

enum class EnvKind { kInMemory, kPosix, kFileDir, kFaultNoFaults };

const char* KindName(EnvKind kind) {
  switch (kind) {
    case EnvKind::kInMemory:
      return "InMemory";
    case EnvKind::kPosix:
      return "Posix";
    case EnvKind::kFileDir:
      return "FileDir";
    case EnvKind::kFaultNoFaults:
      return "FaultNoFaults";
  }
  return "?";
}

// Every Env implementation must satisfy the same file contract; a
// FaultInjectionEnv with nothing armed must be indistinguishable from its
// base env.
class EnvTest : public ::testing::TestWithParam<EnvKind> {
 protected:
  EnvTest() {
    switch (GetParam()) {
      case EnvKind::kInMemory:
        owned_ = std::make_unique<InMemoryEnv>();
        break;
      case EnvKind::kPosix:
        owned_ = std::make_unique<PosixEnv>();
        break;
      case EnvKind::kFileDir:
        owned_ = std::make_unique<FileEnv>("/tmp/rql_env_test_dir");
        break;
      case EnvKind::kFaultNoFaults:
        base_ = std::make_unique<InMemoryEnv>();
        owned_ = std::make_unique<FaultInjectionEnv>(base_.get());
        break;
    }
  }

  Env* env() { return owned_.get(); }

  std::string Name(const std::string& base) {
    return GetParam() == EnvKind::kPosix ? "/tmp/rql_env_test_" + base : base;
  }

  std::unique_ptr<Env> base_;
  std::unique_ptr<Env> owned_;
};

TEST_P(EnvTest, AppendReadRoundTrip) {
  auto file = env()->OpenFile(Name("a"));
  ASSERT_TRUE(file.ok());
  (*file)->Truncate(0).ok();
  uint64_t off = 0;
  ASSERT_TRUE((*file)->Append(5, "hello", &off).ok());
  EXPECT_EQ(off, 0u);
  ASSERT_TRUE((*file)->Append(5, "world", &off).ok());
  EXPECT_EQ(off, 5u);
  char buf[10];
  ASSERT_TRUE((*file)->Read(0, 10, buf).ok());
  EXPECT_EQ(std::string(buf, 10), "helloworld");
  EXPECT_EQ((*file)->Size(), 10u);
}

TEST_P(EnvTest, WriteExtendsFile) {
  auto file = env()->OpenFile(Name("b"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Truncate(0).ok());
  ASSERT_TRUE((*file)->Write(100, 3, "xyz").ok());
  EXPECT_EQ((*file)->Size(), 103u);
  char buf[3];
  ASSERT_TRUE((*file)->Read(100, 3, buf).ok());
  EXPECT_EQ(std::memcmp(buf, "xyz", 3), 0);
}

TEST_P(EnvTest, ReadPastEndFails) {
  auto file = env()->OpenFile(Name("c"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Truncate(0).ok());
  char buf[4];
  EXPECT_FALSE((*file)->Read(0, 4, buf).ok());
}

TEST_P(EnvTest, TruncateShrinks) {
  auto file = env()->OpenFile(Name("d"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Truncate(0).ok());
  uint64_t off;
  ASSERT_TRUE((*file)->Append(8, "12345678", &off).ok());
  ASSERT_TRUE((*file)->Truncate(4).ok());
  EXPECT_EQ((*file)->Size(), 4u);
  char buf[4];
  ASSERT_TRUE((*file)->Read(0, 4, buf).ok());
  EXPECT_EQ(std::memcmp(buf, "1234", 4), 0);
}

TEST_P(EnvTest, SyncSucceeds) {
  auto file = env()->OpenFile(Name("s"));
  ASSERT_TRUE(file.ok());
  uint64_t off;
  ASSERT_TRUE((*file)->Append(3, "abc", &off).ok());
  EXPECT_TRUE((*file)->Sync().ok());
}

TEST_P(EnvTest, ExistsAndDelete) {
  ASSERT_TRUE(env()->OpenFile(Name("e")).ok());
  EXPECT_TRUE(env()->FileExists(Name("e")));
  EXPECT_TRUE(env()->DeleteFile(Name("e")).ok());
  EXPECT_FALSE(env()->FileExists(Name("e")));
  EXPECT_FALSE(env()->DeleteFile(Name("e")).ok());
}

TEST_P(EnvTest, RenameMovesContent) {
  auto file = env()->OpenFile(Name("r1"));
  ASSERT_TRUE(file.ok());
  uint64_t off;
  ASSERT_TRUE((*file)->Append(3, "abc", &off).ok());
  file->reset();
  ASSERT_TRUE(env()->RenameFile(Name("r1"), Name("r2")).ok());
  EXPECT_FALSE(env()->FileExists(Name("r1")));
  auto moved = env()->OpenFile(Name("r2"));
  ASSERT_TRUE(moved.ok());
  ASSERT_EQ((*moved)->Size(), 3u);
  char buf[3];
  ASSERT_TRUE((*moved)->Read(0, 3, buf).ok());
  EXPECT_EQ(std::string(buf, 3), "abc");
  EXPECT_TRUE(env()->DeleteFile(Name("r2")).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllEnvs, EnvTest,
    ::testing::Values(EnvKind::kInMemory, EnvKind::kPosix, EnvKind::kFileDir,
                      EnvKind::kFaultNoFaults),
    [](const ::testing::TestParamInfo<EnvKind>& info) {
      return KindName(info.param);
    });

TEST(InMemoryEnvTest, PersistsAcrossReopen) {
  InMemoryEnv env;
  {
    auto file = env.OpenFile("f");
    ASSERT_TRUE(file.ok());
    uint64_t off;
    ASSERT_TRUE((*file)->Append(3, "abc", &off).ok());
  }
  auto again = env.OpenFile("f");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->Size(), 3u);
}

TEST(InMemoryEnvTest, TotalBytes) {
  InMemoryEnv env;
  auto a = env.OpenFile("a");
  auto b = env.OpenFile("b");
  uint64_t off;
  ASSERT_TRUE((*a)->Append(10, "0123456789", &off).ok());
  ASSERT_TRUE((*b)->Append(5, "01234", &off).ok());
  EXPECT_EQ(env.TotalBytes(), 15u);
}

TEST(InMemoryEnvTest, LargeFileKeepsItsBytesAndZeroFillsGrowth) {
  InMemoryEnv env;
  auto file = env.OpenFile("f");
  ASSERT_TRUE(file.ok());
  // Odd-sized appends, so records straddle the store's internal chunks.
  std::string expect;
  for (int i = 0; expect.size() < 300 * 1024; ++i) {
    std::string record(4099 + i % 7, static_cast<char>('a' + i % 26));
    uint64_t off = 0;
    ASSERT_TRUE((*file)->Append(record.size(), record.data(), &off).ok());
    EXPECT_EQ(off, expect.size());
    expect += record;
  }
  std::string got(expect.size(), '\0');
  ASSERT_TRUE((*file)->Read(0, got.size(), got.data()).ok());
  EXPECT_EQ(got, expect);
  // Shrink into the middle of a chunk, then grow past the old end: the
  // bytes between are zero, as with a POSIX file.
  const uint64_t cut = 100 * 1024 + 5;
  ASSERT_TRUE((*file)->Truncate(cut).ok());
  ASSERT_TRUE((*file)->Write(expect.size(), 3, "end").ok());
  EXPECT_EQ((*file)->Size(), expect.size() + 3);
  expect = expect.substr(0, cut) + std::string(expect.size() - cut, '\0') +
           "end";
  got.assign(expect.size(), 'x');
  ASSERT_TRUE((*file)->Read(0, got.size(), got.data()).ok());
  EXPECT_EQ(got, expect);
  auto clone = env.CloneState()->OpenFile("f");
  ASSERT_TRUE(clone.ok());
  got.assign(expect.size(), 'x');
  ASSERT_TRUE((*clone)->Read(0, got.size(), got.data()).ok());
  EXPECT_EQ(got, expect);
  EXPECT_FALSE((*file)->Read(expect.size() - 1, 2, got.data()).ok());
}

TEST(ReadLatencyEnvTest, SleepsOnPageSizedReadsOfMatchingFiles) {
  InMemoryEnv base;
  ReadLatencyEnv env(&base);
  env.set_read_latency_us(1);
  std::string page(kPageSize, 'p');
  char buf[kPageSize];
  for (const char* name : {"db.pagelog", "db.maplog"}) {
    auto file = env.OpenFile(name);
    ASSERT_TRUE(file.ok());
    uint64_t off;
    ASSERT_TRUE((*file)->Append(page.size(), page.data(), &off).ok());
    ASSERT_TRUE((*file)->Read(0, 16, buf).ok());         // a header
    ASSERT_TRUE((*file)->Read(0, kPageSize, buf).ok());  // a page
    EXPECT_EQ(std::string(buf, kPageSize), page);
  }
  // One sleep: the page of the matching file.
  EXPECT_EQ(env.sleeps(), 1);
  env.set_read_latency_us(0);
  auto file = env.OpenFile("db.pagelog");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Read(0, kPageSize, buf).ok());
  EXPECT_EQ(env.sleeps(), 1);
}

TEST(ReadLatencyEnvTest, ReadSlotsQueueConcurrentSleeps) {
  // Three concurrent page reads behind one slot sleep one after another.
  constexpr int kReaders = 3;
  constexpr int64_t kLatencyUs = 20000;
  InMemoryEnv base;
  ReadLatencyEnv env(&base);
  std::string page(kPageSize, 'p');
  {
    auto file = env.OpenFile("db.pagelog");
    ASSERT_TRUE(file.ok());
    uint64_t off;
    ASSERT_TRUE((*file)->Append(page.size(), page.data(), &off).ok());
  }
  env.set_read_latency_us(kLatencyUs);
  env.set_read_slots(1);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&env] {
      auto file = env.OpenFile("db.pagelog");
      char buf[kPageSize];
      EXPECT_TRUE(file.ok() && (*file)->Read(0, kPageSize, buf).ok());
    });
  }
  for (std::thread& t : readers) t.join();
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(env.sleeps(), kReaders);
  EXPECT_GE(elapsed, kReaders * kLatencyUs);
}

}  // namespace
}  // namespace rql::storage
