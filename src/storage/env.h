#ifndef RQL_STORAGE_ENV_H_
#define RQL_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace rql::storage {

/// A file supporting positional reads/writes and appends. This single
/// abstraction backs the database file (random read/write), the Pagelog
/// (append + random read) and the Maplog (append + sequential read).
class File {
 public:
  virtual ~File() = default;

  /// Reads exactly `n` bytes at `offset` into `buf`. Fails with IoError on
  /// short reads.
  virtual Status Read(uint64_t offset, uint64_t n, char* buf) const = 0;

  /// Writes `n` bytes at `offset`, extending the file if needed.
  virtual Status Write(uint64_t offset, uint64_t n, const char* buf) = 0;

  /// Appends `n` bytes at the end; returns the offset the data landed at.
  virtual Status Append(uint64_t n, const char* buf, uint64_t* offset) = 0;

  virtual uint64_t Size() const = 0;

  /// Truncates the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Flushes buffered data to stable storage (fsync). Default: no-op.
  virtual Status Sync() { return Status::OK(); }
};

/// Factory for files, so the whole engine can run against in-memory state
/// (tests, benchmarks) or the local filesystem (examples, persistence).
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `name`, creating it if missing.
  virtual Result<std::unique_ptr<File>> OpenFile(const std::string& name) = 0;

  virtual Status DeleteFile(const std::string& name) = 0;

  /// Renames `from` to `to`, replacing `to` if it exists. Open File
  /// handles keep addressing the content they were opened on.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  virtual bool FileExists(const std::string& name) const = 0;
};

/// Backing store of one in-memory file, shared by every open handle on the
/// same name. The lock makes reads safe against a concurrent append
/// growing its chunk list — POSIX pread/pwrite give PosixFile the same
/// property for free — so snapshot readers can fetch immutable archive
/// records without holding any engine-level lock.
struct InMemoryFileData;

/// Env keeping all files in process memory. Files persist for the lifetime
/// of the Env, so closing and reopening a database against the same
/// InMemoryEnv behaves like a filesystem.
class InMemoryEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& name) override;
  Status DeleteFile(const std::string& name) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  bool FileExists(const std::string& name) const override;

  /// Total bytes held across all files; used by memory-footprint benches.
  uint64_t TotalBytes() const;

  /// Deep-copies every file into a fresh Env — the on-disk state an
  /// instantaneous crash would leave behind. Crash-recovery tests reopen
  /// databases from such clones.
  std::unique_ptr<InMemoryEnv> CloneState() const;

 private:
  friend class InMemoryFile;
  // Shared so open File handles survive DeleteFile of the name.
  std::vector<std::pair<std::string, std::shared_ptr<InMemoryFileData>>>
      files_;
};

/// Env backed by the local filesystem via POSIX pread/pwrite.
class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& name) override;
  Status DeleteFile(const std::string& name) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  bool FileExists(const std::string& name) const override;
};

/// PosixEnv rooted at a directory: every name resolves inside `root`,
/// which is created (one level) if missing. Tests use it to sandbox
/// on-disk database files under a tmpdir.
class FileEnv : public Env {
 public:
  explicit FileEnv(std::string root);

  Result<std::unique_ptr<File>> OpenFile(const std::string& name) override;
  Status DeleteFile(const std::string& name) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  bool FileExists(const std::string& name) const override;

  const std::string& root() const { return root_; }

 private:
  std::string Path(const std::string& name) const {
    return root_ + "/" + name;
  }

  PosixEnv posix_;
  std::string root_;
};

/// Returns a process-wide default Env (in-memory).
Env* DefaultEnv();

}  // namespace rql::storage

#endif  // RQL_STORAGE_ENV_H_
