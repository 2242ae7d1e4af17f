#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <shared_mutex>

namespace rql::storage {

/// A file's bytes in fixed-size chunks. Growth allocates chunks and never
/// moves the bytes already written, so a long append-only file (the
/// Pagelog) costs no reallocation copies and leaves no freed buffers of
/// half its size behind. Every chunk byte at or past `size` is zero, which
/// is what a read of a region extended by Write or Truncate returns.
struct InMemoryFileData {
  static constexpr uint64_t kChunkBytes = 64 * 1024;

  mutable std::shared_mutex mu;
  std::vector<std::unique_ptr<char[]>> chunks;
  uint64_t size = 0;

  /// Makes the file `n` bytes long: new bytes read as zero.
  void Resize(uint64_t n) {
    const uint64_t need = (n + kChunkBytes - 1) / kChunkBytes;
    if (n < size) {
      chunks.resize(need);
      const uint64_t tail = n % kChunkBytes;
      if (tail != 0) {
        std::memset(chunks.back().get() + tail, 0, kChunkBytes - tail);
      }
    }
    while (chunks.size() < need) {
      chunks.push_back(std::make_unique<char[]>(kChunkBytes));  // zeroed
    }
    size = n;
  }

  void CopyOut(uint64_t offset, uint64_t n, char* buf) const {
    while (n > 0) {
      const uint64_t at = offset % kChunkBytes;
      const uint64_t len = std::min(n, kChunkBytes - at);
      std::memcpy(buf, chunks[offset / kChunkBytes].get() + at, len);
      offset += len;
      buf += len;
      n -= len;
    }
  }

  void CopyIn(uint64_t offset, uint64_t n, const char* buf) {
    while (n > 0) {
      const uint64_t at = offset % kChunkBytes;
      const uint64_t len = std::min(n, kChunkBytes - at);
      std::memcpy(chunks[offset / kChunkBytes].get() + at, buf, len);
      offset += len;
      buf += len;
      n -= len;
    }
  }
};

namespace {

class InMemoryFile : public File {
 public:
  explicit InMemoryFile(std::shared_ptr<InMemoryFileData> data)
      : data_(std::move(data)) {}

  Status Read(uint64_t offset, uint64_t n, char* buf) const override {
    std::shared_lock<std::shared_mutex> lock(data_->mu);
    if (offset + n > data_->size) {
      return Status::IoError("read past end of in-memory file");
    }
    data_->CopyOut(offset, n, buf);
    return Status::OK();
  }

  Status Write(uint64_t offset, uint64_t n, const char* buf) override {
    std::lock_guard<std::shared_mutex> lock(data_->mu);
    if (offset + n > data_->size) data_->Resize(offset + n);
    data_->CopyIn(offset, n, buf);
    return Status::OK();
  }

  Status Append(uint64_t n, const char* buf, uint64_t* offset) override {
    std::lock_guard<std::shared_mutex> lock(data_->mu);
    *offset = data_->size;
    data_->Resize(data_->size + n);
    data_->CopyIn(*offset, n, buf);
    return Status::OK();
  }

  uint64_t Size() const override {
    std::shared_lock<std::shared_mutex> lock(data_->mu);
    return data_->size;
  }

  Status Truncate(uint64_t size) override {
    std::lock_guard<std::shared_mutex> lock(data_->mu);
    data_->Resize(size);
    return Status::OK();
  }

 private:
  std::shared_ptr<InMemoryFileData> data_;
};

class PosixFile : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override { ::close(fd_); }

  Status Read(uint64_t offset, uint64_t n, char* buf) const override {
    uint64_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, buf + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("pread: ") + std::strerror(errno));
      }
      if (r == 0) return Status::IoError("pread: short read");
      done += static_cast<uint64_t>(r);
    }
    return Status::OK();
  }

  Status Write(uint64_t offset, uint64_t n, const char* buf) override {
    uint64_t done = 0;
    while (done < n) {
      ssize_t w = ::pwrite(fd_, buf + done, n - done,
                           static_cast<off_t>(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
      }
      done += static_cast<uint64_t>(w);
    }
    return Status::OK();
  }

  Status Append(uint64_t n, const char* buf, uint64_t* offset) override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IoError(std::string("fstat: ") + std::strerror(errno));
    }
    *offset = static_cast<uint64_t>(st.st_size);
    return Write(*offset, n, buf);
  }

  uint64_t Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IoError(std::string("ftruncate: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IoError(std::string("fsync: ") + std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
};

}  // namespace

Result<std::unique_ptr<File>> InMemoryEnv::OpenFile(const std::string& name) {
  for (auto& [n, data] : files_) {
    if (n == name) return std::unique_ptr<File>(new InMemoryFile(data));
  }
  auto data = std::make_shared<InMemoryFileData>();
  files_.emplace_back(name, data);
  return std::unique_ptr<File>(new InMemoryFile(std::move(data)));
}

Status InMemoryEnv::DeleteFile(const std::string& name) {
  for (auto it = files_.begin(); it != files_.end(); ++it) {
    if (it->first == name) {
      files_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no such in-memory file: " + name);
}

Status InMemoryEnv::RenameFile(const std::string& from,
                               const std::string& to) {
  std::shared_ptr<InMemoryFileData> data;
  for (auto it = files_.begin(); it != files_.end(); ++it) {
    if (it->first == from) {
      data = it->second;
      files_.erase(it);
      break;
    }
  }
  if (data == nullptr) {
    return Status::NotFound("no such in-memory file: " + from);
  }
  for (auto it = files_.begin(); it != files_.end(); ++it) {
    if (it->first == to) {
      files_.erase(it);
      break;
    }
  }
  files_.emplace_back(to, std::move(data));
  return Status::OK();
}

bool InMemoryEnv::FileExists(const std::string& name) const {
  for (const auto& [n, data] : files_) {
    if (n == name) return true;
  }
  return false;
}

uint64_t InMemoryEnv::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [n, data] : files_) {
    std::shared_lock<std::shared_mutex> lock(data->mu);
    total += data->size;
  }
  return total;
}

std::unique_ptr<InMemoryEnv> InMemoryEnv::CloneState() const {
  auto clone = std::make_unique<InMemoryEnv>();
  for (const auto& [name, data] : files_) {
    auto copy = std::make_shared<InMemoryFileData>();
    std::shared_lock<std::shared_mutex> lock(data->mu);
    copy->Resize(data->size);
    for (size_t i = 0; i < data->chunks.size(); ++i) {
      std::memcpy(copy->chunks[i].get(), data->chunks[i].get(),
                  InMemoryFileData::kChunkBytes);
    }
    clone->files_.emplace_back(name, std::move(copy));
  }
  return clone;
}

Result<std::unique_ptr<File>> PosixEnv::OpenFile(const std::string& name) {
  int fd = ::open(name.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open " + name + ": " + std::strerror(errno));
  }
  return std::unique_ptr<File>(new PosixFile(fd));
}

Status PosixEnv::DeleteFile(const std::string& name) {
  if (::unlink(name.c_str()) != 0) {
    return Status::IoError("unlink " + name + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError("rename " + from + " -> " + to + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& name) const {
  return ::access(name.c_str(), F_OK) == 0;
}

FileEnv::FileEnv(std::string root) : root_(std::move(root)) {
  ::mkdir(root_.c_str(), 0755);  // EEXIST is fine; OpenFile surfaces errors
}

Result<std::unique_ptr<File>> FileEnv::OpenFile(const std::string& name) {
  return posix_.OpenFile(Path(name));
}

Status FileEnv::DeleteFile(const std::string& name) {
  return posix_.DeleteFile(Path(name));
}

Status FileEnv::RenameFile(const std::string& from, const std::string& to) {
  return posix_.RenameFile(Path(from), Path(to));
}

bool FileEnv::FileExists(const std::string& name) const {
  return posix_.FileExists(Path(name));
}

Env* DefaultEnv() {
  static InMemoryEnv* env = new InMemoryEnv();
  return env;
}

}  // namespace rql::storage
