// The sandboxed host environment backing Wasp's canned hypercall handlers.
//
// The paper's Wasp validates hypercall arguments and then "re-creates the
// calls on the host" (e.g. a validated read() becomes a read() on the host
// filesystem).  This reproduction routes the canned POSIX-like handlers to
// an in-memory filesystem instead of the real one: it exercises the same
// code path (guest pointer validation, copy-in/copy-out, fd table) while
// keeping tests hermetic and making the isolation boundary auditable.
#ifndef SRC_WASP_HOST_ENV_H_
#define SRC_WASP_HOST_ENV_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace wasp {

// An in-memory filesystem shared by all virtines of a runtime (read paths)
// with per-virtine fd tables (created per invocation).
class HostEnv {
 public:
  HostEnv() = default;

  // Installs a file (replaces existing content).
  void PutFile(const std::string& path, std::vector<uint8_t> content);
  void PutFile(const std::string& path, const std::string& content);

  vbase::Result<std::vector<uint8_t>> GetFile(const std::string& path) const;
  // Copies the first min(cap, size) bytes of the file into *prefix and
  // returns its full size, both under one lock hold, so the size and the
  // bytes always describe the same version of the file.
  vbase::Result<uint64_t> ReadPrefix(const std::string& path, uint64_t cap,
                                     std::vector<uint8_t>* prefix) const;

 private:
  friend class FdTable;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<uint8_t>> files_;
};

// Per-virtine open-file table.  Reads snapshot file content at open() so a
// guest can never observe host-side mutation races.
class FdTable {
 public:
  explicit FdTable(HostEnv* env) : env_(env) {}

  // Returns a new fd (>= 3, POSIX-style), or an error if the path is absent.
  vbase::Result<int64_t> Open(const std::string& path);
  // Up to `len` bytes at the fd's cursor, which moves past them (none at
  // EOF): a view of the open file, valid until the fd is closed.
  vbase::Result<std::span<const uint8_t>> Read(int64_t fd, uint64_t len);
  // Appends to the file's write buffer (retrievable via TakeWrites for
  // assertions; writes never touch the shared HostEnv).
  vbase::Result<int64_t> Write(int64_t fd, const void* src, uint64_t len);
  vbase::Status Close(int64_t fd);

  // All bytes written through this table, in order (testing hook).
  std::vector<uint8_t> TakeWrites();

 private:
  struct OpenFile {
    std::vector<uint8_t> content;
    uint64_t cursor = 0;
  };
  HostEnv* env_;
  std::map<int64_t, OpenFile> open_;
  std::vector<uint8_t> writes_;
  int64_t next_fd_ = 3;
};

}  // namespace wasp

#endif  // SRC_WASP_HOST_ENV_H_
