#include "src/wasp/host_env.h"

#include <algorithm>

namespace wasp {

void HostEnv::PutFile(const std::string& path, std::vector<uint8_t> content) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = std::move(content);
}

void HostEnv::PutFile(const std::string& path, const std::string& content) {
  PutFile(path, std::vector<uint8_t>(content.begin(), content.end()));
}

vbase::Result<std::vector<uint8_t>> HostEnv::GetFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return vbase::NotFound("no such file: " + path);
  }
  return it->second;
}

vbase::Result<uint64_t> HostEnv::ReadPrefix(const std::string& path, uint64_t cap,
                                            std::vector<uint8_t>* prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return vbase::NotFound("no such file: " + path);
  }
  const std::vector<uint8_t>& content = it->second;
  prefix->assign(content.begin(),
                 content.begin() + static_cast<ptrdiff_t>(std::min<uint64_t>(cap, content.size())));
  return static_cast<uint64_t>(content.size());
}

vbase::Result<int64_t> FdTable::Open(const std::string& path) {
  auto content = env_->GetFile(path);
  if (!content.ok()) {
    return content.status();
  }
  const int64_t fd = next_fd_++;
  open_[fd] = OpenFile{std::move(content).value(), 0};
  return fd;
}

vbase::Result<std::span<const uint8_t>> FdTable::Read(int64_t fd, uint64_t len) {
  auto it = open_.find(fd);
  if (it == open_.end()) {
    return vbase::InvalidArgument("bad fd");
  }
  OpenFile& f = it->second;
  const std::span<const uint8_t> bytes(f.content.data() + f.cursor,
                                       std::min(len, f.content.size() - f.cursor));
  f.cursor += bytes.size();
  return bytes;
}

vbase::Result<int64_t> FdTable::Write(int64_t fd, const void* src, uint64_t len) {
  if (open_.find(fd) == open_.end() && fd != 1 && fd != 2) {
    return vbase::InvalidArgument("bad fd");
  }
  const uint8_t* p = static_cast<const uint8_t*>(src);
  writes_.insert(writes_.end(), p, p + len);
  return static_cast<int64_t>(len);
}

vbase::Status FdTable::Close(int64_t fd) {
  if (open_.erase(fd) == 0) {
    return vbase::InvalidArgument("bad fd");
  }
  return vbase::Status::Ok();
}

std::vector<uint8_t> FdTable::TakeWrites() {
  std::vector<uint8_t> out;
  out.swap(writes_);
  return out;
}

}  // namespace wasp
