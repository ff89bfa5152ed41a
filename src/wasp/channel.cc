#include "src/wasp/channel.h"

#include <algorithm>
#include <string>

namespace wasp {

bool BytePipe::Write(const void* data, uint64_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return false;
    }
    buf_.insert(buf_.end(), p, p + len);
    if (observer_) {
      observer_();
    }
  }
  cv_.notify_all();
  return true;
}

uint64_t BytePipe::Read(void* dst, uint64_t len) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !buf_.empty() || closed_; });
  const uint64_t n = std::min<uint64_t>(len, buf_.size());
  uint8_t* out = static_cast<uint8_t*>(dst);
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = buf_.front();
    buf_.pop_front();
  }
  return n;
}

uint64_t BytePipe::ReadInto(std::vector<uint8_t>* out, uint64_t max) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !buf_.empty() || closed_; });
  const auto end = buf_.begin() + static_cast<ptrdiff_t>(std::min<uint64_t>(max, buf_.size()));
  out->assign(buf_.begin(), end);
  buf_.erase(buf_.begin(), end);
  return out->size();
}

uint64_t BytePipe::TryRead(void* dst, uint64_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t n = std::min<uint64_t>(len, buf_.size());
  uint8_t* out = static_cast<uint8_t*>(dst);
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = buf_.front();
    buf_.pop_front();
  }
  return n;
}

void BytePipe::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    if (observer_) {
      observer_();
    }
  }
  cv_.notify_all();
}

void BytePipe::SetObserver(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(fn);
}

std::vector<uint8_t> ByteChannel::Endpoint::Drain() {
  std::vector<uint8_t> out;
  uint8_t tmp[4096];
  while (true) {
    const uint64_t n = in_->TryRead(tmp, sizeof(tmp));
    if (n == 0) {
      break;
    }
    out.insert(out.end(), tmp, tmp + n);
  }
  return out;
}

}  // namespace wasp
