// In-process duplex byte channel: the transport behind the send/recv
// hypercalls (and the loopback "socket" used by the HTTP benchmarks).
//
// A channel is a pair of directed byte queues.  The host side (load
// generator / server front-end) holds one end; the virtine's send/recv
// hypercall handlers drive the other.  Blocking reads use a condition
// variable so multi-threaded load generators work; Close() wakes readers
// with EOF.
#ifndef SRC_WASP_CHANNEL_H_
#define SRC_WASP_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wasp {

// One direction of a duplex stream.
class BytePipe {
 public:
  // Appends bytes; wakes blocked readers.  Returns false if closed.
  bool Write(const void* data, uint64_t len);
  // Reads up to `len` bytes, blocking until data is available or the pipe is
  // closed.  Returns the byte count (0 = EOF).
  uint64_t Read(void* dst, uint64_t len);
  // Read into a vector: `*out` ends up holding exactly the bytes taken (up
  // to `max`), so a large cap costs nothing until bytes arrive.
  uint64_t ReadInto(std::vector<uint8_t>* out, uint64_t max);
  // Non-blocking variant; returns 0 when empty (even if open).
  uint64_t TryRead(void* dst, uint64_t len);
  void Close();

  // Readiness hook for event-loop readers that cannot block in Read: `fn`
  // runs after every successful Write and after Close (under the pipe lock —
  // it must only signal, e.g. write an eventfd, never call back into the
  // pipe).  One observer; set empty to clear.
  void SetObserver(std::function<void()> fn);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<uint8_t> buf_;
  bool closed_ = false;
  std::function<void()> observer_;
};

// A duplex channel: `a_to_b` and `b_to_a` pipes plus two endpoint views.
class ByteChannel {
 public:
  // Endpoint view with read/write oriented to one side.
  class Endpoint {
   public:
    Endpoint() = default;
    Endpoint(BytePipe* in, BytePipe* out) : in_(in), out_(out) {}
    bool Write(const void* data, uint64_t len) { return out_->Write(data, len); }
    bool WriteString(const std::string& s) { return Write(s.data(), s.size()); }
    uint64_t Read(void* dst, uint64_t len) { return in_->Read(dst, len); }
    uint64_t ReadInto(std::vector<uint8_t>* out, uint64_t max) { return in_->ReadInto(out, max); }
    // Reads everything currently buffered without blocking.
    std::vector<uint8_t> Drain();
    void CloseWrite() { out_->Close(); }
    // Observer on this endpoint's inbound pipe: fires when the peer writes
    // or closes (see BytePipe::SetObserver).  Lets an epoll loop treat the
    // channel as a readiness source instead of blocking a thread in Read.
    void SetReadObserver(std::function<void()> fn) { in_->SetObserver(std::move(fn)); }

   private:
    BytePipe* in_ = nullptr;
    BytePipe* out_ = nullptr;
  };

  ByteChannel() : host_(&b_to_a_, &a_to_b_), guest_(&a_to_b_, &b_to_a_) {}

  // The host-side endpoint (e.g. the load generator).
  Endpoint& host() { return host_; }
  // The guest-side endpoint (driven by the send/recv hypercall handlers).
  Endpoint& guest() { return guest_; }

 private:
  BytePipe a_to_b_;  // host -> guest
  BytePipe b_to_a_;  // guest -> host
  Endpoint host_;
  Endpoint guest_;
};

}  // namespace wasp

#endif  // SRC_WASP_CHANNEL_H_
