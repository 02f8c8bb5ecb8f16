#include "ipc/loopback.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

namespace tman {

namespace {

/// One direction of a loopback connection: a bounded byte queue with
/// socket-like close semantics. Closing the write side lets the reader
/// drain what was already sent and then see end-of-stream; closing the
/// read side fails subsequent writes (RST-style).
struct HalfPipe {
  explicit HalfPipe(size_t capacity) : capacity(capacity) {}

  const size_t capacity;
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::string buffer;  // FIFO: append at back, consume from front
  size_t read_pos = 0;
  bool write_closed = false;
  bool read_closed = false;

  Status Write(std::string_view data) {
    std::unique_lock<std::mutex> lock(mutex);
    size_t written = 0;
    while (written < data.size()) {
      cv.wait(lock, [&] {
        return read_closed || write_closed ||
               buffer.size() - read_pos < capacity;
      });
      if (read_closed || write_closed) {
        return Status::IoError("loopback connection closed");
      }
      size_t room = capacity - (buffer.size() - read_pos);
      size_t n = std::min(room, data.size() - written);
      buffer.append(data.data() + written, n);
      written += n;
      cv.notify_all();
    }
    return Status::OK();
  }

  Result<size_t> ReadSome(char* buf, size_t cap) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] {
      return read_closed || write_closed || buffer.size() > read_pos;
    });
    if (read_closed) return Status::IoError("loopback connection closed");
    size_t available = buffer.size() - read_pos;
    if (available == 0) return size_t{0};  // write side closed: EOF
    size_t n = std::min(cap, available);
    std::memcpy(buf, buffer.data() + read_pos, n);
    read_pos += n;
    // Compact once the consumed prefix dominates, to keep the buffer from
    // growing without bound across long streams.
    if (read_pos > capacity && read_pos * 2 > buffer.size()) {
      buffer.erase(0, read_pos);
      read_pos = 0;
    }
    cv.notify_all();
    return n;
  }

  bool ReadReady() const {
    std::lock_guard<std::mutex> lock(mutex);
    return read_closed || write_closed || buffer.size() > read_pos;
  }

  Result<size_t> TryWrite(std::string_view data) {
    std::lock_guard<std::mutex> lock(mutex);
    if (read_closed || write_closed) {
      return Status::IoError("loopback connection closed");
    }
    size_t room = capacity - (buffer.size() - read_pos);
    size_t n = std::min(room, data.size());
    if (n > 0) {
      buffer.append(data.data(), n);
      cv.notify_all();
    }
    return n;
  }

  void CloseWrite() {
    std::lock_guard<std::mutex> lock(mutex);
    write_closed = true;
    cv.notify_all();
  }

  void CloseRead() {
    std::lock_guard<std::mutex> lock(mutex);
    read_closed = true;
    cv.notify_all();
  }
};

std::atomic<uint64_t> g_loopback_id{1};

class LoopbackTransportImpl : public PollableTransport {
 public:
  LoopbackTransportImpl(std::shared_ptr<HalfPipe> in,
                        std::shared_ptr<HalfPipe> out, std::string peer)
      : in_(std::move(in)), out_(std::move(out)), peer_(std::move(peer)) {}

  ~LoopbackTransportImpl() override { Close(); }

  Status Write(std::string_view data) override { return out_->Write(data); }

  Result<size_t> ReadSome(char* buf, size_t cap) override {
    return in_->ReadSome(buf, cap);
  }

  bool ReadReady() const override { return in_->ReadReady(); }

  Result<size_t> TryWrite(std::string_view data) override {
    return out_->TryWrite(data);
  }

  void Close() override {
    // Inbound first: our reads and the peer's writes fail fast. Closed in
    // this order, nothing the peer sends in reaction to our EOF (a server
    // goodbye for a frame cut in half, say) can reach a reader of ours.
    in_->CloseRead();
    // Outbound: peer may still drain buffered bytes, then sees EOF.
    out_->CloseWrite();
  }

  std::string peer() const override { return peer_; }

 private:
  std::shared_ptr<HalfPipe> in_;
  std::shared_ptr<HalfPipe> out_;
  std::string peer_;
};

}  // namespace

std::pair<std::unique_ptr<PollableTransport>, std::unique_ptr<PollableTransport>>
CreatePollableLoopbackPair(size_t capacity) {
  auto a_to_b = std::make_shared<HalfPipe>(capacity);
  auto b_to_a = std::make_shared<HalfPipe>(capacity);
  uint64_t id = g_loopback_id.fetch_add(1, std::memory_order_relaxed);
  auto a = std::make_unique<LoopbackTransportImpl>(
      b_to_a, a_to_b, "loopback#" + std::to_string(id) + ".client");
  auto b = std::make_unique<LoopbackTransportImpl>(
      a_to_b, b_to_a, "loopback#" + std::to_string(id) + ".server");
  return {std::move(a), std::move(b)};
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
CreateLoopbackPair(size_t capacity) {
  auto [a, b] = CreatePollableLoopbackPair(capacity);
  return {std::move(a), std::move(b)};
}

Result<std::unique_ptr<Transport>> LoopbackListener::Connect() {
  auto [client_end, server_end] = CreateLoopbackPair(capacity_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return Status::Aborted("listener closed");
    pending_.push_back(std::move(server_end));
  }
  cv_.notify_one();
  return std::move(client_end);
}

Result<std::unique_ptr<Transport>> LoopbackListener::Accept() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return closed_ || !pending_.empty(); });
  if (!pending_.empty()) {
    auto t = std::move(pending_.front());
    pending_.pop_front();
    return t;
  }
  return Status::Aborted("listener closed");
}

void LoopbackListener::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace tman
