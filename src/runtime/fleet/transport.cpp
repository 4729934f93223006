#include "runtime/fleet/transport.hpp"

#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace parbounds::fleet {

namespace {

/// write(2) until `bytes` is fully flushed, retrying EINTR; false on
/// any other error (notably EPIPE when the reader died).
bool write_all_fd(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool FdTransport::recv(std::string& payload) {
  for (;;) {
    switch (decoder_.next(payload)) {
      case service::FrameResult::Ok:
        return true;
      case service::FrameResult::TooLarge:
        eof_mid_frame_ = true;  // protocol error: same death signal
        return false;
      case service::FrameResult::NeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = ::read(rfd_, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      eof_mid_frame_ = true;
      return false;
    }
    if (n == 0) {
      eof_mid_frame_ = decoder_.mid_frame();
      return false;
    }
    decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

void FdTransport::send(const std::string& payload) {
  frame_scratch_.clear();
  service::append_frame(frame_scratch_, payload, max_payload_);
  if (!write_all_fd(wfd_, frame_scratch_)) send_failed_ = true;
}

void WriteQueue::push(std::string_view payload, std::size_t max_payload) {
  std::string frame;
  if (!spare_.empty()) {
    frame = std::move(spare_.back());
    spare_.pop_back();
    frame.clear();
  }
  service::append_frame(frame, payload, max_payload);
  frames_.push_back(std::move(frame));
}

WriteQueue::Flush WriteQueue::flush(int fd, std::uint64_t& bytes_written,
                                    std::uint64_t& frames_written) {
  constexpr int kMaxIov = 16;
  while (!frames_.empty()) {
    struct iovec iov[kMaxIov];
    int iovn = 0;
    std::size_t off = front_off_;
    for (const std::string& f : frames_) {
      if (iovn == kMaxIov) break;
      iov[iovn].iov_base =
          const_cast<char*>(f.data() + off);  // writev API takes void*
      iov[iovn].iov_len = f.size() - off;
      ++iovn;
      off = 0;
    }
    const ssize_t n = ::writev(fd, iov, iovn);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Flush::Again;
      return Flush::Error;
    }
    bytes_written += static_cast<std::uint64_t>(n);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      std::string& front = frames_.front();
      const std::size_t avail = front.size() - front_off_;
      if (left >= avail) {
        left -= avail;
        ++frames_written;
        spare_.push_back(std::move(front));
        frames_.pop_front();
        front_off_ = 0;
      } else {
        front_off_ += left;
        left = 0;
      }
    }
  }
  return Flush::Done;
}

void WriteQueue::clear() {
  while (!frames_.empty()) {
    spare_.push_back(std::move(frames_.front()));
    frames_.pop_front();
  }
  front_off_ = 0;
}

}  // namespace parbounds::fleet
