// LineFeedBuf: a read-only streambuf over a file that hands the istream one
// line per underflow(). ReplayEventStream reads with std::getline, so the
// buffer learns the moment the replay loop starts reading each line. When
// that line is a close_period event, the buffer stamps the time: the close's
// quote delay is then measured from the moment its event is read to the
// return of ClosePeriod, through the unmodified ReplayEventsThroughEngine.
// File reads are 1 MiB chunks, so the I/O pattern is that of a filebuf.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <streambuf>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// \brief Nanoseconds on the steady clock.
int64_t NowNs();

class LineFeedBuf : public std::streambuf {
 public:
  LineFeedBuf() : buf_(kChunk) {}
  ~LineFeedBuf() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  LineFeedBuf(const LineFeedBuf&) = delete;
  LineFeedBuf& operator=(const LineFeedBuf&) = delete;

  maps::Status Open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) return maps::Status::NotFound("cannot open " + path);
    return maps::Status::OK();
  }

  /// Time the most recent close_period line was handed out; -1 before any.
  int64_t last_close_read_ns() const { return last_close_read_ns_; }
  /// close_period lines handed out so far.
  int64_t closes_read() const { return closes_read_; }

 protected:
  int_type underflow() override {
    if (gptr() != nullptr && gptr() < egptr()) {
      return traits_type::to_int_type(*gptr());
    }
    size_t begin = gptr() == nullptr ? 0 : egptr() - buf_.data();
    while (true) {
      const char* nl = static_cast<const char*>(
          std::memchr(buf_.data() + begin, '\n', end_ - begin));
      if (nl != nullptr) return Serve(begin, nl - buf_.data() + 1);
      if (eof_) {
        if (begin == end_) return traits_type::eof();
        return Serve(begin, end_);
      }
      // Keep the partial line, refill behind it (growing for long lines).
      std::memmove(buf_.data(), buf_.data() + begin, end_ - begin);
      end_ -= begin;
      begin = 0;
      if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      const size_t got =
          std::fread(buf_.data() + end_, 1, buf_.size() - end_, file_);
      if (got == 0) eof_ = true;
      end_ += got;
    }
  }

 private:
  static constexpr size_t kChunk = size_t{1} << 20;

  int_type Serve(size_t begin, size_t end) {
    char* base = buf_.data();
    setg(base + begin, base + begin, base + end);
    static constexpr char kClose[] = "\"close_period\"";
    if (memmem(base + begin, end - begin, kClose, sizeof(kClose) - 1) !=
        nullptr) {
      last_close_read_ns_ = NowNs();
      ++closes_read_;
    }
    return traits_type::to_int_type(base[begin]);
  }

  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  size_t end_ = 0;  // valid bytes in buf_
  bool eof_ = false;
  int64_t last_close_read_ns_ = -1;
  int64_t closes_read_ = 0;
};

}  // namespace perfbench
