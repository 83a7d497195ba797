// Byte-stream serialization.
//
// The paper's data interface moves "generic byte streams" between backends
// (filesystem / tar archive / database) with a single configuration switch.
// ByteWriter/ByteReader are the canonical encoding used by every component
// that serializes state: little-endian fixed-width integers, doubles, length-
// prefixed strings and vectors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace mummi::util {

using Bytes = std::vector<std::uint8_t>;

/// A struct opts in to ByteWriter::vec by specializing this to true beside a
/// `static_assert(sizeof(T) == <sum of its field sizes>)`: a record with
/// padding would copy indeterminate bytes into the stream, so equal values
/// could encode differently (see md::Angle, written field by field instead).
template <typename T>
inline constexpr bool kPackedRecord = false;

/// Element types ByteWriter::vec may copy raw: arithmetic scalars and opted-in
/// packed records. Anything else does not compile.
template <typename T>
concept RawCodable = std::is_arithmetic_v<T> ||
                     (kPackedRecord<T> && std::is_trivially_copyable_v<T>);

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  void bytes(const Bytes& b) {
    u64(b.size());
    raw(b.data(), b.size());
  }

  template <RawCodable T>
  void vec(const std::vector<T>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // empty vectors hand out a null data()
    const std::size_t at = buf_.size();
    if (buf_.capacity() - at < n) grow(at + n);
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  // Geometric growth, kept out of line: with the reallocation inlined into
  // raw(), GCC 12 loses track of the buffer size and warns
  // (-Wstringop-overflow / -Warray-bounds) on small fixed-width writes.
  [[gnu::noinline]] void grow(std::size_t need) {
    buf_.reserve(std::max(need, 2 * buf_.capacity()));
  }

  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  // A reader only borrows the buffer; binding a temporary would dangle.
  explicit ByteReader(Bytes&&) = delete;
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { std::uint8_t v; raw(&v, 1); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); return v; }
  float f32() { float v; raw(&v, sizeof v); return v; }
  double f64() { double v; raw(&v, sizeof v); return v; }

  std::string str() {
    const auto n = len(u64());
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }

  Bytes bytes() {
    const auto n = len(u64());
    Bytes b(n);
    raw(b.data(), n);
    return b;
  }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = u64();
    if (count > remaining() / sizeof(T))
      throw FormatError("byte stream truncated (vector)");
    std::vector<T> v(count);
    raw(v.data(), count * sizeof(T));
    return v;
  }

  void raw(void* p, std::size_t n) {
    if (n > remaining()) throw FormatError("byte stream truncated");
    if (n == 0) return;  // empty vectors hand out a null data()
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }

 private:
  std::size_t len(std::uint64_t n) {
    if (n > remaining()) throw FormatError("byte stream truncated (length)");
    return static_cast<std::size_t>(n);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Converts between Bytes and std::string (for text payloads).
[[nodiscard]] Bytes to_bytes(const std::string& s);
[[nodiscard]] std::string to_string(const Bytes& b);

/// FNV-1a 64-bit hash — key sharding in the KV cluster and content checks.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n);
[[nodiscard]] std::uint64_t fnv1a(const std::string& s);

}  // namespace mummi::util
