// Endianness-stable binary encoding primitives for the persistent store.
//
// Every multi-byte integer is written LSB-first regardless of host
// endianness, mirroring the convention util/hash.hpp uses to feed digests —
// a store file written on a big-endian machine reads back identically on a
// little-endian one. Doubles travel as their IEEE-754 bit pattern inside a
// u64. Strings and vectors are length-prefixed. A word moves whole: it is
// assembled with shifts (one code path for every host byte order), and a
// read makes one bounds check, not one per byte.
//
// BinReader is bounds-checked against adversarial input: any read past the
// end of the payload throws std::runtime_error, and every length prefix is
// validated against the remaining bytes *before* any allocation, so a
// corrupt or hostile prefix can neither drive a multi-gigabyte allocation
// nor wrap a size computation. The DesignStore's load path treats the throw
// as a corrupt record (drop + warn + cold miss) and the service layer as a
// malformed frame (typed error response) — never undefined behavior.
// tests/service/service_protocol_test.cpp fuzzes every codec through here.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace aapx::engine {

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { word<4>(v); }
  void u64(std::uint64_t v) { word<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Raw bytes, no length prefix.
  void bytes(std::string_view s) { buf_.append(s.data(), s.size()); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s);
  }
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }

  void reserve(std::size_t n) { buf_.reserve(n); }
  const std::string& data() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  /// Appends the low N bytes of `v`, least significant first. The bytes
  /// come from shifts, not from `v`'s memory, so every host writes the same
  /// file; on a little-endian host the compiler merges them into one store.
  template <std::size_t N>
  void word(std::uint64_t v) {
    char b[N];
    for (std::size_t i = 0; i < N; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, N);
  }

  std::string buf_;
};

class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (pos_ >= data_.size()) fail();
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(word<4>()); }
  std::uint64_t u64() { return word<8>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// An enum written as i32, range-checked against [0, last]: an
  /// out-of-range value throws std::runtime_error naming `what`.
  template <typename Enum>
  Enum enum32(Enum last, const char* what) {
    const std::int32_t v = i32();
    if (v < 0 || v > static_cast<std::int32_t>(last)) {
      throw std::runtime_error(std::string("bad ") + what + " value " +
                               std::to_string(v));
    }
    return static_cast<Enum>(v);
  }

  /// The next `n` raw bytes, as a view into the payload.
  std::string_view bytes(std::uint64_t n) {
    const std::string_view v(data_.data() + pos_, len(n));
    pos_ += v.size();
    return v;
  }
  std::string str() { return std::string(bytes(u64())); }
  std::vector<double> f64_vec() {
    // count(), not len(n * 8): an adversarial length prefix near 2^61 would
    // wrap the multiplication and sail past the bounds check — frames now
    // arrive from untrusted sockets, not just our own store files.
    const std::uint64_t n = count(u64(), 8);
    std::vector<double> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }

  /// Validates a caller-decoded element count against the remaining bytes
  /// (each element at least `min_bytes`), so a corrupt length prefix cannot
  /// drive a multi-gigabyte allocation before the bounds check trips.
  std::uint64_t count(std::uint64_t n, std::uint64_t min_bytes) {
    if (min_bytes != 0 && n > remaining() / min_bytes) fail();
    return n;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }
  /// Throws unless every byte was consumed — trailing garbage is corruption.
  void expect_end() const {
    if (!at_end()) fail();
  }

 private:
  /// Bounds-checks a byte length against the remaining payload.
  std::uint64_t len(std::uint64_t n) {
    if (n > remaining()) fail();
    return n;
  }
  /// Reads N bytes, least significant first, after one bounds check.
  /// Assembled with shifts, so the value is the same on every host; on a
  /// little-endian host the compiler merges them into one load.
  template <std::size_t N>
  std::uint64_t word() {
    const std::string_view b = bytes(N);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(b[i])} << (8 * i);
    }
    return v;
  }
  [[noreturn]] static void fail() {
    throw std::runtime_error("store payload truncated or corrupt");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace aapx::engine
