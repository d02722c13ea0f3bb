// Minimal binary (de)serialization primitives.
//
// Two flavors of the same host-format scalar encoding:
//  - stream functions (WriteScalar/ReadScalar, strings, Real3) for file
//    checkpoints and the full agent records migrations carry;
//  - ByteWriter/ByteReader over one in-memory byte string for the shard
//    exchange's hot wire format (io/agent_record.h, io/field_record.h),
//    where a std::ostream::write per byte dominated the exchange.
// Checkpoints are host-format files (no cross-endian portability claim),
// guarded by a magic number and version field.
#ifndef BDM_IO_BINARY_H_
#define BDM_IO_BINARY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "math/real3.h"

namespace bdm::io {

template <typename T>
void WriteScalar(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadScalar(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error("checkpoint: unexpected end of stream");
  }
  return value;
}

inline void WriteString(std::ostream& out, const std::string& s) {
  WriteScalar<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string ReadString(std::istream& in) {
  const uint32_t size = ReadScalar<uint32_t>(in);
  if (size > (1u << 20)) {
    throw std::runtime_error("checkpoint: implausible string length");
  }
  std::string s(size, '\0');
  in.read(s.data(), size);
  if (!in) {
    throw std::runtime_error("checkpoint: unexpected end of stream");
  }
  return s;
}

inline void WriteReal3(std::ostream& out, const Real3& v) {
  WriteScalar(out, v.x);
  WriteScalar(out, v.y);
  WriteScalar(out, v.z);
}

inline Real3 ReadReal3(std::istream& in) {
  Real3 v;
  v.x = ReadScalar<real_t>(in);
  v.y = ReadScalar<real_t>(in);
  v.z = ReadScalar<real_t>(in);
  return v;
}

/// Appends host-format scalars to a byte string: the same bytes
/// WriteScalar puts on a stream, one std::string::append per call.
class ByteWriter {
 public:
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  void WriteBytes(const void* data, size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }

  /// Overwrites a scalar written earlier at byte `offset` -- for a count
  /// that is only known once the records behind it are written.
  template <typename T>
  void Patch(size_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  /// Drops everything written after byte `size` (an abandoned section).
  void Truncate(size_t size) { bytes_.resize(size); }

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked reader over a byte buffer written by ByteWriter. Every
/// read past the end throws std::runtime_error, so a message whose
/// declared record count overruns its bytes fails instead of misparsing.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : pos_(data), end_(data + size) {}
  explicit ByteReader(const std::string& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, Take(sizeof(T)), sizeof(T));
    return value;
  }

  /// Returns a pointer to the next `size` bytes and skips past them.
  const unsigned char* Take(size_t size) {
    if (size > Remaining()) {
      throw std::runtime_error("byte reader: unexpected end of buffer");
    }
    const auto* data = reinterpret_cast<const unsigned char*>(pos_);
    pos_ += size;
    return data;
  }

  size_t Remaining() const { return static_cast<size_t>(end_ - pos_); }

  /// Rejects trailing bytes after the last declared record: a sender and
  /// receiver that disagree about a message's layout must not pass
  /// silently.
  void ExpectEnd(const char* what) const {
    if (pos_ != end_) {
      throw std::runtime_error(std::string(what) + ": " +
                               std::to_string(Remaining()) +
                               " trailing byte(s) after the last record");
    }
  }

 private:
  const char* pos_;
  const char* end_;
};

}  // namespace bdm::io

#endif  // BDM_IO_BINARY_H_
