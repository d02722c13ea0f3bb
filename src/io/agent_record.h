// Delta-encoded halo agent records (shard layer wire format).
//
// The halo exchange (src/shard/) re-sends every boundary agent's geometry
// each iteration, but between two exchanges an agent moves by at most one
// displacement step -- the bit patterns of consecutive positions share their
// sign, exponent, and high mantissa bits. TeraAgent (arXiv 2509.24063)
// attributes a large share of its serialization win to exactly this
// redundancy. Each scalar is therefore XORed against the value sent in the
// previous exchange and stored as a significant-byte count plus only the
// bytes below the highest non-zero one (a byte-granular variant of the
// Gorilla/TSZ float scheme). The transform is bit-exact in both directions:
// ghosts must agree with their owner *bitwise* (ConsistencyAudit::CheckShards
// verifies that), so no lossy quantization is admissible.
//
// Delta state is symmetric by construction: after every exchange, sender and
// receiver each hold exactly the records of that exchange (keyed by owner
// uid), so the "previous bits" used for encoding and decoding can never
// diverge. The sender keeps them in a per-destination map; the receiver's
// copy IS its ghost registry (the bits last applied to each halo copy). A
// record whose uid was not part of the previous exchange is encoded against
// zero bits -- self-describing, no "full record" flag needed.
//
// Records are written to and read from in-memory byte buffers
// (io::ByteWriter / io::ByteReader, io/binary.h): one append per field,
// bounds-checked reads. The byte layout of a record is
//   [uid index u32][uid reused u32][is_static u8]
//   then for x, y, z, diameter: [count u8][count low-order XOR bytes].
#ifndef BDM_IO_AGENT_RECORD_H_
#define BDM_IO_AGENT_RECORD_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "core/agent_uid.h"
#include "io/binary.h"
#include "math/real3.h"

namespace bdm::io {

/// Geometry snapshot of one halo (ghost) agent, keyed by the uid the agent
/// has in its owner shard.
struct HaloRecord {
  AgentUid owner_uid;
  Real3 position;
  real_t diameter = 0;
  bool is_static = false;
};

/// Bit patterns of the previous exchange's record for the same owner uid;
/// all-zero for a uid that was not part of the previous exchange.
struct HaloPrev {
  uint64_t bits[4] = {0, 0, 0, 0};  // x, y, z, diameter
};

static_assert(sizeof(real_t) == sizeof(uint64_t),
              "the delta codec stores real_t bit patterns in uint64_t");

inline uint64_t RealBits(real_t value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline real_t RealFromBits(uint64_t bits) {
  real_t value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// The four scalar bit patterns of `record` in codec order -- this is what a
/// sender parks as the next exchange's HaloPrev after encoding.
inline HaloPrev BitsOf(const HaloRecord& record) {
  HaloPrev prev;
  prev.bits[0] = RealBits(record.position.x);
  prev.bits[1] = RealBits(record.position.y);
  prev.bits[2] = RealBits(record.position.z);
  prev.bits[3] = RealBits(record.diameter);
  return prev;
}

namespace detail {

/// Writes `value ^ prev` as [count][count low-order bytes], in one append.
/// The XOR of two nearby doubles has leading (high-order) zero bytes, so
/// only the bytes up to the highest non-zero one are stored; an unchanged
/// scalar costs one byte total.
inline void WriteDeltaScalar(ByteWriter& out, uint64_t value, uint64_t prev) {
  const uint64_t delta = value ^ prev;
  const int count = (64 - std::countl_zero(delta) + 7) / 8;
  unsigned char bytes[9];
  bytes[0] = static_cast<unsigned char>(count);
  for (int b = 0; b < count; ++b) {
    bytes[1 + b] = static_cast<unsigned char>(delta >> (8 * b));
  }
  out.WriteBytes(bytes, static_cast<size_t>(1 + count));
}

inline uint64_t ReadDeltaScalar(ByteReader& in, uint64_t prev) {
  const auto count = in.Read<uint8_t>();
  if (count > 8) {
    throw std::runtime_error("halo record: corrupt delta byte count");
  }
  const unsigned char* bytes = in.Take(count);
  uint64_t delta = 0;
  for (int b = 0; b < count; ++b) {
    delta |= static_cast<uint64_t>(bytes[b]) << (8 * b);
  }
  return delta ^ prev;
}

}  // namespace detail

/// Serializes `record`, delta-encoding its scalars against `prev`.
inline void EncodeHaloRecord(ByteWriter& out, const HaloRecord& record,
                             const HaloPrev& prev) {
  out.Write<uint32_t>(record.owner_uid.index());
  out.Write<uint32_t>(record.owner_uid.reused());
  out.Write<uint8_t>(record.is_static ? 1 : 0);
  detail::WriteDeltaScalar(out, RealBits(record.position.x), prev.bits[0]);
  detail::WriteDeltaScalar(out, RealBits(record.position.y), prev.bits[1]);
  detail::WriteDeltaScalar(out, RealBits(record.position.z), prev.bits[2]);
  detail::WriteDeltaScalar(out, RealBits(record.diameter), prev.bits[3]);
}

/// Inverse of EncodeHaloRecord. The previous-exchange bits are keyed by the
/// owner uid, which sits at the *front* of the record -- so the decoder reads
/// the uid first and only then asks `prev_of(owner_uid)` for the bits the
/// encoder delta'd against (all-zero HaloPrev for a first-time uid).
template <typename PrevLookup>
inline HaloRecord DecodeHaloRecordWith(ByteReader& in, PrevLookup&& prev_of) {
  HaloRecord record;
  const auto index = in.Read<uint32_t>();
  const auto reused = in.Read<uint32_t>();
  record.owner_uid = AgentUid(index, reused);
  record.is_static = in.Read<uint8_t>() != 0;
  const HaloPrev prev = prev_of(record.owner_uid);
  record.position.x = RealFromBits(detail::ReadDeltaScalar(in, prev.bits[0]));
  record.position.y = RealFromBits(detail::ReadDeltaScalar(in, prev.bits[1]));
  record.position.z = RealFromBits(detail::ReadDeltaScalar(in, prev.bits[2]));
  record.diameter = RealFromBits(detail::ReadDeltaScalar(in, prev.bits[3]));
  return record;
}

/// Convenience overload for callers that already know the previous bits
/// (tests, single-record round-trips).
inline HaloRecord DecodeHaloRecord(ByteReader& in, const HaloPrev& prev) {
  return DecodeHaloRecordWith(in, [&prev](const AgentUid&) { return prev; });
}

}  // namespace bdm::io

#endif  // BDM_IO_AGENT_RECORD_H_
