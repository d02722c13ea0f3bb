// Delta-encoded diffusion-field slabs and forwarded-deposit records (the
// field half of the shard wire format; DESIGN.md Section 9 "field halo").
//
// Each iteration the field halo exchange re-sends the boundary voxel slabs
// of every substance, and between two exchanges a voxel's concentration
// changes by one explicit-Euler step -- consecutive bit patterns share their
// sign, exponent, and high mantissa bits just like agent positions do. Every
// voxel is therefore XOR-delta'd against the value sent for the SAME voxel
// in the previous exchange (io::detail::WriteDeltaScalar, the codec the
// agent halo records use): a steady-state voxel costs one byte, and a slab
// whose every voxel is unchanged is skipped entirely (the receiver keeps its
// previous values -- "missing message == zero delta").
//
// Unlike agent records, slabs need no per-value key: sender and receiver
// configure the same slab geometry up front (pairwise owned-box/window
// intersections), so position in the message IS the voxel identity, and the
// prev array is indexed in lockstep. The transform is bit-exact: the ghost
// planes must agree with the owner's voxels bitwise
// (ConsistencyAudit::CheckShardFields), so no lossy compression is
// admissible.
//
// Like the agent records, slabs and deposits are written to and read from
// in-memory byte buffers (io::ByteWriter / io::ByteReader). Layouts:
//   slab section:  [voxel count u32] then per voxel [count u8][XOR bytes]
//   deposit:       [x u32][y u32][z u32][amount bits u64]
#ifndef BDM_IO_FIELD_RECORD_H_
#define BDM_IO_FIELD_RECORD_H_

#include <cstdint>
#include <stdexcept>

#include "io/agent_record.h"
#include "io/binary.h"

namespace bdm::io {

/// Delta-encodes `count` voxel bit patterns against `prev` (updated in
/// place to `cur` -- the sender's state for the next exchange). Returns
/// false without writing anything when every voxel is unchanged, so the
/// caller can skip the slab section entirely.
inline bool EncodeFieldSlab(ByteWriter& out, const uint64_t* cur,
                            uint32_t count, uint64_t* prev) {
  bool changed = false;
  for (uint32_t i = 0; i < count; ++i) {
    if (cur[i] != prev[i]) {
      changed = true;
      break;
    }
  }
  if (!changed) {
    return false;
  }
  out.Write<uint32_t>(count);
  for (uint32_t i = 0; i < count; ++i) {
    detail::WriteDeltaScalar(out, cur[i], prev[i]);
    prev[i] = cur[i];
  }
  return true;
}

/// Inverse of EncodeFieldSlab for one written slab section: decodes
/// `expected` voxels against `prev`, storing the decoded bits back into
/// `prev` (receiver state doubles as the output -- the caller copies them
/// into the ghost voxels). Throws when the message disagrees about the slab
/// geometry; that can only mean sender and receiver configured different
/// slabs, and decoding further would misalign every later section.
inline void DecodeFieldSlab(ByteReader& in, uint32_t expected,
                            uint64_t* prev) {
  const auto count = in.Read<uint32_t>();
  if (count != expected) {
    throw std::runtime_error("field slab: voxel count mismatch");
  }
  for (uint32_t i = 0; i < count; ++i) {
    prev[i] = detail::ReadDeltaScalar(in, prev[i]);
  }
}

/// One agent deposit that rounded into a voxel owned by another shard,
/// forwarded to the owner so global mass is conserved. Coordinates are
/// global lattice indices; the amount travels as raw bits (it must arrive
/// bit-exact -- the owner adds it exactly as a local deposit would have
/// been).
struct FieldDepositRecord {
  int64_t x = 0, y = 0, z = 0;
  uint64_t amount_bits = 0;
};

inline void EncodeFieldDeposit(ByteWriter& out,
                               const FieldDepositRecord& record) {
  out.Write<uint32_t>(static_cast<uint32_t>(record.x));
  out.Write<uint32_t>(static_cast<uint32_t>(record.y));
  out.Write<uint32_t>(static_cast<uint32_t>(record.z));
  out.Write<uint64_t>(record.amount_bits);
}

inline FieldDepositRecord DecodeFieldDeposit(ByteReader& in) {
  FieldDepositRecord record;
  record.x = in.Read<uint32_t>();
  record.y = in.Read<uint32_t>();
  record.z = in.Read<uint32_t>();
  record.amount_bits = in.Read<uint64_t>();
  return record;
}

}  // namespace bdm::io

#endif  // BDM_IO_FIELD_RECORD_H_
