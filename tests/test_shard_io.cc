// Property tests for the shard wire format (io/agent_record.h) and the
// in-process transport (shard/shard_transport.h): the delta codec must be
// bit-exact in both directions for arbitrary double bit patterns (ghosts
// must agree with their owner bitwise), the symmetric prev-state chaining
// must reproduce multi-exchange sequences, unchanged scalars must compress
// to one byte, the empty-halo / single-agent edge cases must round-trip,
// a record's bytes must match a hand-computed golden string, and corrupt
// halo and migration messages must be rejected by the receiving shard.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cell.h"
#include "core/simulation.h"
#include "io/agent_record.h"
#include "io/checkpoint.h"
#include "shard/shard_transport.h"
#include "shard/sharded_simulation.h"

namespace bdm::io {
namespace {

std::string Bytes(std::initializer_list<unsigned> values) {
  std::string bytes;
  for (const unsigned v : values) {
    bytes.push_back(static_cast<char>(v));
  }
  return bytes;
}

bool BitwiseEqual(const HaloRecord& a, const HaloRecord& b) {
  return a.owner_uid == b.owner_uid && a.is_static == b.is_static &&
         RealBits(a.position.x) == RealBits(b.position.x) &&
         RealBits(a.position.y) == RealBits(b.position.y) &&
         RealBits(a.position.z) == RealBits(b.position.z) &&
         RealBits(a.diameter) == RealBits(b.diameter);
}

TEST(ShardIoTest, SingleRecordRoundTripAgainstZeroPrev) {
  HaloRecord record;
  record.owner_uid = AgentUid(42, 7);
  record.position = {1.5, -2.25, 1e-30};
  record.diameter = 10.125;
  record.is_static = true;

  ByteWriter out;
  EncodeHaloRecord(out, record, HaloPrev{});
  ByteReader in(out.bytes());
  const HaloRecord decoded = DecodeHaloRecord(in, HaloPrev{});
  EXPECT_TRUE(BitwiseEqual(record, decoded));
  EXPECT_EQ(in.Remaining(), 0u);
}

TEST(ShardIoTest, ExtremeBitPatternsSurviveExactly) {
  // The codec moves raw bit patterns; -0.0, infinities, denormals, and NaN
  // payloads must come back identical (no arithmetic touches the values).
  const real_t values[] = {-0.0,
                           std::numeric_limits<real_t>::infinity(),
                           -std::numeric_limits<real_t>::infinity(),
                           std::numeric_limits<real_t>::denorm_min(),
                           std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::max()};
  for (const real_t v : values) {
    HaloRecord record;
    record.owner_uid = AgentUid(1);
    record.position = {v, -v, v};
    record.diameter = v;
    ByteWriter out;
    EncodeHaloRecord(out, record, HaloPrev{});
    ByteReader in(out.bytes());
    const HaloRecord decoded = DecodeHaloRecord(in, HaloPrev{});
    EXPECT_EQ(RealBits(record.position.x), RealBits(decoded.position.x));
    EXPECT_EQ(RealBits(record.position.y), RealBits(decoded.position.y));
    EXPECT_EQ(RealBits(record.diameter), RealBits(decoded.diameter));
  }
}

TEST(ShardIoTest, RandomSequencePropertyRoundTrip) {
  // Two-exchange property check over random records: exchange 1 encodes
  // against zero prevs, exchange 2 against the bits of exchange 1 --
  // exactly the symmetric state both shard endpoints keep.
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> coord(-500.0, 500.0);
  std::uniform_real_distribution<double> step(-0.01, 0.01);

  const int n = 200;
  std::vector<HaloRecord> first(n);
  for (int i = 0; i < n; ++i) {
    first[i].owner_uid = AgentUid(static_cast<uint32_t>(i),
                                  static_cast<uint32_t>(rng() % 5));
    first[i].position = {coord(rng), coord(rng), coord(rng)};
    first[i].diameter = std::abs(coord(rng)) / 10 + 1;
    first[i].is_static = (rng() & 1) != 0;
  }

  ByteWriter out1;
  for (const auto& record : first) {
    EncodeHaloRecord(out1, record, HaloPrev{});
  }
  std::unordered_map<AgentUid, HaloPrev> sender_prev;
  std::unordered_map<AgentUid, HaloPrev> receiver_prev;
  ByteReader in1(out1.bytes());
  for (int i = 0; i < n; ++i) {
    const HaloRecord decoded = DecodeHaloRecordWith(
        in1, [&](const AgentUid& uid) {
          auto it = receiver_prev.find(uid);
          return it != receiver_prev.end() ? it->second : HaloPrev{};
        });
    EXPECT_TRUE(BitwiseEqual(first[i], decoded)) << "record " << i;
    receiver_prev[decoded.owner_uid] = BitsOf(decoded);
  }
  for (const auto& record : first) {
    sender_prev[record.owner_uid] = BitsOf(record);
  }

  // Exchange 2: half the agents move a little, half stay bitwise put.
  std::vector<HaloRecord> second = first;
  for (int i = 0; i < n; i += 2) {
    second[i].position.x += step(rng);
    second[i].position.y += step(rng);
    second[i].position.z += step(rng);
  }
  ByteWriter out2;
  for (const auto& record : second) {
    EncodeHaloRecord(out2, record, sender_prev[record.owner_uid]);
  }
  ByteReader in2(out2.bytes());
  for (int i = 0; i < n; ++i) {
    const HaloRecord decoded = DecodeHaloRecordWith(
        in2, [&](const AgentUid& uid) {
          auto it = receiver_prev.find(uid);
          return it != receiver_prev.end() ? it->second : HaloPrev{};
        });
    EXPECT_TRUE(BitwiseEqual(second[i], decoded)) << "record " << i;
  }

  // Delta framing must pay off: the second exchange ships the same records
  // with small or zero per-scalar deltas, so it must be strictly smaller
  // than the cold first exchange.
  EXPECT_LT(out2.size(), out1.size());
}

TEST(ShardIoTest, UnchangedScalarCostsOneByte) {
  HaloRecord record;
  record.owner_uid = AgentUid(3);
  record.position = {123.456, -789.0, 0.5};
  record.diameter = 12.0;

  ByteWriter out;
  EncodeHaloRecord(out, record, BitsOf(record));
  // uid (8) + staticness flag (1) + four unchanged scalars at one count
  // byte each.
  EXPECT_EQ(out.size(), 8u + 1u + 4u);
}

TEST(ShardIoTest, HaloRecordMatchesGoldenBytes) {
  // Pins the wire format: uid index and reused count (u32, host order),
  // the staticness byte, then per scalar the count of significant XOR
  // bytes followed by those bytes, lowest first.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "golden bytes are written for a little-endian host";
  }
  HaloRecord record;
  record.owner_uid = AgentUid(42, 7);
  record.is_static = true;
  record.position = {1.0, 3.0, RealFromBits(0x4000000000000001ull)};
  record.diameter = RealFromBits(0x4024000000000000ull);  // 10.0
  HaloPrev prev;
  prev.bits[0] = 0;                        // x: full 8-byte delta
  prev.bits[1] = RealBits(3.0);            // y: unchanged
  prev.bits[2] = 0x4000000000000000ull;    // z: delta 0x01
  prev.bits[3] = 0x4024000000001234ull;    // diameter: delta 0x1234

  ByteWriter out;
  EncodeHaloRecord(out, record, prev);
  const std::string expected =
      Bytes({0x2A, 0, 0, 0, 0x07, 0, 0, 0, 0x01,           // uid, static
             0x08, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F,           // x = 1.0
             0x00,                                         // y
             0x01, 0x01,                                   // z
             0x02, 0x34, 0x12});                           // diameter
  EXPECT_EQ(out.bytes(), expected);

  ByteReader in(expected);
  const HaloRecord decoded = DecodeHaloRecord(in, prev);
  EXPECT_TRUE(BitwiseEqual(record, decoded));
  EXPECT_EQ(in.Remaining(), 0u);
}

TEST(ShardIoTest, CorruptDeltaCountThrows) {
  ByteWriter out;
  out.Write<uint32_t>(1);  // uid index
  out.Write<uint32_t>(0);  // uid reused
  out.Write<uint8_t>(0);   // is_static
  out.Write<uint8_t>(9);   // impossible: > 8 significant bytes
  ByteReader in(out.bytes());
  EXPECT_THROW(DecodeHaloRecord(in, HaloPrev{}), std::runtime_error);
}

TEST(ShardIoTest, TruncatedRecordThrows) {
  HaloRecord record;
  record.owner_uid = AgentUid(5);
  record.position = {1.5, 2.5, 3.5};
  record.diameter = 4;
  ByteWriter out;
  EncodeHaloRecord(out, record, HaloPrev{});
  const std::string& bytes = out.bytes();
  ByteReader in(bytes.data(), bytes.size() - 1);  // last byte missing
  EXPECT_THROW(DecodeHaloRecord(in, HaloPrev{}), std::runtime_error);
}

// --- corrupt exchange messages ----------------------------------------------

/// Feeds hand-built halo and migration messages from shard 0 to shard 1 of
/// a two-shard simulation through a private mailbox.
class ExchangeMessageTest : public ::testing::Test {
 protected:
  ExchangeMessageTest()
      : sim_("exchange_msg", MakeParam(), {0, 0, 0}, {100, 100, 100}, 2) {}

  static Param MakeParam() {
    Param param;
    param.num_threads = 1;
    param.num_numa_domains = 1;
    param.fixed_box_length = 10;
    return param;
  }

  /// [kind][count] followed by `records` encoded against zero bits.
  static ByteWriter Message(uint8_t kind, uint32_t count,
                            const std::vector<HaloRecord>& records) {
    ByteWriter msg;
    msg.Write<uint8_t>(kind);
    msg.Write<uint32_t>(count);
    for (const HaloRecord& record : records) {
      EncodeHaloRecord(msg, record, HaloPrev{});
    }
    return msg;
  }

  static HaloRecord Record(uint32_t uid) {
    HaloRecord record;
    record.owner_uid = AgentUid(uid);
    record.position = {52, 50, 50};
    record.diameter = 8;
    return record;
  }

  /// Delivers `bytes` to shard 1 and runs its halo receive phase (or its
  /// migration receive phase).
  void Receive(std::string bytes, bool migration = false) {
    shard::MailboxTransport transport(2);
    transport.Send(0, 1, std::move(bytes));
    Simulation* previous = Simulation::SetActive(sim_.GetShard(1)->sim());
    try {
      if (migration) {
        shard::Shard::ExchangeStats stats;
        sim_.GetShard(1)->ReceiveMigrations(&transport, &stats);
      } else {
        sim_.GetShard(1)->ReceiveHalos(&transport);
      }
    } catch (...) {
      Simulation::SetActive(previous);
      throw;
    }
    Simulation::SetActive(previous);
  }

  /// Migration message carrying one cell, with `extra` bytes appended.
  static std::string MigrationMessage(int extra) {
    Cell cell({60, 50, 50}, 8);
    std::ostringstream msg;
    WriteScalar<uint8_t>(msg, 1);   // migration kind
    WriteScalar<uint32_t>(msg, 1);  // one record
    Checkpoint::WriteAgentRecord(msg, &cell);
    for (int i = 0; i < extra; ++i) {
      WriteScalar<uint8_t>(msg, 0);
    }
    return std::move(msg).str();
  }

  static constexpr uint8_t kHaloKind = 2;
  shard::ShardedSimulation sim_;
};

TEST_F(ExchangeMessageTest, WellFormedHaloMessageIsApplied) {
  Receive(Message(kHaloKind, 2, {Record(1), Record(2)}).Take());
  EXPECT_EQ(sim_.GetShard(1)->Ghosts()[0].size(), 2u);
}

TEST_F(ExchangeMessageTest, HaloCountOverrunningTheBufferThrows) {
  EXPECT_THROW(Receive(Message(kHaloKind, 3, {Record(1), Record(2)}).Take()),
               std::runtime_error);
}

TEST_F(ExchangeMessageTest, HaloTrailingBytesAreRejected) {
  ByteWriter msg = Message(kHaloKind, 1, {Record(1)});
  msg.Write<uint8_t>(0);
  EXPECT_THROW(Receive(msg.Take()), std::runtime_error);
}

TEST_F(ExchangeMessageTest, HaloWrongKindTagThrowsLogicError) {
  EXPECT_THROW(Receive(Message(/*field halo*/ 4, 1, {Record(1)}).Take()),
               std::logic_error);
}

TEST_F(ExchangeMessageTest, MigrationTrailingBytesAreRejected) {
  Receive(MigrationMessage(0), /*migration=*/true);
  EXPECT_EQ(sim_.GetShard(1)->NumOwned(), 1u);
  EXPECT_THROW(Receive(MigrationMessage(1), /*migration=*/true),
               std::runtime_error);
}

TEST(ShardIoTest, EmptyHaloIsAMissingMessage) {
  // The exchange skips empty messages entirely; a receiver polling the
  // transport must simply see nothing (and treat its delta state for that
  // source as cleared -- shard.cc sweeps every unreported ghost).
  shard::MailboxTransport transport(2);
  int src = -1;
  std::string bytes;
  EXPECT_FALSE(transport.Receive(0, &src, &bytes));
  EXPECT_FALSE(transport.Receive(1, &src, &bytes));
  EXPECT_EQ(transport.TotalBytesSent(), 0u);
}

TEST(ShardIoTest, MailboxDeliversPerDestinationInOrder) {
  shard::MailboxTransport transport(3);
  transport.Send(0, 2, std::string("first"));
  transport.Send(1, 2, std::string("second"));
  transport.Send(2, 0, std::string("back"));

  int src = -1;
  std::string bytes;
  ASSERT_TRUE(transport.Receive(2, &src, &bytes));
  EXPECT_EQ(src, 0);
  EXPECT_EQ(bytes, "first");
  ASSERT_TRUE(transport.Receive(2, &src, &bytes));
  EXPECT_EQ(src, 1);
  EXPECT_EQ(bytes, "second");
  EXPECT_FALSE(transport.Receive(2, &src, &bytes));

  ASSERT_TRUE(transport.Receive(0, &src, &bytes));
  EXPECT_EQ(src, 2);
  EXPECT_EQ(bytes, "back");
  EXPECT_EQ(transport.TotalBytesSent(), 5u + 6u + 4u);
}

}  // namespace
}  // namespace bdm::io
