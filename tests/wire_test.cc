// Wire codec coverage: round-trips for every frame type, structural
// rejection of truncated/oversized/bad-magic/bad-version frames, and a
// fuzz pass feeding random byte strings through the decoder — the decoder
// must classify every input without reading out of bounds (the CI ASan+
// UBSan job runs this test to enforce "without UB" mechanically).
//
// Protocol v2 adds per-stream sequence numbers on element frames plus the
// kHelloAck/kCheckpointAck control frames; version skew decodes to the
// distinct kVersionMismatch result, not generic kMalformed.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/net/wire.h"

namespace klink {
namespace {

Frame MustDecode(const std::vector<uint8_t>& bytes) {
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

TEST(WireTest, HelloRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeHello(42, &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(f.stream_id, 42u);
}

TEST(WireTest, DataEventRoundTrip) {
  const Event e = MakeDataEvent(/*event_time=*/123456789, /*ingest_time=*/
                                123459999, /*key=*/0xDEADBEEFCAFEull,
                                /*value=*/-3.25, /*payload_bytes=*/96);
  std::vector<uint8_t> bytes;
  EncodeEvent(e, /*seq=*/77, &bytes);
  EXPECT_EQ(bytes.size(), EncodedEventSize(e));
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kData);
  EXPECT_EQ(f.seq, 77u);
  EXPECT_TRUE(f.event.is_data());
  EXPECT_EQ(f.event.event_time, e.event_time);
  EXPECT_EQ(f.event.ingest_time, e.ingest_time);
  EXPECT_EQ(f.event.key, e.key);
  EXPECT_EQ(f.event.value, e.value);
  EXPECT_EQ(f.event.payload_bytes, e.payload_bytes);
}

TEST(WireTest, RetractionAndUpdateRoundTrip) {
  // v3 correction elements: same layout as kData, distinct frame types, so
  // a correction pair survives the wire byte-exactly (the retraction must
  // name the exact speculative result it cancels).
  struct Case {
    Event e;
    FrameType type;
  };
  const Case cases[] = {
      {MakeRetractionEvent(1000, 1600, /*key=*/42, /*value=*/5.5, 64),
       FrameType::kRetraction},
      {MakeUpdateEvent(1000, 1600, /*key=*/42, /*value=*/7.5, 64),
       FrameType::kUpdate},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bytes;
    EncodeEvent(c.e, /*seq=*/9, &bytes);
    EXPECT_EQ(bytes.size(), EncodedEventSize(c.e));
    const Frame f = MustDecode(bytes);
    EXPECT_EQ(f.type, c.type);
    EXPECT_EQ(f.seq, 9u);
    EXPECT_EQ(f.event.kind, c.e.kind);
    EXPECT_EQ(f.event.event_time, c.e.event_time);
    EXPECT_EQ(f.event.ingest_time, c.e.ingest_time);
    EXPECT_EQ(f.event.key, c.e.key);
    EXPECT_EQ(f.event.value, c.e.value);
    EXPECT_EQ(f.event.payload_bytes, c.e.payload_bytes);
    EXPECT_TRUE(f.event.is_keyed_element());
    EXPECT_FALSE(f.event.is_data());
  }
}

TEST(WireTest, WatermarkRoundTripPreservesSwmFlag) {
  for (const bool swm : {false, true}) {
    Event wm = MakeWatermark(/*timestamp=*/1000, /*ingest_time=*/2000);
    wm.swm = swm;
    std::vector<uint8_t> bytes;
    EncodeEvent(wm, /*seq=*/1, &bytes);
    const Frame f = MustDecode(bytes);
    EXPECT_EQ(f.type, FrameType::kWatermark);
    EXPECT_EQ(f.seq, 1u);
    EXPECT_TRUE(f.event.is_watermark());
    EXPECT_EQ(f.event.event_time, wm.event_time);
    EXPECT_EQ(f.event.ingest_time, wm.ingest_time);
    EXPECT_EQ(f.event.swm, swm);
  }
}

TEST(WireTest, LatencyMarkerRoundTrip) {
  const Event m = MakeLatencyMarker(/*emit_time=*/777, /*ingest_time=*/888);
  std::vector<uint8_t> bytes;
  EncodeEvent(m, /*seq=*/999, &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kMarker);
  EXPECT_EQ(f.seq, 999u);
  EXPECT_TRUE(f.event.is_latency_marker());
  EXPECT_EQ(f.event.event_time, 777);
  EXPECT_EQ(f.event.ingest_time, 888);
}

TEST(WireTest, HelloAckRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeHelloAck(/*stream_id=*/13, /*next_seq=*/0x1122334455667788ull,
                 &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kHelloAck);
  EXPECT_EQ(f.stream_id, 13u);
  EXPECT_EQ(f.next_seq, 0x1122334455667788ull);
}

TEST(WireTest, CheckpointAckRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeCheckpointAck(/*epoch=*/5, /*durable_seq=*/123456, &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kCheckpointAck);
  EXPECT_EQ(f.epoch, 5u);
  EXPECT_EQ(f.durable_seq, 123456u);
}

TEST(WireTest, ErrorRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeError(WireError::kUnknownStream, "no such stream", &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.error_code, static_cast<uint16_t>(WireError::kUnknownStream));
  EXPECT_EQ(f.error_message, "no such stream");
}

TEST(WireTest, ErrorMessageTruncatedToLimit) {
  std::vector<uint8_t> bytes;
  EncodeError(WireError::kMalformedFrame,
              std::string(kMaxErrorMessageLen + 100, 'x'), &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.error_message.size(), kMaxErrorMessageLen);
}

TEST(WireTest, ByeRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kBye);
}

TEST(WireTest, BackToBackFramesDecodeSequentially) {
  std::vector<uint8_t> bytes;
  EncodeHello(7, &bytes);
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  EncodeCheckpointAck(1, 10, &bytes);
  EncodeBye(&bytes);

  size_t off = 0;
  std::vector<FrameType> types;
  while (off < bytes.size()) {
    Frame f;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes.data() + off, bytes.size() - off, &f,
                          &consumed),
              DecodeResult::kOk);
    types.push_back(f.type);
    off += consumed;
  }
  EXPECT_EQ(types, (std::vector<FrameType>{FrameType::kHello,
                                           FrameType::kData,
                                           FrameType::kCheckpointAck,
                                           FrameType::kBye}));
}

TEST(WireTest, EncoderWritesGoldenBytes) {
  // The exact little-endian layout of every frame the encoders write,
  // appended back to back to one buffer (appending must not disturb the
  // bytes already there).
  std::vector<uint8_t> bytes = {0xEE};  // pre-existing content
  EncodeHello(0x01020304, &bytes);
  Event data = MakeDataEvent(/*event_time=*/0x0102030405060708,
                             /*ingest_time=*/0x1112131415161718,
                             /*key=*/0xA1A2A3A4A5A6A7A8ull, /*value=*/1.5,
                             /*payload_bytes=*/96);
  EncodeEvent(data, /*seq=*/0x1122334455667788ull, &bytes);
  EncodeEvent(MakeRetractionEvent(3, 4, 5, -2.0, 16), /*seq=*/2, &bytes);
  Event wm = MakeWatermark(0x0A0B, 0x0C0D);
  wm.swm = true;
  EncodeEvent(wm, /*seq=*/9, &bytes);
  EncodeEvent(MakeLatencyMarker(1, 2), /*seq=*/7, &bytes);
  EncodeError(WireError::kUnknownStream, "no", &bytes);
  EncodeBye(&bytes);
  EncodeHelloAck(5, 0x0100, &bytes);
  EncodeCheckpointAck(3, 0xFFFFFFFFFFFFFFFFull, &bytes);

  const std::vector<uint8_t> golden = {
      0xEE,
      // hello
      0x4C, 0x4B, 0x03, 0x01, 0x04, 0x00, 0x00, 0x00,
      0x04, 0x03, 0x02, 0x01,
      // data
      0x4C, 0x4B, 0x03, 0x02, 0x2C, 0x00, 0x00, 0x00,
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
      0xA8, 0xA7, 0xA6, 0xA5, 0xA4, 0xA3, 0xA2, 0xA1,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,
      0x60, 0x00, 0x00, 0x00,
      // retraction
      0x4C, 0x4B, 0x03, 0x09, 0x2C, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0,
      0x10, 0x00, 0x00, 0x00,
      // watermark (SWM flag set)
      0x4C, 0x4B, 0x03, 0x03, 0x19, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0B, 0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0D, 0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01,
      // latency marker
      0x4C, 0x4B, 0x03, 0x04, 0x18, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // error
      0x4C, 0x4B, 0x03, 0x05, 0x04, 0x00, 0x00, 0x00,
      0x02, 0x00, 'n', 'o',
      // bye
      0x4C, 0x4B, 0x03, 0x06, 0x00, 0x00, 0x00, 0x00,
      // hello ack
      0x4C, 0x4B, 0x03, 0x07, 0x0C, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // checkpoint ack
      0x4C, 0x4B, 0x03, 0x08, 0x10, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
  };
  EXPECT_EQ(bytes, golden);
}

TEST(WireTest, EveryTruncationPrefixNeedsMoreNeverCrashes) {
  // Element frame plus both new v2 control frames: every strict prefix
  // must classify as kNeedMore without reading out of bounds.
  const auto check_prefixes = [](const std::vector<uint8_t>& bytes) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      Frame f;
      size_t consumed = 0;
      EXPECT_EQ(DecodeFrame(bytes.data(), len, &f, &consumed),
                DecodeResult::kNeedMore)
          << "prefix length " << len;
    }
  };
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(100, 200, 5, 1.5), /*seq=*/1, &bytes);
  check_prefixes(bytes);
  bytes.clear();
  EncodeHelloAck(3, 42, &bytes);
  check_prefixes(bytes);
  bytes.clear();
  EncodeCheckpointAck(2, 99, &bytes);
  check_prefixes(bytes);
}

TEST(WireTest, BadMagicRejected) {
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  bytes[0] ^= 0xFF;
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, VersionSkewDistinctFromMalformed) {
  // A structurally valid frame from a peer speaking another protocol
  // version must decode to kVersionMismatch (so the server can reply with
  // the typed WireError::kVersionMismatch), not generic kMalformed.
  for (const uint8_t version : {uint8_t{1}, uint8_t{kWireVersion + 1}}) {
    std::vector<uint8_t> bytes;
    EncodeBye(&bytes);
    bytes[2] = version;
    Frame f;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
              DecodeResult::kVersionMismatch);
  }
}

TEST(WireTest, BadTypeRejected) {
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  for (const uint8_t type : {uint8_t{0}, uint8_t{9}, uint8_t{200}}) {
    bytes[3] = type;
    Frame f;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
              DecodeResult::kMalformed);
  }
}

TEST(WireTest, WrongPayloadLengthForTypeRejected) {
  // A data frame whose length prefix disagrees with the fixed layout.
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  bytes[4] = 43;  // one byte short of the 44-byte v2 data payload
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, OversizedLengthPrefixRejectedWithoutBuffering) {
  // Claims a payload over the hard cap: must be rejected immediately from
  // the 8-byte header, not buffered until "enough" bytes arrive.
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  const uint32_t huge = kMaxPayloadLen + 1;
  std::memcpy(bytes.data() + 4, &huge, sizeof(huge));
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, ZeroSequenceNumberRejected) {
  // seq is contiguous from 1; a zero seq can only come from a broken or
  // pre-v2 client whose frame slipped past the version check.
  for (const Event& e :
       {MakeDataEvent(1, 2, 3, 4.0), MakeWatermark(10, 20),
        MakeLatencyMarker(5, 6)}) {
    std::vector<uint8_t> bytes;
    EncodeEvent(e, /*seq=*/1, &bytes);
    const uint64_t zero = 0;
    std::memcpy(bytes.data() + kWireHeaderLen, &zero, sizeof(zero));
    Frame f;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
              DecodeResult::kMalformed);
  }
}

TEST(WireTest, NegativeTimesRejected) {
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  const uint64_t neg = static_cast<uint64_t>(int64_t{-5});
  // event_time sits after the 8-byte seq prefix in v2.
  std::memcpy(bytes.data() + kWireHeaderLen + 8, &neg, sizeof(neg));
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, AbsurdEventPayloadBytesRejected) {
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  const uint32_t huge = kMaxEventPayloadBytes + 1;
  std::memcpy(bytes.data() + kWireHeaderLen + 40, &huge, sizeof(huge));
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, UnknownWatermarkFlagsRejected) {
  Event wm = MakeWatermark(10, 20);
  std::vector<uint8_t> bytes;
  EncodeEvent(wm, /*seq=*/1, &bytes);
  bytes[kWireHeaderLen + 24] = 0x02;  // reserved flag bit
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, RandomBytesNeverCrashTheDecoder) {
  Rng rng(0xF00D);
  std::vector<uint8_t> bytes;
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = static_cast<int>(rng.NextInt(0, 128));
    bytes.resize(static_cast<size_t>(len));
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    Frame f;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(bytes.data(), bytes.size(), &f, &consumed);
    if (r == DecodeResult::kOk) {
      EXPECT_LE(consumed, bytes.size());
      EXPECT_GE(consumed, kWireHeaderLen);
    }
  }
}

TEST(WireTest, RandomPayloadBehindValidHeaderNeverCrashes) {
  // Valid header, fuzzed payload: exercises per-type payload validation
  // across the element frames and both v2 control frames.
  Rng rng(0xBEEF);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes;
    switch (rng.NextInt(0, 4)) {
      case 0:
        EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
        break;
      case 1:
        EncodeEvent(MakeWatermark(1, 2), /*seq=*/1, &bytes);
        break;
      case 2:
        EncodeHelloAck(1, 2, &bytes);
        break;
      case 3:
        EncodeCheckpointAck(1, 2, &bytes);
        break;
      default:
        EncodeError(WireError::kMalformedFrame, "msg", &bytes);
        break;
    }
    for (size_t i = kWireHeaderLen; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    Frame f;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(bytes.data(), bytes.size(), &f, &consumed);
    EXPECT_TRUE(r == DecodeResult::kOk || r == DecodeResult::kMalformed);
  }
}

}  // namespace
}  // namespace klink
