#include "src/net/wire.h"

#include <algorithm>
#include <cstring>

namespace klink {
namespace {

constexpr size_t kDataPayloadLen = 44;
constexpr size_t kWatermarkPayloadLen = 25;
constexpr size_t kMarkerPayloadLen = 24;
constexpr size_t kHelloPayloadLen = 4;
constexpr size_t kHelloAckPayloadLen = 12;
constexpr size_t kCheckpointAckPayloadLen = 16;

// The wire is little-endian. Fields are stored and assembled byte by byte,
// which is portable and which gcc -O2 folds into a single unaligned store
// or load on little-endian hosts. `inline` lets -O2 inline them into the
// codec; it sizes them before that folding and would otherwise keep them
// as calls.
inline void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

inline void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

/// Appends a whole frame to `out` with one resize, writes its header and
/// returns where its payload starts; the caller stores every payload byte.
uint8_t* PutFrame(FrameType type, uint32_t payload_len,
                  std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + kWireHeaderLen + payload_len);
  uint8_t* p = out->data() + at;
  StoreU16(p, kWireMagic);
  p[2] = kWireVersion;
  p[3] = static_cast<uint8_t>(type);
  StoreU32(p + 4, payload_len);
  return p + kWireHeaderLen;
}

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kUpdate);
}

/// Expected payload length for fixed-size frame types; -1 for variable.
int64_t ExpectedPayloadLen(FrameType t) {
  switch (t) {
    case FrameType::kHello:
      return kHelloPayloadLen;
    case FrameType::kData:
    case FrameType::kRetraction:
    case FrameType::kUpdate:
      return kDataPayloadLen;
    case FrameType::kWatermark:
      return kWatermarkPayloadLen;
    case FrameType::kMarker:
      return kMarkerPayloadLen;
    case FrameType::kBye:
      return 0;
    case FrameType::kError:
      return -1;
    case FrameType::kHelloAck:
      return kHelloAckPayloadLen;
    case FrameType::kCheckpointAck:
      return kCheckpointAckPayloadLen;
  }
  return -1;
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

DecodeResult DecodeFrame(const uint8_t* data, size_t len, Frame* frame,
                         size_t* consumed) {
  if (len < kWireHeaderLen) return DecodeResult::kNeedMore;
  if (GetU16(data) != kWireMagic) return DecodeResult::kMalformed;
  if (data[2] != kWireVersion) return DecodeResult::kVersionMismatch;
  if (!ValidType(data[3])) return DecodeResult::kMalformed;
  const FrameType type = static_cast<FrameType>(data[3]);
  const uint32_t payload_len = GetU32(data + 4);
  if (payload_len > kMaxPayloadLen) return DecodeResult::kMalformed;
  const int64_t expected = ExpectedPayloadLen(type);
  if (expected >= 0 && payload_len != static_cast<uint32_t>(expected)) {
    return DecodeResult::kMalformed;
  }
  if (type == FrameType::kError &&
      (payload_len < 2 || payload_len > 2 + kMaxErrorMessageLen)) {
    return DecodeResult::kMalformed;
  }
  if (len < kWireHeaderLen + payload_len) return DecodeResult::kNeedMore;

  const uint8_t* p = data + kWireHeaderLen;
  frame->type = type;
  // Element frames write `seq` and every field of `event`, and nothing
  // else: they are the per-event hot path. Control frames are rare and
  // reset every other field.
  switch (type) {
    case FrameType::kData:
    case FrameType::kRetraction:
    case FrameType::kUpdate: {
      frame->seq = GetU64(p);
      frame->event = Event{
          type == FrameType::kData         ? EventKind::kData
          : type == FrameType::kRetraction ? EventKind::kRetraction
                                           : EventKind::kUpdate,
          /*stream=*/0,
          static_cast<TimeMicros>(GetU64(p + 8)),
          static_cast<TimeMicros>(GetU64(p + 16)),
          GetU64(p + 24),
          BitsToDouble(GetU64(p + 32)),
          GetU32(p + 40),
          /*swm=*/false};
      const Event& e = frame->event;
      if (frame->seq == 0 || e.event_time < 0 || e.ingest_time < 0 ||
          e.payload_bytes > kMaxEventPayloadBytes) {
        return DecodeResult::kMalformed;
      }
      break;
    }
    case FrameType::kWatermark: {
      const uint8_t flags = p[24];
      if ((flags & ~uint8_t{1}) != 0) return DecodeResult::kMalformed;
      frame->seq = GetU64(p);
      frame->event = Event{EventKind::kWatermark,
                           /*stream=*/0,
                           static_cast<TimeMicros>(GetU64(p + 8)),
                           static_cast<TimeMicros>(GetU64(p + 16)),
                           /*key=*/0,
                           /*value=*/0.0,
                           /*payload_bytes=*/16,
                           /*swm=*/(flags & 1) != 0};
      if (frame->seq == 0 || frame->event.ingest_time < 0) {
        return DecodeResult::kMalformed;
      }
      break;
    }
    case FrameType::kMarker: {
      frame->seq = GetU64(p);
      frame->event = Event{EventKind::kLatencyMarker,
                           /*stream=*/0,
                           static_cast<TimeMicros>(GetU64(p + 8)),
                           static_cast<TimeMicros>(GetU64(p + 16)),
                           /*key=*/0,
                           /*value=*/0.0,
                           /*payload_bytes=*/16,
                           /*swm=*/false};
      const Event& e = frame->event;
      if (frame->seq == 0 || e.event_time < 0 || e.ingest_time < 0) {
        return DecodeResult::kMalformed;
      }
      break;
    }
    default:
      frame->event = Event{};
      frame->stream_id = 0;
      frame->seq = 0;
      frame->next_seq = 0;
      frame->epoch = 0;
      frame->durable_seq = 0;
      frame->error_code = 0;
      frame->error_message.clear();
      switch (type) {
        case FrameType::kHello:
          frame->stream_id = GetU32(p);
          break;
        case FrameType::kError:
          frame->error_code = GetU16(p);
          frame->error_message.assign(reinterpret_cast<const char*>(p + 2),
                                      payload_len - 2);
          break;
        case FrameType::kHelloAck:
          frame->stream_id = GetU32(p);
          frame->next_seq = GetU64(p + 4);
          if (frame->next_seq == 0) return DecodeResult::kMalformed;
          break;
        case FrameType::kCheckpointAck:
          frame->epoch = GetU64(p);
          frame->durable_seq = GetU64(p + 8);
          break;
        default:  // kBye: no payload
          break;
      }
      break;
  }
  *consumed = kWireHeaderLen + payload_len;
  return DecodeResult::kOk;
}

void EncodeHello(uint32_t stream_id, std::vector<uint8_t>* out) {
  StoreU32(PutFrame(FrameType::kHello, kHelloPayloadLen, out), stream_id);
}

void EncodeEvent(const Event& e, uint64_t seq, std::vector<uint8_t>* out) {
  uint8_t* p = nullptr;
  switch (e.kind) {
    case EventKind::kData:
    case EventKind::kRetraction:
    case EventKind::kUpdate:
      p = PutFrame(e.kind == EventKind::kData         ? FrameType::kData
                   : e.kind == EventKind::kRetraction ? FrameType::kRetraction
                                                      : FrameType::kUpdate,
                   kDataPayloadLen, out);
      StoreU64(p, seq);
      StoreU64(p + 8, static_cast<uint64_t>(e.event_time));
      StoreU64(p + 16, static_cast<uint64_t>(e.ingest_time));
      StoreU64(p + 24, e.key);
      StoreU64(p + 32, DoubleToBits(e.value));
      StoreU32(p + 40, e.payload_bytes);
      break;
    case EventKind::kWatermark:
      p = PutFrame(FrameType::kWatermark, kWatermarkPayloadLen, out);
      StoreU64(p, seq);
      StoreU64(p + 8, static_cast<uint64_t>(e.event_time));
      StoreU64(p + 16, static_cast<uint64_t>(e.ingest_time));
      p[24] = e.swm ? 1 : 0;
      break;
    case EventKind::kLatencyMarker:
      p = PutFrame(FrameType::kMarker, kMarkerPayloadLen, out);
      StoreU64(p, seq);
      StoreU64(p + 8, static_cast<uint64_t>(e.event_time));
      StoreU64(p + 16, static_cast<uint64_t>(e.ingest_time));
      break;
    case EventKind::kCheckpointBarrier:
      // Barriers are injected by the server-side coordinator; they never
      // cross the ingest wire.
      break;
  }
}

void EncodeError(WireError code, const std::string& message,
                 std::vector<uint8_t>* out) {
  const size_t msg_len = std::min(message.size(), kMaxErrorMessageLen);
  uint8_t* p =
      PutFrame(FrameType::kError, static_cast<uint32_t>(2 + msg_len), out);
  StoreU16(p, static_cast<uint16_t>(code));
  std::memcpy(p + 2, message.data(), msg_len);
}

void EncodeBye(std::vector<uint8_t>* out) {
  PutFrame(FrameType::kBye, 0, out);
}

void EncodeHelloAck(uint32_t stream_id, uint64_t next_seq,
                    std::vector<uint8_t>* out) {
  uint8_t* p = PutFrame(FrameType::kHelloAck, kHelloAckPayloadLen, out);
  StoreU32(p, stream_id);
  StoreU64(p + 4, next_seq);
}

void EncodeCheckpointAck(uint64_t epoch, uint64_t durable_seq,
                         std::vector<uint8_t>* out) {
  uint8_t* p =
      PutFrame(FrameType::kCheckpointAck, kCheckpointAckPayloadLen, out);
  StoreU64(p, epoch);
  StoreU64(p + 8, durable_seq);
}

size_t EncodedEventSize(const Event& e) {
  switch (e.kind) {
    case EventKind::kData:
    case EventKind::kRetraction:
    case EventKind::kUpdate:
      return kWireHeaderLen + kDataPayloadLen;
    case EventKind::kWatermark:
      return kWireHeaderLen + kWatermarkPayloadLen;
    case EventKind::kLatencyMarker:
      return kWireHeaderLen + kMarkerPayloadLen;
    case EventKind::kCheckpointBarrier:
      return 0;
  }
  return kWireHeaderLen;
}

}  // namespace klink
