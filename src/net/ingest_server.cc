#include "src/net/ingest_server.h"

#include <poll.h>

#include <chrono>
#include <cstring>

#include "src/common/check.h"
#include "src/net/socket.h"

namespace klink {
namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             // klink-lint: allow(determinism): idle timeouts of real TCP connections
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

IngestServer::IngestServer(const IngestServerConfig& config,
                           IngestGateway* gateway)
    : config_(config), gateway_(gateway) {
  KLINK_CHECK(gateway_ != nullptr);
  KLINK_CHECK_GE(config_.max_connections, 1);
  KLINK_CHECK_GE(config_.idle_timeout_ms, 0);
  KLINK_CHECK_GT(config_.read_chunk_bytes, kWireHeaderLen);
}

IngestServer::~IngestServer() { Stop(); }

Status IngestServer::Start() {
  KLINK_CHECK_EQ(listen_fd_, -1);
  StatusOr<int> fd = ListenTcp(config_.port, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  return Status::Ok();
}

void IngestServer::Stop() {
  for (Connection& c : conns_) CloseFd(c.fd);
  conns_.clear();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

int64_t IngestServer::PollOnce(int timeout_ms) {
  KLINK_CHECK_GE(listen_fd_, 0);
  int64_t delivered = 0;

  // Resume connections whose streams regained credit since the last poll
  // (the engine drains staging queues between polls). Buffered bytes are
  // decoded first; the connection may immediately re-pause. The stall was
  // the server's doing, so the idle clock restarts at the resume.
  for (size_t i = 0; i < conns_.size();) {
    Connection& c = conns_[i];
    if (c.paused && gateway_->TryResume(*c.stream)) {
      c.paused = false;
      c.last_activity_micros = WallMicros();
      if (!DecodeBuffered(c, &delivered)) {
        conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
    }
    ++i;
  }

  fds_.clear();
  fd_conn_.clear();
  fds_.push_back(pollfd{listen_fd_, POLLIN, 0});
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].paused) continue;
    fds_.push_back(pollfd{conns_[i].fd, POLLIN, 0});
    fd_conn_.push_back(i);
  }

  const int rc = ::poll(fds_.data(), static_cast<nfds_t>(fds_.size()),
                        timeout_ms);
  if (rc < 0) return delivered;  // EINTR: retry next iteration

  if ((fds_[0].revents & POLLIN) != 0) AcceptPending();

  // fd_conn_ is ascending, so to_close_ is too: erase back-to-front so
  // indices stay valid.
  to_close_.clear();
  for (size_t i = 0; i < fd_conn_.size(); ++i) {
    const short ev = fds_[i + 1].revents;
    if ((ev & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    Connection& c = conns_[fd_conn_[i]];
    if (!ReadAndDecode(c, &delivered)) to_close_.push_back(fd_conn_[i]);
  }
  for (size_t i = to_close_.size(); i > 0; --i) {
    conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(to_close_[i - 1]));
  }

  if (config_.idle_timeout_ms > 0) {
    const int64_t now = WallMicros();
    const int64_t limit = config_.idle_timeout_ms * 1000;
    for (size_t i = conns_.size(); i > 0; --i) {
      Connection& c = conns_[i - 1];
      if (c.paused || now - c.last_activity_micros <= limit) continue;
      gateway_->metrics().AddIdleTimeout();
      FailConnection(c, WireError::kIdleTimeout, "idle timeout");
      conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i - 1));
    }
  }
  return delivered;
}

void IngestServer::AcceptPending() {
  while (true) {
    StatusOr<int> fd = AcceptNonBlocking(listen_fd_);
    if (!fd.ok() || fd.value() < 0) return;
    if (static_cast<int>(conns_.size()) >= config_.max_connections) {
      send_scratch_.clear();
      EncodeError(WireError::kProtocolViolation, "too many connections",
                  &send_scratch_);
      // Best effort: the connection is rejected either way.
      (void)SendAll(fd.value(), send_scratch_.data(), send_scratch_.size());
      CloseFd(fd.value());
      continue;
    }
    Connection c;
    c.fd = fd.value();
    c.last_activity_micros = WallMicros();
    conns_.push_back(std::move(c));
    gateway_->metrics().AddConnection();
  }
}

void IngestServer::ReserveReadRoom(Connection& c) {
  const size_t chunk = config_.read_chunk_bytes;
  if (c.buf.size() - c.end >= chunk) return;
  if (c.off > 0) {
    // Slide the undecoded tail to the front. Only unpaused connections
    // read, and they decode until kNeedMore, so the tail is one partial
    // frame.
    std::memmove(c.buf.data(), c.buf.data() + c.off, c.end - c.off);
    c.end -= c.off;
    c.off = 0;
  }
  if (c.buf.size() - c.end < chunk) c.buf.resize(c.end + chunk);
}

bool IngestServer::ReadAndDecode(Connection& c, int64_t* delivered) {
  ReserveReadRoom(c);
  const StatusOr<int64_t> n =
      ReadSome(c.fd, c.buf.data() + c.end, config_.read_chunk_bytes);
  if (!n.ok()) {
    CloseConnection(c);
    return false;
  }
  if (n.value() < 0) return true;  // spurious wakeup, nothing to read
  if (n.value() == 0) {
    // Orderly shutdown without kBye: flush what we have and end the
    // stream's arrivals. The engine keeps running on whatever arrived.
    CloseConnection(c);
    return false;
  }
  c.last_activity_micros = WallMicros();
  gateway_->metrics().AddBytesRead(n.value());
  c.end += static_cast<size_t>(n.value());
  return DecodeBuffered(c, delivered);
}

bool IngestServer::DecodeBuffered(Connection& c, int64_t* delivered) {
  // Accepted element frames are counted per call and folded into the
  // stream's IngestMetrics with one update (before any control frame, so
  // hooks observe exact totals).
  int64_t frames = 0;
  int64_t wire_bytes = 0;
  int64_t data = 0;
  const auto commit_frames = [&]() {
    if (frames == 0) return;
    gateway_->metrics().AddFrames(c.stream->id(), frames, wire_bytes, data);
    *delivered += frames;
    frames = wire_bytes = data = 0;
  };
  bool open = true;
  while (!c.paused) {
    size_t consumed = 0;
    const DecodeResult r = DecodeFrame(c.buf.data() + c.off, c.end - c.off,
                                       &frame_, &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kVersionMismatch) {
      // Version skew (e.g. a v1 client against this v2 server) draws a
      // typed error, not a generic malformed-frame close: the client can
      // tell "upgrade me" apart from "I sent garbage".
      gateway_->metrics().AddMalformedFrame();
      FailConnection(c, WireError::kVersionMismatch,
                     "unsupported protocol version");
      open = false;
      break;
    }
    if (r == DecodeResult::kMalformed) {
      gateway_->metrics().AddMalformedFrame();
      FailConnection(c, WireError::kMalformedFrame, "malformed frame");
      open = false;
      break;
    }
    if (IsElementFrame(frame_.type)) {
      if (c.stream == nullptr) {
        FailConnection(c, WireError::kProtocolViolation,
                       "element frame before hello");
        open = false;
        break;
      }
      IngestGateway::Stream& stream = *c.stream;
      if (!gateway_->HasCredit(stream)) {
        // Out of credit: leave the frame in the buffer and stop reading
        // this socket until the engine drains the staging queue.
        gateway_->Flush(stream);
        gateway_->NoteStall(stream);
        c.paused = true;
        break;
      }
      const IngestGateway::SeqDecision verdict =
          gateway_->AcceptSeq(stream, frame_.seq);
      if (verdict == IngestGateway::SeqDecision::kGap) {
        FailConnection(c, WireError::kProtocolViolation, "sequence gap");
        open = false;
        break;
      }
      // A duplicate is replay overlap after a client reconnect: already
      // staged (and possibly already checkpointed), so it is dropped for
      // exactly-once.
      if (verdict == IngestGateway::SeqDecision::kAccept) {
        gateway_->Deliver(stream, frame_.event);
        ++frames;
        wire_bytes += static_cast<int64_t>(consumed);
        if (frame_.event.is_data()) ++data;
      }
    } else {
      commit_frames();
      gateway_->metrics().AddControlFrame();
      if (!HandleControlFrame(c, frame_)) {
        open = false;
        break;
      }
    }
    c.off += consumed;
  }
  commit_frames();
  if (open && c.stream != nullptr) gateway_->Flush(*c.stream);
  if (c.off == c.end) c.off = c.end = 0;
  return open;
}

bool IngestServer::HandleControlFrame(Connection& c, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      if (c.stream != nullptr) {
        FailConnection(c, WireError::kProtocolViolation, "duplicate hello");
        return false;
      }
      if (!gateway_->HasStream(frame.stream_id) &&
          !(config_.on_unknown_stream != nullptr &&
            config_.on_unknown_stream(frame.stream_id) &&
            gateway_->HasStream(frame.stream_id))) {
        // Either no dynamic-attach hook, or it declined, or it claimed
        // success without registering the stream (a broken hook).
        FailConnection(c, WireError::kUnknownStream, "unknown stream id");
        return false;
      }
      c.stream = &gateway_->Resolve(frame.stream_id);
      // HELLO_ACK tells the client where to (re)start: the next acceptable
      // sequence number. On a fresh stream that is 1; on a reconnect (or
      // after a checkpoint restore rewound the cursor) the client skips or
      // replays accordingly.
      send_scratch_.clear();
      EncodeHelloAck(frame.stream_id,
                     gateway_->last_seq_received(frame.stream_id) + 1,
                     &send_scratch_);
      if (!SendAll(c.fd, send_scratch_.data(), send_scratch_.size()).ok()) {
        CloseConnection(c);
        return false;
      }
      return true;
    case FrameType::kBye:
      if (c.stream != nullptr) {
        const uint32_t stream = c.stream->id();
        gateway_->Flush(*c.stream);
        gateway_->MarkEndOfStream(stream);
        if (config_.on_stream_end != nullptr) config_.on_stream_end(stream);
      }
      c.stream = nullptr;  // end-of-stream already recorded
      CloseConnection(c);
      return false;
    case FrameType::kError:
      // Clients may report errors before disconnecting; just close.
      CloseConnection(c);
      return false;
    default:
      return true;
  }
}

void IngestServer::SendCheckpointAck(uint32_t stream_id, uint64_t epoch,
                                     uint64_t durable_seq) {
  for (Connection& c : conns_) {
    if (c.fd < 0 || c.stream == nullptr || c.stream->id() != stream_id) {
      continue;
    }
    send_scratch_.clear();
    EncodeCheckpointAck(epoch, durable_seq, &send_scratch_);
    // Best effort: a failed send just leaves the client's replay buffer
    // larger than necessary; the next ack (or HELLO_ACK) trims it.
    (void)SendAll(c.fd, send_scratch_.data(), send_scratch_.size());
    return;
  }
}

void IngestServer::FailConnection(Connection& c, WireError code,
                                  const std::string& msg) {
  send_scratch_.clear();
  EncodeError(code, msg, &send_scratch_);
  // Best effort: the peer may already be gone or the socket full.
  (void)SendAll(c.fd, send_scratch_.data(), send_scratch_.size());
  CloseConnection(c);
}

void IngestServer::CloseConnection(Connection& c) {
  if (c.stream != nullptr) gateway_->Flush(*c.stream);
  CloseFd(c.fd);
  c.fd = -1;
  gateway_->metrics().AddDisconnect();
}

}  // namespace klink
