#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "clock.h"
#include "net/protocol.h"
#include "net/socket_io.h"

namespace perfbench {

namespace net = nnlut::net;

namespace {

/// Longest the generator waits for outstanding responses after it stops
/// sending; a server that has not answered by then has lost them.
constexpr std::int64_t kDrainLimitNs = 60'000'000'000;
/// Defects beyond this many are counted, not kept.
constexpr std::size_t kMaxDefects = 32;

}  // namespace

LoadGen::LoadGen(std::uint16_t port, std::vector<const SlotStream*> streams) {
  for (const SlotStream* s : streams) {
    Conn c;
    c.fd = net::connect_to("127.0.0.1", port);
    net::set_nodelay(c.fd);
    c.stream = s;
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() { close(); }

void LoadGen::close() {
  for (Conn& c : conns_) {
    if (c.fd < 0) continue;
    net::shutdown_fd(c.fd);
    net::close_fd(c.fd);
    c.fd = -1;
  }
}

void LoadGen::defect(std::string what) {
  if (defects_.size() < kMaxDefects) defects_.push_back(std::move(what));
  else if (defects_.size() == kMaxDefects) defects_.push_back("(more defects)");
}

void LoadGen::send_next(std::uint32_t c, std::int64_t gap_from_ns,
                        std::vector<Record>& out) {
  Conn& conn = conns_[c];
  const std::vector<std::uint8_t> frame = request_frame(*conn.stream, conn.next);
  Record r;
  r.conn = c;
  r.id = conn.next++;
  r.tokens = static_cast<std::uint32_t>(conn.stream->seq);
  r.send_ns = now_ns();
  r.gap_ns = gap_from_ns < 0 ? -1 : r.send_ns - gap_from_ns;
  if (!net::send_all(conn.fd, frame.data(), frame.size())) {
    defect("send failed on connection to " + conn.stream->model_id);
    conn.broken = true;
  } else {
    ++counters_.frames_sent;
    counters_.bytes_sent += frame.size();
    conn.pending.push_back({r.id, out.size()});
  }
  out.push_back(r);
}

std::size_t LoadGen::read_conn(std::uint32_t c, std::vector<Record>& out,
                               std::int64_t& last_read_ns) {
  Conn& conn = conns_[c];
  std::uint8_t tmp[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, tmp, sizeof tmp, MSG_DONTWAIT);
    if (n > 0) {
      conn.rbuf.insert(conn.rbuf.end(), tmp, tmp + n);
      counters_.bytes_received += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    defect("server closed the connection to " + conn.stream->model_id);
    conn.broken = true;
    break;
  }
  last_read_ns = now_ns();

  std::size_t completed = 0, off = 0;
  while (conn.rbuf.size() - off >= net::kHeaderSize) {
    net::FrameHeader h;
    if (net::decode_header(conn.rbuf.data() + off, h) != net::HeaderStatus::kOk) {
      defect("malformed frame header from the server");
      conn.broken = true;
      break;
    }
    if (conn.rbuf.size() - off - net::kHeaderSize < h.payload_len) break;
    const std::span<const std::uint8_t> payload(
        conn.rbuf.data() + off + net::kHeaderSize, h.payload_len);
    off += net::kHeaderSize + h.payload_len;
    ++counters_.frames_received;

    const auto it = std::find_if(
        conn.pending.begin(), conn.pending.end(),
        [&](const Pending& p) { return p.id == h.request_id; });
    if (it == conn.pending.end()) {
      defect("response for unknown request id " + std::to_string(h.request_id));
      continue;
    }
    Record& r = out[it->record];
    conn.pending.erase(it);
    ++completed;
    r.done_ns = last_read_ns;
    const std::string where = conn.stream->model_id + " request " +
                              std::to_string(r.id) + " (sequence " +
                              std::to_string(r.id % kSequences) + ")";
    if (h.type == net::FrameType::kResult) {
      const std::vector<std::uint8_t>& want =
          conn.stream->expected[r.id % conn.stream->expected.size()];
      r.correct = payload.size() == want.size() &&
                  std::memcmp(payload.data(), want.data(), want.size()) == 0;
      if (!r.correct)
        defect("logits differ from the direct InferenceModel call: " + where);
    } else if (h.type == net::FrameType::kError) {
      std::string msg = "(undecodable)";
      try {
        const net::ErrorFrame e = net::decode_error(payload);
        msg = "code " + std::to_string(static_cast<int>(e.code)) + ": " +
              e.message;
      } catch (const net::ProtocolError&) {
      }
      defect("error frame for " + where + ": " + msg);
    } else {
      defect("unexpected frame type " +
             std::to_string(static_cast<int>(h.type)) + " for " + where);
    }
  }
  conn.rbuf.erase(conn.rbuf.begin(),
                  conn.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  return completed;
}

std::vector<Record> LoadGen::drive(std::int64_t stop_ns, std::size_t inflight,
                                   std::uint64_t max_sends) {
  std::vector<Record> out;
  std::vector<std::uint64_t> sent(conns_.size(), 0);
  for (std::uint32_t c = 0; c < conns_.size(); ++c)
    for (std::size_t k = 0; k < inflight && sent[c] < max_sends; ++k, ++sent[c])
      if (!conns_[c].broken) send_next(c, -1, out);

  std::vector<pollfd> pfds;
  std::vector<std::uint32_t> which;
  for (;;) {
    pfds.clear();
    which.clear();
    for (std::uint32_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].broken || conns_[c].pending.empty()) continue;
      pfds.push_back({conns_[c].fd, POLLIN, 0});
      which.push_back(c);
    }
    if (pfds.empty()) break;
    if (now_ns() > std::max(stop_ns, out.front().send_ns) + kDrainLimitNs) {
      defect("timed out waiting for outstanding responses");
      break;
    }
    const timespec wait{0, 100'000'000};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &wait, nullptr);
    if (ready < 0 && errno != EINTR) {
      defect(std::string("ppoll failed: ") + std::strerror(errno));
      break;
    }
    for (std::size_t i = 0; ready > 0 && i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const std::uint32_t c = which[i];
      std::int64_t read_ns = 0;
      const std::size_t done = read_conn(c, out, read_ns);
      for (std::size_t k = 0; k < done; ++k) {
        if (read_ns >= stop_ns || sent[c] >= max_sends || conns_[c].broken)
          break;
        send_next(c, read_ns, out);
        ++sent[c];
      }
    }
  }
  return out;
}

}  // namespace perfbench
