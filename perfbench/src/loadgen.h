// Closed-loop load generator: one thread, raw loopback sockets multiplexed
// with ppoll, frames built and parsed with the net/protocol.h codecs
// (net::Client::await blocks, so it cannot drive several connections from
// one thread). Each connection serves one slot's stream and keeps a fixed
// number of requests outstanding: a completion is answered by the next send
// at once. Every kResult payload is compared byte for byte with the
// stream's expected bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fixture.h"

namespace perfbench {

/// One request as the client saw it.
struct Record {
  std::uint32_t conn = 0;
  std::uint64_t id = 0;  // request id on its connection (= request number)
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;  // 0 until a response was read
  /// Completion read -> this send, on the same connection; -1 for a send
  /// that no completion triggered (the priming sends of a phase).
  std::int64_t gap_ns = -1;
  std::uint32_t tokens = 0;
  bool correct = false;
};

/// Client-side byte and frame counts, to reconcile with NetStats.
struct ClientCounters {
  std::uint64_t frames_sent = 0, frames_received = 0;
  std::uint64_t bytes_sent = 0, bytes_received = 0;
};

class LoadGen {
 public:
  /// Connect one socket per stream to 127.0.0.1:`port`. The streams must
  /// outlive the generator.
  LoadGen(std::uint16_t port, std::vector<const SlotStream*> streams);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Keep `inflight` requests outstanding on every connection, sending at
  /// most `max_sends` per connection, until `stop_ns`; then send no more
  /// and read every outstanding response. Returns the records of the
  /// requests sent here.
  std::vector<Record> drive(std::int64_t stop_ns, std::size_t inflight,
                            std::uint64_t max_sends);

  /// Close every socket (the server then closes its sessions).
  void close();

  const ClientCounters& counters() const { return counters_; }
  /// Every protocol violation, error frame or wrong result, in order.
  const std::vector<std::string>& defects() const { return defects_; }

 private:
  struct Pending {
    std::uint64_t id;
    std::size_t record;
  };
  struct Conn {
    int fd = -1;
    const SlotStream* stream = nullptr;
    std::uint64_t next = 0;  // next request number on this connection
    std::vector<std::uint8_t> rbuf;
    std::vector<Pending> pending;
    bool broken = false;
  };

  void send_next(std::uint32_t c, std::int64_t gap_from_ns,
                 std::vector<Record>& out);
  /// Read what is available; complete records. Returns completions read.
  std::size_t read_conn(std::uint32_t c, std::vector<Record>& out,
                        std::int64_t& last_read_ns);
  void defect(std::string what);

  std::vector<Conn> conns_;
  ClientCounters counters_;
  std::vector<std::string> defects_;
};

}  // namespace perfbench
