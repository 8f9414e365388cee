// Network front-end tests: codec round-trips, decoder totality on
// arbitrary bytes (the fuzz half of the robustness contract in
// net/protocol.h), and live loopback serving over TcpServer — including
// the headline parity property: logits served over the socket are
// BIT-identical to direct Engine::submit results, for exact and LUT
// {fp32,int32} backends, under 4 concurrent client connections. Also pins
// the wire error taxonomy 1:1 against the serve layer's exceptions, the
// stats verb, and the composition of socket-layer shed-before-parse with
// PR 5 admission control (client-observed kOverloaded == pre-parse sheds
// + ledger overload rejections, exactly).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "approx/linear_lut.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/tcp_server.h"
#include "numerics/math.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "transformer/infer.h"

namespace nnlut::net {
namespace {

using namespace std::chrono_literals;
using namespace nnlut::transformer;

// ----------------------------------------------------------- codec ------

TEST(Protocol, HeaderRoundTrip) {
  FrameHeader h;
  h.type = FrameType::kResult;
  h.payload_len = 0xDEADBEEF;
  h.request_id = 0x0123456789ABCDEFull;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);

  FrameHeader out;
  ASSERT_EQ(decode_header(buf, out), HeaderStatus::kOk);
  EXPECT_EQ(out.type, h.type);
  EXPECT_EQ(out.payload_len, h.payload_len);
  EXPECT_EQ(out.request_id, h.request_id);

  // The wire layout is fixed little-endian, not host-endian.
  EXPECT_EQ(buf[0], 'N');
  EXPECT_EQ(buf[1], 'L');
  EXPECT_EQ(buf[2], 'U');
  EXPECT_EQ(buf[3], 'T');
  EXPECT_EQ(buf[4], kProtocolVersion);
  EXPECT_EQ(buf[8], 0xEF);  // payload_len LSB first
  EXPECT_EQ(buf[12], 0xEF);  // request_id LSB first

  // Each class of header corruption maps to its own status.
  std::uint8_t bad[kHeaderSize];
  std::memcpy(bad, buf, kHeaderSize);
  bad[0] ^= 0xFF;
  EXPECT_EQ(decode_header(bad, out), HeaderStatus::kBadMagic);
  std::memcpy(bad, buf, kHeaderSize);
  bad[4] = kProtocolVersion + 1;
  EXPECT_EQ(decode_header(bad, out), HeaderStatus::kBadVersion);
  std::memcpy(bad, buf, kHeaderSize);
  bad[5] = 0xEE;  // not a FrameType value
  EXPECT_EQ(decode_header(bad, out), HeaderStatus::kBadType);
  std::memcpy(bad, buf, kHeaderSize);
  bad[6] = 1;  // reserved bits must be zero until a later version uses them
  EXPECT_EQ(decode_header(bad, out), HeaderStatus::kBadReserved);
}

TEST(Protocol, SubmitRoundTripAndPeek) {
  SubmitFrame f;
  f.model_id = "nnlut-int32";
  f.input.batch = 2;
  f.input.seq = 3;
  f.input.token_ids = {1, 2, 3, 4, 5, 6};
  f.input.type_ids = {0, 0, 1, 0, 1, 1};
  std::vector<std::uint8_t> payload;
  encode_submit(f, payload);

  EXPECT_EQ(peek_submit_model(payload), "nnlut-int32");
  const SubmitFrame out = decode_submit(payload);
  EXPECT_EQ(out.model_id, f.model_id);
  EXPECT_EQ(out.input.batch, f.input.batch);
  EXPECT_EQ(out.input.seq, f.input.seq);
  EXPECT_EQ(out.input.token_ids, f.input.token_ids);
  EXPECT_EQ(out.input.type_ids, f.input.type_ids);

  // Without type ids (the common case): n_types == 0 on the wire.
  f.input.type_ids.clear();
  encode_submit(f, payload);
  const SubmitFrame out2 = decode_submit(payload);
  EXPECT_TRUE(out2.input.type_ids.empty());
  EXPECT_EQ(out2.input.token_ids, f.input.token_ids);
}

TEST(Protocol, ResultRoundTripIsBitExact) {
  // Floats cross the wire as raw IEEE-754 bit patterns: NaN payloads,
  // signed zero and denormals must survive untouched — the socket is not
  // allowed to be a rounding step.
  Tensor t({2, 3});
  const std::uint32_t patterns[6] = {
      0x7FC00001u,  // quiet NaN with payload bits
      0x80000000u,  // -0.0
      0x00000001u,  // smallest denormal
      0x7F7FFFFFu,  // FLT_MAX
      0xFF800000u,  // -inf
      0x3F9D70A4u,  // 1.23
  };
  for (std::size_t i = 0; i < 6; ++i)
    std::memcpy(&t[i], &patterns[i], sizeof(float));

  std::vector<std::uint8_t> payload;
  encode_result(t, payload);
  const Tensor out = decode_result(payload);
  ASSERT_EQ(out.shape(), t.shape());
  for (std::size_t i = 0; i < 6; ++i) {
    const float v = out[i];
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(float));
    EXPECT_EQ(bits, patterns[i]) << "element " << i;
  }
}

TEST(Protocol, ErrorCancelAckTextRoundTrip) {
  std::vector<std::uint8_t> payload;
  encode_error({ErrorCode::kOverloaded, "queue at depth"}, payload);
  const ErrorFrame e = decode_error(payload);
  EXPECT_EQ(e.code, ErrorCode::kOverloaded);
  EXPECT_EQ(e.message, "queue at depth");

  encode_cancel_ack(true, payload);
  EXPECT_TRUE(decode_cancel_ack(payload));
  encode_cancel_ack(false, payload);
  EXPECT_FALSE(decode_cancel_ack(payload));

  encode_text("nnlut_requests_total 3\n", payload);
  EXPECT_EQ(decode_text(payload), "nnlut_requests_total 3\n");
}

TEST(Protocol, MakeFrameLaysHeaderThenPayload) {
  std::vector<std::uint8_t> payload;
  encode_cancel_ack(true, payload);
  const auto frame = make_frame(FrameType::kCancelAck, 42, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + payload.size());
  FrameHeader h;
  ASSERT_EQ(decode_header(frame.data(), h), HeaderStatus::kOk);
  EXPECT_EQ(h.type, FrameType::kCancelAck);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_len, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         frame.begin() + kHeaderSize));
}

// ------------------------------------------------------ decoder fuzz ----

/// Every structural decoder must be TOTAL on arbitrary bytes: success or
/// ProtocolError, never a crash, another exception type, or an
/// attacker-length allocation. Exercised with a fixed seed so a failure
/// reproduces exactly.
template <typename Fn>
void expect_total(const std::vector<std::uint8_t>& bytes, Fn&& decode,
                  const char* what) {
  try {
    decode(std::span<const std::uint8_t>(bytes));
  } catch (const ProtocolError&) {
    // the only licensed failure mode
  } catch (const std::exception& e) {
    FAIL() << what << " threw non-protocol exception on " << bytes.size()
           << " fuzz bytes: " << e.what();
  }
}

TEST(ProtocolFuzz, DecodersTotalOnArbitraryBytes) {
  Rng rng(9001);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(0, 160));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    expect_total(bytes, [](auto s) { decode_submit(s); }, "decode_submit");
    expect_total(bytes, [](auto s) { peek_submit_model(s); },
                 "peek_submit_model");
    expect_total(bytes, [](auto s) { decode_result(s); }, "decode_result");
    expect_total(bytes, [](auto s) { decode_error(s); }, "decode_error");
    expect_total(bytes, [](auto s) { decode_cancel_ack(s); },
                 "decode_cancel_ack");
    expect_total(bytes, [](auto s) { decode_text(s); }, "decode_text");
    if (len >= kHeaderSize) {
      FrameHeader h;
      decode_header(bytes.data(), h);  // never throws, whatever the bytes
    }
  }
}

TEST(ProtocolFuzz, EveryTruncationOfValidPayloadsThrows) {
  SubmitFrame f;
  f.model_id = "m";
  f.input.batch = 2;
  f.input.seq = 2;
  f.input.token_ids = {1, 2, 3, 4};
  f.input.type_ids = {0, 1, 0, 1};
  std::vector<std::uint8_t> submit;
  encode_submit(f, submit);
  for (std::size_t cut = 0; cut < submit.size(); ++cut) {
    std::vector<std::uint8_t> trunc(submit.begin(),
                                    submit.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_submit(trunc), ProtocolError) << "cut " << cut;
  }
  // Trailing garbage is as structural as truncation: lengths must account
  // for every byte.
  std::vector<std::uint8_t> padded = submit;
  padded.push_back(0);
  EXPECT_THROW(decode_submit(padded), ProtocolError);

  Tensor t({2, 2});
  for (std::size_t i = 0; i < 4; ++i) t[i] = static_cast<float>(i);
  std::vector<std::uint8_t> result;
  encode_result(t, result);
  for (std::size_t cut = 0; cut < result.size(); ++cut) {
    std::vector<std::uint8_t> trunc(result.begin(),
                                    result.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_result(trunc), ProtocolError) << "cut " << cut;
  }
  result.push_back(0);
  EXPECT_THROW(decode_result(result), ProtocolError);
}

TEST(ProtocolFuzz, ZeroLengthAndClaimedLengthBombs) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(decode_submit(empty), ProtocolError);
  EXPECT_THROW(decode_result(empty), ProtocolError);
  EXPECT_THROW(decode_error(empty), ProtocolError);
  EXPECT_THROW(decode_cancel_ack(empty), ProtocolError);
  EXPECT_EQ(decode_text(empty), "");

  // A tiny payload claiming a huge element count must throw from the
  // length check, never allocate the claimed amount: counts are validated
  // against the bytes actually present before any reserve.
  std::vector<std::uint8_t> bomb = {
      0x01, 0x00, 'm',                     // model_id "m"
      0xFF, 0xFF, 0xFF, 0x7F,              // batch (absurd)
      0xFF, 0xFF, 0xFF, 0x7F,              // seq
      0xFF, 0xFF, 0xFF, 0x7F,              // n_tokens ~2^31
  };
  EXPECT_THROW(decode_submit(bomb), ProtocolError);

  std::vector<std::uint8_t> result_bomb = {
      0x02, 0x00, 0x00, 0x00,              // rank 2
      0xFF, 0xFF, 0xFF, 0x7F,              // dim0 ~2^31
      0xFF, 0xFF, 0xFF, 0x7F,              // dim1 ~2^31 (product overflows)
  };
  EXPECT_THROW(decode_result(result_bomb), ProtocolError);

  // Model ids over the decoder cap are structural violations too.
  std::vector<std::uint8_t> long_id;
  const std::uint16_t n = kMaxModelIdLen + 1;
  long_id.push_back(static_cast<std::uint8_t>(n & 0xFF));
  long_id.push_back(static_cast<std::uint8_t>(n >> 8));
  long_id.insert(long_id.end(), n, 'x');
  EXPECT_THROW(peek_submit_model(long_id), ProtocolError);
}

// ------------------------------------------------- loopback serving -----

ModelConfig tiny() {
  ModelConfig c = ModelConfig::roberta_like();
  c.vocab = 32;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.ffn = 32;
  c.max_seq = 12;
  return c;
}

LutSet tiny_luts() {
  return {fit_linear_lut(gelu_exact, kGeluRange, 32),
          fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 32),
          fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 64.0f}, 32,
                                   BreakpointMode::kExponential),
          fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 32,
                                   BreakpointMode::kExponential)};
}

BatchInput random_request(const ModelConfig& cfg, std::size_t batch,
                          std::size_t seq, Rng& rng) {
  BatchInput in;
  in.batch = batch;
  in.seq = seq;
  in.token_ids.resize(batch * seq);
  for (int& t : in.token_ids)
    t = rng.uniform_int(0, static_cast<int>(cfg.vocab) - 1);
  return in;
}

/// After every session is closed and the engine drained, the net layer's
/// own ledger must reconcile exactly: each forwarded submit resolved
/// through its on_ready callback exactly once, as either an enqueued
/// response or a dropped one. Zero unaccounted requests is the whole
/// point of the chaos hardening.
void expect_net_identity(const NetStats& s) {
  EXPECT_EQ(s.submits_forwarded,
            s.completions_enqueued + s.responses_dropped);
}

TEST(NetLoopback, ServedBitsIdenticalToDirectForAllBackends) {
  Rng rng(71);
  TaskModel model(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(model.config().act);
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  auto lut_fp32 = make_lut_backend(tiny_luts(), LutPrecision::kFp32, opt);
  auto lut_int32 = make_lut_backend(tiny_luts(), LutPrecision::kInt32, opt);

  struct SlotCase {
    const char* id;
    NonlinearitySet* nl;
  };
  const SlotCase cases[] = {{"exact", &exact},
                            {"lut-fp32", lut_fp32.get()},
                            {"lut-int32", lut_int32.get()}};

  std::vector<BatchInput> requests;
  Rng req_rng(72);
  for (int i = 0; i < 8; ++i)
    requests.push_back(random_request(tiny(), 1 + i % 2, 8, req_rng));

  // Reference: direct in-process calls, single orchestrator.
  runtime::set_runtime_config({2});
  std::vector<std::vector<Tensor>> direct(std::size(cases));
  for (std::size_t s = 0; s < std::size(cases); ++s) {
    InferenceModel infer(model, *cases[s].nl);
    for (const BatchInput& in : requests)
      direct[s].push_back(infer.logits(in));
  }

  std::vector<std::vector<Tensor>> served(std::size(cases));
  for (auto& v : served) v.resize(requests.size());
  {
    serve::Engine engine(serve::EngineConfig{/*threads=*/2});
    serve::SlotConfig scfg;
    scfg.max_batch = 4;
    scfg.max_wait = 2ms;
    for (const SlotCase& c : cases)
      engine.register_model(c.id, model, *c.nl, scfg);
    TcpServer server(engine);

    // 4 concurrent client connections, each submitting its share of every
    // backend's requests with all of them in flight before awaiting — so
    // completions genuinely arrive out of order and the demux must route
    // by request id.
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        Client client("127.0.0.1", server.port());
        std::vector<std::pair<std::uint64_t, std::pair<std::size_t,
                                                       std::size_t>>> ids;
        for (std::size_t s = 0; s < std::size(cases); ++s)
          for (std::size_t i = c; i < requests.size(); i += 4)
            ids.push_back({client.submit(cases[s].id, requests[i]), {s, i}});
        for (const auto& [id, si] : ids) {
          Completion done = client.await(id);
          ASSERT_TRUE(done.ok) << done.message;
          served[si.first][si.second] = std::move(done.logits);
        }
      });
    }
    for (auto& t : clients) t.join();

    const NetStats net = server.stats();
    EXPECT_EQ(net.connections_accepted, 4u);
    EXPECT_EQ(net.submits_forwarded,
              requests.size() * std::size(cases));
    EXPECT_EQ(net.completions_enqueued,
              requests.size() * std::size(cases));
    EXPECT_EQ(net.responses_dropped, 0u);
    EXPECT_EQ(net.protocol_errors, 0u);
    server.stop();
    expect_net_identity(server.stats());
    EXPECT_EQ(server.open_connections(), 0u);

    for (const SlotCase& c : cases) {
      const serve::SlotStats s = engine.model_stats(c.id);
      EXPECT_EQ(s.submitted, requests.size()) << c.id;
      EXPECT_EQ(s.completed, requests.size()) << c.id;
      EXPECT_EQ(s.failed, 0u) << c.id;
    }
  }
  runtime::set_runtime_config({});

  for (std::size_t s = 0; s < std::size(cases); ++s)
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(served[s][i].shape(), direct[s][i].shape())
          << cases[s].id << " request " << i;
      for (std::size_t j = 0; j < served[s][i].size(); ++j) {
        // Bitwise, not ==: NaNs and signed zeros must match too.
        std::uint32_t sb = 0, db = 0;
        std::memcpy(&sb, &served[s][i][j], sizeof(float));
        std::memcpy(&db, &direct[s][i][j], sizeof(float));
        ASSERT_EQ(sb, db) << cases[s].id << " request " << i << " elem " << j;
      }
    }
}

TEST(NetLoopback, StatsVerbServesTheScrapePage) {
  Rng rng(73);
  TaskModel model(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(model.config().act);
  serve::Engine engine(serve::EngineConfig{/*threads=*/1});
  engine.register_model("m", model, nl);
  TcpServer server(engine);

  Client client("127.0.0.1", server.port());
  const std::string page = client.stats();
  // The page is the engine's own scrape: slot families AND the net
  // families the server hung onto the same registry, labeled by port.
  EXPECT_NE(page.find("model=\"m\""), std::string::npos);
  EXPECT_NE(page.find("nnlut_net_connections_total"), std::string::npos);
  EXPECT_NE(page.find("listen=\"" + std::to_string(server.port()) + "\""),
            std::string::npos);

  // stop() deregisters the net families: a later scrape has no trace of
  // this server (fresh instances on a reused port never double-register).
  server.stop();
  const std::string after = engine.scrape();
  EXPECT_EQ(after.find("nnlut_net_"), std::string::npos);
  EXPECT_NE(after.find("model=\"m\""), std::string::npos);
  runtime::set_runtime_config({});
}

TEST(NetLoopback, WireErrorTaxonomyMatchesServeLayer) {
  Rng rng(74);
  TaskModel model(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(model.config().act);
  serve::Engine engine(serve::EngineConfig{/*threads=*/1});
  engine.register_model("m", model, nl);
  TcpServer server(engine);
  Client client("127.0.0.1", server.port());

  // Unknown model id -> std::out_of_range in process -> kOutOfRange on
  // the wire.
  const auto ghost = client.submit("ghost", random_request(tiny(), 1, 4, rng));
  Completion c = client.await(ghost);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.code, ErrorCode::kOutOfRange);

  // Validation reject (empty request) -> std::invalid_argument ->
  // kInvalidArgument.
  BatchInput empty;
  empty.batch = 0;
  empty.seq = 0;
  const auto invalid = client.submit("m", empty);
  c = client.await(invalid);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.code, ErrorCode::kInvalidArgument);

  // Token id outside the vocab -> std::out_of_range.
  BatchInput bad_tok = random_request(tiny(), 1, 4, rng);
  bad_tok.token_ids[0] = 10'000;
  const auto oob = client.submit("m", bad_tok);
  c = client.await(oob);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.code, ErrorCode::kOutOfRange);

  // Garbage submit payload: structural decode failure -> kMalformedFrame,
  // framing intact (the connection keeps serving).
  const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0x01, 0x02};
  auto frame = make_frame(FrameType::kSubmit, 90, garbage);
  client.send_raw(frame.data(), frame.size());
  c = client.await(90);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.code, ErrorCode::kMalformedFrame);

  // A client sending a server-bound type is a direction violation.
  std::vector<std::uint8_t> ack;
  encode_cancel_ack(true, ack);
  frame = make_frame(FrameType::kCancelAck, 91, ack);
  client.send_raw(frame.data(), frame.size());
  c = client.await(91);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.code, ErrorCode::kMalformedFrame);

  // Cancel of an id that is not in flight acks false.
  EXPECT_FALSE(client.cancel(4242));

  // The connection survived every payload-level error above.
  const auto alive = client.submit("m", random_request(tiny(), 1, 4, rng));
  c = client.await(alive);
  EXPECT_TRUE(c.ok);

  server.stop();
  const NetStats net = server.stats();
  expect_net_identity(net);
  EXPECT_GE(net.protocol_errors, 2u);
  EXPECT_EQ(net.cancels, 1u);
  runtime::set_runtime_config({});
}

TEST(NetLoopback, OversizedPayloadGetsFrameTooLargeThenDisconnect) {
  Rng rng(75);
  TaskModel model(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(model.config().act);
  serve::Engine engine(serve::EngineConfig{/*threads=*/1});
  engine.register_model("m", model, nl);
  TcpServerConfig cfg;
  cfg.max_payload_bytes = 1024;
  TcpServer server(engine, cfg);
  Client client("127.0.0.1", server.port());

  // Header claims a payload over the server bound; the server must answer
  // kFrameTooLarge WITHOUT reading (or allocating) the claimed bytes, then
  // close. No payload is ever sent — proof it was not waited for.
  FrameHeader h;
  h.type = FrameType::kSubmit;
  h.payload_len = 1025;
  h.request_id = 7;
  std::uint8_t hdr[kHeaderSize];
  encode_header(h, hdr);
  client.send_raw(hdr, kHeaderSize);

  Completion c = client.await(7);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.code, ErrorCode::kFrameTooLarge);
  EXPECT_THROW(client.await(8, 5000ms), ConnectionClosed);

  server.stop();
  expect_net_identity(server.stats());
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  runtime::set_runtime_config({});
}

TEST(NetLoopback, GarbageMagicDisconnectsWithoutReply) {
  Rng rng(76);
  TaskModel model(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(model.config().act);
  serve::Engine engine(serve::EngineConfig{/*threads=*/1});
  engine.register_model("m", model, nl);
  TcpServer server(engine);
  Client client("127.0.0.1", server.port());

  // 20 bytes of not-our-protocol: the peer gets silence and a close, never
  // a reply to echo back at some other protocol's parser.
  const std::uint8_t junk[kHeaderSize] = {'G', 'E', 'T', ' ', '/', ' ', 'H',
                                          'T', 'T', 'P', '/', '1', '.', '1',
                                          '\r', '\n', '\r', '\n', 0, 0};
  client.send_raw(junk, kHeaderSize);
  EXPECT_THROW(client.await(1, 5000ms), ConnectionClosed);
  EXPECT_EQ(client.pending_completions(), 0u);

  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  expect_net_identity(server.stats());
  runtime::set_runtime_config({});
}

TEST(NetLoopback, ShedBeforeParseComposesWithAdmissionControl) {
  // A bounded slot under deliberate overload, hammered through the socket:
  // every request resolves as ok or kOverloaded (nothing hangs, nothing
  // else), and the overload refusals decompose EXACTLY into the two
  // backpressure layers: socket-level pre-parse sheds plus the queue's own
  // admission rejections. completed must likewise equal the ledger's.
  Rng rng(77);
  TaskModel model(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities nl(model.config().act);
  serve::Engine engine(serve::EngineConfig{/*threads=*/2});
  serve::SlotConfig scfg;
  scfg.max_batch = 1;  // drain one at a time: keeps the queue contended
  scfg.max_wait = std::chrono::microseconds(100);
  scfg.admission = {/*max_queue_depth=*/1, serve::ShedPolicy::kRejectNew};
  engine.register_model("bounded", model, nl, scfg);
  TcpServer server(engine);

  constexpr std::size_t kClients = 4, kPerClient = 25;
  std::atomic<std::uint64_t> ok_seen{0}, overloaded_seen{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      Rng crng(100 + static_cast<int>(c));
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto id =
            client.submit("bounded", random_request(tiny(), 1, 8, crng));
        const Completion done = client.await(id);
        if (done.ok) {
          ok_seen.fetch_add(1);
        } else {
          ASSERT_EQ(done.code, ErrorCode::kOverloaded) << done.message;
          overloaded_seen.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  const NetStats net = server.stats();
  const serve::SlotStats slot = engine.model_stats("bounded");
  EXPECT_EQ(ok_seen.load() + overloaded_seen.load(), kClients * kPerClient);
  EXPECT_EQ(ok_seen.load(), slot.completed);
  // The two shed layers and only they produce kOverloaded completions.
  EXPECT_EQ(overloaded_seen.load(),
            net.sheds_preparse + slot.rejected_overload);
  // Everything the socket forwarded reached the queue's own accounting.
  EXPECT_EQ(net.submits_forwarded,
            slot.submitted + slot.rejected_overload + slot.rejected_validation
                + slot.rejected_shutdown);
  expect_net_identity(net);
  runtime::set_runtime_config({});
}

/// Exact nonlinearities behind a gate: the first LayerNorm call parks until
/// release(), which holds the slot's scheduler inside exec for as long as a
/// test needs a known queue state.
class GatedNonlinearities final : public NonlinearitySet {
 public:
  explicit GatedNonlinearities(ActKind act) : inner_(act) {}

  void activation_rows(std::span<float> data, std::size_t nrows,
                       std::size_t ncols, int site) override {
    inner_.activation_rows(data, nrows, ncols, site);
  }
  void softmax_rows(std::span<float> data, std::size_t nrows,
                    std::size_t ncols, int site) override {
    inner_.softmax_rows(data, nrows, ncols, site);
  }
  void layer_norm_rows(std::span<const float> x, std::span<float> y,
                       std::size_t nrows, std::size_t ncols,
                       std::span<const float> gamma,
                       std::span<const float> beta, int site) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      held_ = true;
      cv_.notify_all();
      cv_.wait(lk, [this] { return open_; });
    }
    inner_.layer_norm_rows(x, y, nrows, ncols, gamma, beta, site);
  }

  void wait_until_held() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return held_; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  ExactNonlinearities inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool open_ = false;
};

TEST(NetLoopback, FullRejectOldestSlotEvictsOldestInsteadOfSheddingNewest) {
  // A kRejectOldest slot at its depth bound must admit the newest request
  // and evict the oldest queued one; the socket must not refuse the newest
  // before parsing it. A is held inside exec, B fills the one queue place,
  // then C arrives: B resolves kOverloaded and C is served.
  Rng rng(79);
  TaskModel model(tiny(), HeadKind::kClassify, 2, rng);
  GatedNonlinearities gated(model.config().act);
  serve::Engine engine(serve::EngineConfig{/*threads=*/1});
  serve::SlotConfig scfg;
  scfg.max_batch = 1;
  scfg.admission = {/*max_queue_depth=*/1, serve::ShedPolicy::kRejectOldest};
  engine.register_model("oldest", model, gated, scfg);
  TcpServer server(engine);
  Client client("127.0.0.1", server.port());

  Rng req_rng(80);
  const BatchInput a = random_request(tiny(), 1, 8, req_rng);
  const BatchInput b = random_request(tiny(), 1, 8, req_rng);
  const BatchInput c = random_request(tiny(), 1, 8, req_rng);
  const auto id_a = client.submit("oldest", a);
  gated.wait_until_held();  // A is inside exec; the queue is empty
  const auto id_b = client.submit("oldest", b);
  const auto id_c = client.submit("oldest", c);
  // Release only once the server has handled all three frames, whichever
  // way it handled them.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  for (;;) {
    const NetStats net = server.stats();
    if (net.submits_forwarded + net.sheds_preparse == 3) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  gated.release();

  const Completion done_a = client.await(id_a);
  const Completion done_b = client.await(id_b);
  const Completion done_c = client.await(id_c);
  EXPECT_TRUE(done_a.ok) << done_a.message;
  EXPECT_FALSE(done_b.ok);
  EXPECT_EQ(done_b.code, ErrorCode::kOverloaded) << done_b.message;
  ASSERT_TRUE(done_c.ok) << done_c.message;
  server.stop();
  EXPECT_EQ(server.stats().sheds_preparse, 0u);
  expect_net_identity(server.stats());

  ExactNonlinearities exact(model.config().act);
  const Tensor direct = InferenceModel(model, exact).logits(c);
  ASSERT_EQ(done_c.logits.shape(), direct.shape());
  EXPECT_EQ(std::memcmp(done_c.logits.data(), direct.data(),
                        direct.size() * sizeof(float)),
            0);
  runtime::set_runtime_config({});
}

}  // namespace
}  // namespace nnlut::net
