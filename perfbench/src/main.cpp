// perfbench: the repository benchmark. Serves one closed-loop workload
// through the whole stack on loopback:
//
//   LoadGen (ppoll, protocol codecs) -> net::TcpServer -> serve::Engine
//   queue/batcher -> InferenceModel with NN-LUT backends -> logits -> LoadGen
//
// checks every response bit for bit against a direct InferenceModel call,
// reconciles the client, NetStats and ledger counts exactly, and prints
// "# " report lines followed by one JSON result line. --trace 0 reports the
// end-to-end metrics; --trace 1 runs half the window untraced and half
// traced and reports the per-layer split. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// DIR receives the NN-LUT table files and, with --trace 1, a Chrome trace.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clock.h"
#include "core/lut_kernel_simd.h"
#include "fixture.h"
#include "loadgen.h"
#include "net/tcp_server.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "tensor/ops.h"
#include "timing_nl.h"

namespace {

using namespace perfbench;
namespace tf = nnlut::transformer;
namespace serve = nnlut::serve;
namespace net = nnlut::net;
namespace runtime = nnlut::runtime;

/// Cold starts per run; setup_s is their median.
constexpr int kSetupReps = 15;
/// Closed-loop warm-up before any window: pools, caches and workspaces fill.
constexpr double kWarmupSeconds = 1.5;
/// The window is cut into slices of this length; throughput and p50 latency
/// are computed per slice and the best slice is reported. The host slows a
/// busy core by ~1.45x in episodes of a fraction of a second to minutes
/// (perfbench/README.md); the best slice is the one least touched by them.
constexpr double kSliceSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool seen[5] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      seen[0] = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') usage("bad --seed");
      seen[1] = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0))
        usage("bad --seconds");
      seen[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
      seen[3] = true;
    } else if (key == "--workdir") {
      a.workdir = val;
      seen[4] = true;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  for (bool s : seen)
    if (!s) usage("every argument is required");
  if (find_workload(a.workload) == nullptr) usage("unknown workload");
  return a;
}

// ------------------------------------------------------------ numbers ---

/// Quantile by linear interpolation between closest ranks; `v` sorted.
double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct HostCpu {
  std::uint64_t total = 0, steal = 0;
};

HostCpu read_host_cpu() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  HostCpu h;
  std::uint64_t v[8] = {};
  if (f >> cpu && cpu == "cpu") {
    for (std::uint64_t& x : v) f >> x;
    for (std::uint64_t x : v) h.total += x;
    h.steal = v[7];
  }
  return h;
}

double steal_pct(const HostCpu& a, const HostCpu& b) {
  return 100.0 * ratio(static_cast<double>(b.steal - a.steal),
                       static_cast<double>(b.total - a.total));
}

double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

// -------------------------------------------------------------- stack ---

struct SetupTimes {
  double load_luts_ms = 0, register_ms = 0, listen_ms = 0,
         first_response_ms = 0;
  double total_s() const {
    return (load_luts_ms + register_ms + listen_ms + first_response_ms) / 1e3;
  }
};

struct Fixture {
  const Workload* w = nullptr;
  tf::TaskModel model;
  TableFiles tables;
  std::vector<SlotStream> streams;  // one per slot
  /// Separate backend instances: the expected bytes and the LUT side of
  /// the Table 5 replay never touch a backend the engine serves.
  std::vector<std::unique_ptr<tf::LutNonlinearities>> reference;
};

/// One served stack. Members are destroyed in reverse: client sockets
/// close first, then the server, the engine, and the backends it borrows.
struct Stack {
  tf::LutSet luts;
  std::vector<std::unique_ptr<tf::LutNonlinearities>> backends;
  std::vector<std::unique_ptr<TimingNonlinearities>> timers;  // trace only
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<LoadGen> gen;
  std::vector<Record> all;  // every request this stack served
};

/// Cold start: table files -> backends -> engine slots -> listening server
/// -> first correct response on every slot.
std::unique_ptr<Stack> cold_start(const Fixture& fx, bool trace,
                                  SetupTimes& t) {
  const Workload& w = *fx.w;
  auto s = std::make_unique<Stack>();
  const std::int64_t t0 = now_ns();
  s->luts = load_tables(fx.tables);
  // InferenceModel site numbering (transformer/infer.h): the embedding
  // LayerNorm is site 2L and opens a batch; the last layer's post-FFN
  // LayerNorm, site 2(L-1)+1, closes it.
  const int layers = static_cast<int>(model_config().layers);
  for (const SlotSpec& slot : w.slots) {
    s->backends.push_back(make_backend(s->luts, slot.precision));
    if (trace)
      s->timers.push_back(std::make_unique<TimingNonlinearities>(
          *s->backends.back(), 2 * layers, 2 * layers - 1));
  }
  const std::int64_t t1 = now_ns();
  s->engine = std::make_unique<serve::Engine>(serve::EngineConfig{kLanes});
  for (std::size_t i = 0; i < w.slots.size(); ++i) {
    serve::SlotConfig cfg;
    cfg.max_batch = kMaxBatch;
    cfg.max_wait = w.max_wait;
    tf::NonlinearitySet& nl =
        trace ? static_cast<tf::NonlinearitySet&>(*s->timers[i])
              : *s->backends[i];
    s->engine->register_model(w.slots[i].id, fx.model, nl, cfg);
  }
  const std::int64_t t2 = now_ns();
  s->server = std::make_unique<net::TcpServer>(*s->engine);
  const std::int64_t t3 = now_ns();
  std::vector<const SlotStream*> streams;
  for (const SlotStream& st : fx.streams) streams.push_back(&st);
  s->gen = std::make_unique<LoadGen>(s->server->port(), streams);
  std::vector<Record> first = s->gen->drive(now_ns(), 1, 1);
  const std::int64_t t4 = now_ns();
  s->all.insert(s->all.end(), first.begin(), first.end());
  t.load_luts_ms = static_cast<double>(t1 - t0) / 1e6;
  t.register_ms = static_cast<double>(t2 - t1) / 1e6;
  t.listen_ms = static_cast<double>(t3 - t2) / 1e6;
  t.first_response_ms = static_cast<double>(t4 - t3) / 1e6;
  return s;
}

/// Counters of every layer at one instant.
struct Snapshot {
  std::int64_t t_ns = 0;
  net::NetStats net;
  std::vector<serve::SlotStats> slots;
  runtime::ThreadPoolStats pool;
  HostCpu cpu;
};

Snapshot snapshot(const Stack& s, const Workload& w) {
  Snapshot snap;
  snap.t_ns = now_ns();
  snap.net = s.server->stats();
  for (const SlotSpec& slot : w.slots)
    snap.slots.push_back(s.engine->model_stats(slot.id));
  snap.pool = runtime::thread_pool_stats();
  snap.cpu = read_host_cpu();
  return snap;
}

/// One closed-loop window.
struct Window {
  std::vector<Record> recs;
  double seconds = 0.0;
  std::int64_t stop_ns = 0;  // sends stop here; the drain follows
  Snapshot before, after;
};

Window run_window(Stack& s, const Workload& w, double seconds) {
  Window win;
  win.before = snapshot(s, w);
  const std::int64_t stop = win.before.t_ns + static_cast<std::int64_t>(seconds * 1e9);
  win.recs = s.gen->drive(stop, w.inflight, UINT64_MAX);
  win.after = snapshot(s, w);
  win.stop_ns = stop;
  win.seconds = static_cast<double>(stop - win.before.t_ns) / 1e9;
  s.all.insert(s.all.end(), win.recs.begin(), win.recs.end());
  return win;
}

struct SliceFigures {
  double tokens_per_s = 0, p50_ms = 0;
};

/// Best over the window's slices (highest rate, lowest latency) of: tokens
/// served per second, and p50 latency of the correct requests sent in the
/// slice. The median slice goes to a report line named `label`. A correct
/// request's tokens count as served evenly over its send -> completion
/// interval, so a slice's rate is the share of those intervals inside it
/// (in a closed loop this is Little's law: in-flight tokens / latency).
/// Counting whole completions instead would quantize offline_long's rate
/// to one 1536-token batch per slice. Service after the window (the drain)
/// counts for latency only.
SliceFigures best_slice(const Window& win, const char* label) {
  const int n = std::max(1, static_cast<int>(win.seconds / kSliceSeconds));
  const std::int64_t len = (win.stop_ns - win.before.t_ns) / n;
  std::vector<double> rate, p50;
  for (int k = 0; k < n; ++k) {
    const std::int64_t a = win.before.t_ns + k * len, b = a + len;
    double tokens = 0;
    std::vector<double> lat;
    for (const Record& r : win.recs) {
      if (!r.correct) continue;
      const std::int64_t overlap =
          std::min(b, r.done_ns) - std::max(a, r.send_ns);
      if (overlap > 0)
        tokens += r.tokens * static_cast<double>(overlap) /
                  static_cast<double>(r.done_ns - r.send_ns);
      if (r.send_ns >= a && r.send_ns < b)
        lat.push_back(static_cast<double>(r.done_ns - r.send_ns) / 1e6);
    }
    rate.push_back(tokens / (static_cast<double>(len) / 1e9));
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    p50.push_back(quantile(lat, 0.5));
  }
  std::printf("# %s slices: n=%d of %gs; median slice tokens_per_s=%.1f "
              "p50_ms=%.3f\n",
              label, n, kSliceSeconds, median(rate), median(p50));
  std::sort(rate.begin(), rate.end());
  std::sort(p50.begin(), p50.end());
  return {quantile(rate, 1.0), quantile(p50, 0.0)};
}

std::vector<double> latencies_ms(const std::vector<Record>& recs) {
  std::vector<double> v;
  for (const Record& r : recs)
    if (r.correct) v.push_back(static_cast<double>(r.done_ns - r.send_ns) / 1e6);
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------ reconciliation ---

/// Exact identities across the client, NetStats and every slot ledger,
/// once the client has closed and the engine has drained.
std::vector<std::string> reconcile(Stack& s, const Workload& w) {
  std::vector<std::string> bad;
  s.gen->close();
  const std::int64_t give_up = now_ns() + 10'000'000'000;
  for (net::NetStats n = s.server->stats();
       n.connections_closed != n.connections_accepted && now_ns() < give_up;
       n = s.server->stats())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  s.server->stop();
  s.engine->shutdown();
  const net::NetStats n = s.server->stats();
  const ClientCounters& c = s.gen->counters();
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) bad.push_back("reconciliation: " + what);
  };
  expect(n.submits_forwarded == n.completions_enqueued + n.responses_dropped,
         "submits_forwarded != completions_enqueued + responses_dropped");
  expect(n.responses_dropped == 0, "responses dropped");
  expect(n.sheds_preparse == 0 && n.protocol_errors == 0 &&
             n.slow_reader_evictions == 0 && n.cancels == 0,
         "sheds, protocol errors, evictions or cancels on the server");
  expect(n.frames_read == c.frames_sent, "server frames_read != client sent");
  expect(n.frames_written == c.frames_received,
         "server frames_written != client received");
  expect(n.bytes_read == c.bytes_sent, "server bytes_read != client sent");
  expect(n.bytes_written == c.bytes_received,
         "server bytes_written != client received");
  std::uint64_t submitted = 0, completed = 0;
  for (const SlotSpec& slot : w.slots) {
    const serve::SlotStats st = s.engine->model_stats(slot.id);
    expect(st.submitted == st.completed + st.failed + st.cancelled,
           slot.id + ": submitted != completed + failed + cancelled");
    expect(st.rejected == 0 && st.failed == 0 && st.cancelled == 0,
           slot.id + ": rejected, failed or cancelled requests");
    expect(st.hist_total.count() == st.completed,
           slot.id + ": latency histogram count != completed");
    submitted += st.submitted;
    completed += st.completed;
  }
  std::uint64_t client_ok = 0;
  for (const Record& r : s.all) client_ok += r.correct ? 1 : 0;
  expect(submitted == n.submits_forwarded, "ledgers' submitted != submits_forwarded");
  expect(n.submits_forwarded == c.frames_sent, "submits_forwarded != client sends");
  expect(completed == client_ok, "ledgers' completed != client's correct results");
  return bad;
}

// ----------------------------------------------------------- per-layer ---

/// Median seconds of `reps` timings of fn().
template <typename F>
double median_time_s(int reps, F&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(t);
}

/// GFLOP/s of the public matmul (bt = false) or matmul_bt on the encoder's
/// projection shapes at `rows` tokens: QKV and Wo (64x64, four per layer),
/// FF1 (64x256) and FF2 (256x64).
double matmul_gflops(std::size_t rows, bool bt) {
  const tf::ModelConfig cfg = model_config();
  struct Shape {
    std::size_t k, n, uses;
  };
  const Shape shapes[] = {{cfg.hidden, cfg.hidden, 4},
                          {cfg.hidden, cfg.ffn, 1},
                          {cfg.ffn, cfg.hidden, 1}};
  nnlut::Rng rng(11);
  double flops = 0.0, secs = 0.0;
  for (const Shape& sh : shapes) {
    nnlut::Tensor a({rows, sh.k}), b(bt ? nnlut::Tensor({sh.n, sh.k})
                                        : nnlut::Tensor({sh.k, sh.n}));
    nnlut::Tensor c({rows, sh.n});
    for (float& x : a.flat()) x = rng.uniform(-1.0f, 1.0f);
    for (float& x : b.flat()) x = rng.uniform(-1.0f, 1.0f);
    // Enough calls per timing that one takes a few milliseconds.
    const double one = 2.0 * static_cast<double>(rows * sh.k * sh.n);
    const int calls = std::max(1, static_cast<int>(2e7 / one));
    auto run = [&] {
      for (int i = 0; i < calls; ++i) bt ? nnlut::matmul_bt(a, b, c)
                                         : nnlut::matmul(a, b, c);
    };
    run();  // warm
    secs += static_cast<double>(sh.uses) * median_time_s(7, run) / calls;
    flops += static_cast<double>(sh.uses) * one;
  }
  return flops / secs / 1e9;
}

/// Exact-over-LUT time of the captured batch's nonlinear calls, replayed on
/// copies: the CPU analogue of the paper's Table 5 comparison.
double lut_speedup_vs_exact(const Fixture& fx, const Stack& s) {
  tf::ExactNonlinearities exact(model_config().act);
  std::vector<float> in, out;
  double lut_s = 0.0, exact_s = 0.0;
  for (std::size_t i = 0; i < s.timers.size(); ++i) {
    const std::vector<CapturedCall> calls = s.timers[i]->captured();
    if (calls.empty()) continue;
    auto run = [&](tf::NonlinearitySet& nl) {
      for (const CapturedCall& c : calls) replay(nl, c, in, out);
    };
    run(*fx.reference[i]);
    run(exact);
    std::vector<double> lut_t, exact_t;
    for (int r = 0; r < 9; ++r) {  // alternate, so drift hits both sides
      lut_t.push_back(median_time_s(1, [&] { run(*fx.reference[i]); }));
      exact_t.push_back(median_time_s(1, [&] { run(exact); }));
    }
    lut_s += median(lut_t);
    exact_s += median(exact_t);
  }
  return ratio(exact_s, lut_s);
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Per-layer split of the traced window `b` (`a`: the untraced half).
Metrics per_layer(const Fixture& fx, const Stack& s, const Window& a,
                  const Window& b, const SetupTimes& setup,
                  std::string& trace_json) {
  const Workload& w = *fx.w;
  Metrics m;
  auto put = [&](const char* name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  const double reqs = static_cast<double>(b.recs.size());

  std::vector<double> gaps;
  for (const Record& r : b.recs)
    if (r.gap_ns >= 0) gaps.push_back(static_cast<double>(r.gap_ns) / 1e3);
  std::sort(gaps.begin(), gaps.end());
  put("loadgen.resend_gap_p90_us", quantile(gaps, 0.9), "us");
  put("host.steal_pct", steal_pct(b.before.cpu, b.after.cpu), "%");

  // Engine-side sums over every slot.
  double total_sum = 0, total_n = 0, batches = 0, seqs = 0, alloc = 0,
         bytes_peak = 0;
  double stage_sum[4] = {}, stage_n[4] = {};
  for (std::size_t i = 0; i < w.slots.size(); ++i) {
    const serve::SlotStats& x = b.before.slots[i];
    const serve::SlotStats& y = b.after.slots[i];
    total_sum += static_cast<double>(y.hist_total.sum_us() - x.hist_total.sum_us());
    total_n += static_cast<double>(y.hist_total.count() - x.hist_total.count());
    const serve::LatencyHistogram* hx[4] = {&x.hist_queue_wait, &x.hist_batch_wait,
                                            &x.hist_exec, &x.hist_resolve};
    const serve::LatencyHistogram* hy[4] = {&y.hist_queue_wait, &y.hist_batch_wait,
                                            &y.hist_exec, &y.hist_resolve};
    for (int k = 0; k < 4; ++k) {
      stage_sum[k] += static_cast<double>(hy[k]->sum_us() - hx[k]->sum_us());
      stage_n[k] += static_cast<double>(hy[k]->count() - hx[k]->count());
    }
    batches += static_cast<double>(y.batches - x.batches);
    seqs += std::round(y.mean_batch_occupancy * static_cast<double>(y.batches)) -
            std::round(x.mean_batch_occupancy * static_cast<double>(x.batches));
    alloc += static_cast<double>(y.pool_alloc_count - x.pool_alloc_count);
    bytes_peak += static_cast<double>(y.pool_bytes_peak);
  }
  std::vector<double> rtt_ms = latencies_ms(b.recs);
  double rtt_sum = 0;
  for (double v : rtt_ms) rtt_sum += v;
  put("net.overhead_mean_us",
      1e3 * ratio(rtt_sum, static_cast<double>(rtt_ms.size())) -
          ratio(total_sum, total_n),
      "us");
  const net::NetStats& nx = b.before.net;
  const net::NetStats& ny = b.after.net;
  put("net.bytes_per_request",
      ratio(static_cast<double>(ny.bytes_read - nx.bytes_read +
                                ny.bytes_written - nx.bytes_written),
            reqs),
      "B");
  put("net.frames_per_request",
      ratio(static_cast<double>(ny.frames_read - nx.frames_read +
                                ny.frames_written - nx.frames_written),
            reqs),
      "count");
  put("serve.queue_wait_mean_us", ratio(stage_sum[0], stage_n[0]), "us");
  put("serve.batch_wait_mean_us", ratio(stage_sum[1], stage_n[1]), "us");
  put("serve.exec_mean_us", ratio(stage_sum[2], stage_n[2]), "us");
  put("serve.resolve_mean_us", ratio(stage_sum[3], stage_n[3]), "us");
  put("serve.seqs_per_batch", ratio(seqs, batches), "count");

  const runtime::ThreadPoolStats& px = b.before.pool;
  const runtime::ThreadPoolStats& py = b.after.pool;
  const double jobs = static_cast<double>(py.jobs - px.jobs);
  put("runtime.pool_jobs_per_request", ratio(jobs, reqs), "count");
  put("runtime.pool_inline_per_request",
      ratio(static_cast<double>(py.inline_runs - px.inline_runs), reqs), "count");
  put("runtime.pool_shards_per_job",
      ratio(static_cast<double>(py.shards - px.shards), jobs), "count");
  put("runtime.buffer_alloc_delta", alloc, "count");
  put("runtime.pool_bytes_peak", bytes_peak, "B");

  // Decorator spans: batch envelopes and nonlinear calls of the traced half.
  double env_ns = 0, nl_ns = 0, tokens = 0;
  double op_ns[3] = {}, op_elems[3] = {};
  std::ostringstream ev;
  std::size_t events = 0;
  constexpr std::size_t kMaxEvents = 400000;
  const std::int64_t origin = b.before.t_ns;
  auto event = [&](const std::string& name, int tid, std::int64_t t0,
                   std::int64_t t1, const std::string& args) {
    if (events++ >= kMaxEvents) return;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,",
                  tid, static_cast<double>(t0 - origin) / 1e3,
                  static_cast<double>(t1 - t0) / 1e3);
    ev << buf << "\"name\":\"" << name << "\",\"args\":{" << args << "}}";
  };
  for (std::size_t i = 0; i < s.timers.size(); ++i) {
    // Requests of this slot (its one connection), by send time, to tag each
    // batch envelope with the ids of the requests it served.
    std::vector<const Record*> slot_recs;
    for (const Record& r : b.recs)
      if (r.conn == i && r.correct) slot_recs.push_back(&r);
    const std::vector<TimingNonlinearities::Batch> bs = s.timers[i]->batches();
    for (std::size_t bi = 0; bi < bs.size(); ++bi) {
      const TimingNonlinearities::Batch& x = bs[bi];
      if (x.t1_ns == 0) continue;  // cut off by the end of tracing
      env_ns += static_cast<double>(x.t1_ns - x.t0_ns);
      nl_ns += static_cast<double>(x.nl_ns);
      tokens += static_cast<double>(x.tokens);
      std::string ids;
      const auto first = std::upper_bound(
          slot_recs.begin(), slot_recs.end(), x.t0_ns,
          [](std::int64_t t, const Record* r) { return t < r->send_ns; });
      for (auto it = first; it != slot_recs.begin();) {
        --it;
        if (first - it > 16) break;
        if ((*it)->done_ns < x.t1_ns) continue;
        if (!ids.empty()) ids += ',';
        ids += std::to_string((*it)->id);
      }
      event("encode", 100 + static_cast<int>(i), x.t0_ns, x.t1_ns,
            "\"slot\":\"" + w.slots[i].id + "\",\"batch\":" +
                std::to_string(bi) + ",\"tokens\":" +
                std::to_string(x.tokens) + ",\"requests\":[" + ids + "]");
    }
    for (const TimingNonlinearities::Call& c : s.timers[i]->calls()) {
      const int k = static_cast<int>(c.op);
      op_ns[k] += static_cast<double>(c.t1_ns - c.t0_ns);
      op_elems[k] += static_cast<double>(c.elems);
      event(nl_op_name(c.op), 200 + static_cast<int>(i), c.t0_ns, c.t1_ns,
            "\"batch\":" + std::to_string(c.batch) + ",\"site\":" +
                std::to_string(c.site) + ",\"elems\":" +
                std::to_string(c.elems));
    }
  }
  for (const Record& r : b.recs)
    event("request", 10 + static_cast<int>(r.conn), r.send_ns,
          r.done_ns != 0 ? r.done_ns : r.send_ns,
          "\"slot\":\"" + w.slots[r.conn].id + "\",\"id\":" +
              std::to_string(r.id) + ",\"correct\":" +
              (r.correct ? "true" : "false"));
  trace_json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"perfbench " + w.name + "\"}}" +
               ev.str() + "\n]}\n";

  put("transformer.encode_us_per_token", ratio(env_ns / 1e3, tokens), "us");
  put("transformer.linear_share", ratio(env_ns - nl_ns, env_ns), "ratio");
  put("core.softmax_ns_per_elem",
      ratio(op_ns[static_cast<int>(NlOp::kSoftmax)],
            op_elems[static_cast<int>(NlOp::kSoftmax)]),
      "ns");
  put("core.layernorm_ns_per_elem",
      ratio(op_ns[static_cast<int>(NlOp::kLayerNorm)],
            op_elems[static_cast<int>(NlOp::kLayerNorm)]),
      "ns");
  put("core.activation_ns_per_elem",
      ratio(op_ns[static_cast<int>(NlOp::kActivation)],
            op_elems[static_cast<int>(NlOp::kActivation)]),
      "ns");
  put("core.nl_share", ratio(nl_ns, env_ns), "ratio");
  put("core.lut_speedup_vs_exact", lut_speedup_vs_exact(fx, s), "ratio");

  const std::size_t rows = w.seq * std::min(w.inflight, kMaxBatch);
  put("tensor.matmul_gflops", matmul_gflops(rows, false), "GFLOP/s");
  put("tensor.matmul_bt_gflops", matmul_gflops(rows, true), "GFLOP/s");

  put("obs.trace_overhead_ratio",
      ratio(best_slice(b, "traced-half").p50_ms,
            best_slice(a, "untraced-half").p50_ms) - 1.0,
      "ratio");

  put("setup.load_luts_ms", setup.load_luts_ms, "ms");
  put("setup.register_ms", setup.register_ms, "ms");
  put("setup.listen_ms", setup.listen_ms, "ms");
  put("setup.first_response_ms", setup.first_response_ms, "ms");
  return m;
}

// ------------------------------------------------------------- output ---

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void report_latency(const char* label, const std::vector<Record>& recs) {
  const std::vector<double> l = latencies_ms(recs);
  const double n = static_cast<double>(l.size());
  std::printf("# %s latency: n=%zu p50_ms=%.3f p90_ms=%.3f p99_ms=%.3f "
              "(samples above p90: %.0f, above p99: %.0f)\n",
              label, l.size(), quantile(l, 0.5), quantile(l, 0.9),
              quantile(l, 0.99), std::floor(n * 0.1), std::floor(n * 0.01));
}

void report_host(const Window& win, const char* label) {
  std::vector<double> gaps;
  for (const Record& r : win.recs)
    if (r.gap_ns >= 0) gaps.push_back(static_cast<double>(r.gap_ns) / 1e3);
  std::sort(gaps.begin(), gaps.end());
  std::printf("# %s host: steal_pct=%.3f resend_gap_p50_us=%.1f "
              "resend_gap_p90_us=%.1f resend_gap_max_us=%.1f\n",
              label, steal_pct(win.before.cpu, win.after.cpu),
              quantile(gaps, 0.5), quantile(gaps, 0.9),
              gaps.empty() ? 0.0 : gaps.back());
}

int run(const Args& args) {
  Fixture fx;
  fx.w = find_workload(args.workload);
  const Workload& w = *fx.w;

  // ---- fixture (untimed) ----
  const std::string table_dir = args.workdir + "/tables";
  ::mkdir(args.workdir.c_str(), 0755);
  ::mkdir(table_dir.c_str(), 0755);
  fx.model = make_model();
  fx.tables = write_tables(table_dir);
  const tf::LutSet luts = load_tables(fx.tables);
  for (std::size_t i = 0; i < w.slots.size(); ++i) {
    fx.streams.push_back(make_stream(w, i, args.seed));
    fx.reference.push_back(make_backend(luts, w.slots[i].precision));
    fill_expected(fx.streams.back(), fx.model, *fx.reference.back());
  }

  // ---- set-up: kSetupReps cold starts; the last one serves the window ----
  std::vector<std::string> defects;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kSetupReps; ++r) {
    if (stack) {
      for (const std::string& d : stack->gen->defects()) defects.push_back(d);
      stack.reset();
    }
    SetupTimes t;
    stack = cold_start(fx, args.trace, t);
    setups.push_back(t);
  }
  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total_s());
  const double setup_s = median(setup_totals);
  const SetupTimes& setup_mid = *std::min_element(
      setups.begin(), setups.end(), [&](const SetupTimes& x, const SetupTimes& y) {
        return std::abs(x.total_s() - setup_s) < std::abs(y.total_s() - setup_s);
      });

  // ---- warm-up (the traced run also captures one batch for the replay) ----
  for (auto& t : stack->timers) t->capture_next_batch();
  {
    const std::vector<Record> warm = stack->gen->drive(
        now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9), w.inflight,
        UINT64_MAX);
    stack->all.insert(stack->all.end(), warm.begin(), warm.end());
  }

  // ---- measured window(s) ----
  Metrics metrics;
  std::string trace_json;
  std::vector<Record> attempted;
  if (!args.trace) {
    const Window win = run_window(*stack, w, args.seconds);
    attempted = win.recs;
    const SliceFigures sm = best_slice(win, "window");
    double slo_ok = 0;
    for (const Record& r : win.recs)
      if (r.correct &&
          static_cast<double>(r.done_ns - r.send_ns) / 1e6 <= w.slo_ms)
        slo_ok += 1;
    metrics = {
        {"setup_s", {setup_s, "s"}},
        {"tokens_per_s", {sm.tokens_per_s, "tok/s"}},
        {"latency_p50_ms", {sm.p50_ms, "ms"}},
        {"latency_p90_ms", {quantile(latencies_ms(win.recs), 0.9), "ms"}},
        {"slo_attained",
         {ratio(slo_ok, static_cast<double>(win.recs.size())), "ratio"}},
        {"rss_peak_mb", {vm_hwm_mb(), "MB"}},
    };
    report_host(win, "window");
    report_latency("window", win.recs);
  } else {
    const Window a = run_window(*stack, w, args.seconds / 2);
    for (auto& t : stack->timers) t->set_timing(true);
    const Window b = run_window(*stack, w, args.seconds / 2);
    for (auto& t : stack->timers) t->set_timing(false);
    attempted = a.recs;
    attempted.insert(attempted.end(), b.recs.begin(), b.recs.end());
    metrics = per_layer(fx, *stack, a, b, setup_mid, trace_json);
    report_host(a, "untraced-half");
    report_host(b, "traced-half");
    report_latency("untraced-half", a.recs);
    report_latency("traced-half", b.recs);
  }

  // ---- correctness: bitwise gate + exact reconciliation ----
  for (const std::string& d : stack->gen->defects()) defects.push_back(d);
  for (const std::string& d : reconcile(*stack, w)) defects.push_back(d);
  std::size_t failed = 0;
  for (const Record& r : attempted) failed += r.correct ? 0 : 1;

  if (!trace_json.empty()) {
    const std::string path =
        args.workdir + "/trace-" + w.name + "-" + std::to_string(args.seed) + ".json";
    std::ofstream(path) << trace_json;
    std::printf("# chrome trace: %s\n", path.c_str());
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::string slots;
  for (const SlotSpec& s : w.slots) {
    if (!slots.empty()) slots += ',';
    slots += s.id;
  }
  std::printf("# config: nproc=%u lanes=%zu slots=%s seq=%zu inflight=%zu "
              "max_batch=%zu max_wait_us=%lld slo_ms=%g\n",
              std::thread::hardware_concurrency(), kLanes, slots.c_str(),
              w.seq, w.inflight, kMaxBatch,
              static_cast<long long>(w.max_wait.count()), w.slo_ms);
  std::printf("# simd: detected=%s auto=%s active=%s\n",
              nnlut::simd::simd_tier_name(nnlut::simd::detected_simd_tier()),
              nnlut::simd::simd_tier_name(nnlut::simd::auto_simd_tier()),
              nnlut::simd::simd_tier_name(nnlut::simd::active_simd_tier()));
  std::printf("# setup: reps=%d median_s=%.6f (load_luts_ms=%.3f register_ms=%.3f "
              "listen_ms=%.3f first_response_ms=%.3f)\n",
              kSetupReps, setup_s, setup_mid.load_luts_ms, setup_mid.register_ms,
              setup_mid.listen_ms, setup_mid.first_response_ms);
  std::printf("# gate: %zu responses of this stack checked bit for bit, "
              "%zu failed; %zu defects\n",
              stack->all.size(), failed, defects.size());
  for (const std::string& d : defects) std::printf("# DEFECT: %s\n", d.c_str());
  for (const auto& [name, vu] : metrics)
    std::printf("# metric %s = %.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());

  const bool correct = defects.empty() && failed == 0 && !attempted.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted.size());
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           json_number(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
