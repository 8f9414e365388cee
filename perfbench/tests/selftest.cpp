// Self-tests of the benchmark's own code: the request stream is a pure
// function of the seed, the timing decorator never changes a bit, and the
// pool forks only with a second lane.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/function_library.h"
#include "fixture.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "timing_nl.h"
#include "transformer/infer.h"

namespace {

using namespace perfbench;
namespace tf = nnlut::transformer;

/// The benchmark's tables, trained once for every test.
const tf::LutSet& fixture_luts() {
  static const tf::LutSet luts = [] {
    const nnlut::NnlutBundle b = nnlut::train_bundle(16, nnlut::FitPreset::kFast);
    return tf::LutSet{b.gelu.lut, b.exp.lut, b.reciprocal.lut, b.rsqrt.lut};
  }();
  return luts;
}

TEST(RequestStream, OneSeedGivesAByteIdenticalStream) {
  for (const Workload& w : workloads()) {
    for (std::size_t slot = 0; slot < w.slots.size(); ++slot) {
      const SlotStream a = make_stream(w, slot, 7);
      const SlotStream b = make_stream(w, slot, 7);
      const SlotStream c = make_stream(w, slot, 8);
      bool differs = false;
      for (std::uint64_t n = 0; n < 3 * kSequences; ++n) {
        EXPECT_EQ(request_frame(a, n), request_frame(b, n))
            << w.name << " slot " << slot << " request " << n;
        differs |= request_frame(a, n) != request_frame(c, n);
      }
      EXPECT_TRUE(differs) << w.name << ": seeds 7 and 8 gave one stream";
    }
  }
}

TEST(RequestStream, SequencesAreDistinct) {
  const SlotStream s = make_stream(workloads().front(), 0, 1);
  for (std::size_t i = 0; i < s.submit.size(); ++i)
    for (std::size_t j = i + 1; j < s.submit.size(); ++j)
      EXPECT_NE(s.submit[i], s.submit[j]) << i << " vs " << j;
}

TEST(TimingDecorator, IsBitNeutralAndSeesWholeBatches) {
  const tf::TaskModel model = make_model();
  const tf::LutSet& luts = fixture_luts();
  const int layers = static_cast<int>(model_config().layers);

  // Three sequences merged into one batch, as the batcher packs them.
  const Workload& w = *find_workload("interactive_short");
  const SlotStream s = make_stream(w, 0, 3);
  tf::BatchInput in;
  in.batch = 3;
  in.seq = w.seq;
  for (std::size_t i = 0; i < 3; ++i) {
    in.token_ids.insert(in.token_ids.end(), s.inputs[i].token_ids.begin(),
                        s.inputs[i].token_ids.end());
    in.type_ids.insert(in.type_ids.end(), s.inputs[i].type_ids.begin(),
                       s.inputs[i].type_ids.end());
  }

  for (nnlut::LutPrecision p :
       {nnlut::LutPrecision::kFp32, nnlut::LutPrecision::kInt32}) {
    auto plain = make_backend(luts, p);
    auto inner = make_backend(luts, p);
    TimingNonlinearities timed(*inner, 2 * layers, 2 * layers - 1);
    timed.set_timing(true);
    timed.capture_next_batch();

    const nnlut::Tensor want = tf::InferenceModel(model, *plain).logits(in);
    const nnlut::Tensor got = tf::InferenceModel(model, timed).logits(in);
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
              0);

    // One batch: embedding LayerNorm, then softmax, LayerNorm, activation,
    // LayerNorm per layer.
    const auto batches = timed.batches();
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].tokens, 3 * w.seq);
    EXPECT_GT(batches[0].t1_ns, batches[0].t0_ns);
    EXPECT_EQ(timed.calls().size(), static_cast<std::size_t>(1 + 4 * layers));
    EXPECT_EQ(timed.captured().size(), static_cast<std::size_t>(1 + 4 * layers));
  }
}

TEST(TimingDecorator, ReplayReproducesTheCapturedCalls) {
  const tf::TaskModel model = make_model();
  const tf::LutSet& luts = fixture_luts();
  const int layers = static_cast<int>(model_config().layers);
  auto inner = make_backend(luts, nnlut::LutPrecision::kFp32);
  TimingNonlinearities timed(*inner, 2 * layers, 2 * layers - 1);
  timed.capture_next_batch();
  const SlotStream s = make_stream(*find_workload("interactive_short"), 0, 5);
  tf::InferenceModel(model, timed).logits(s.inputs[0]);

  // Replaying one call twice through the same backend gives the same bits.
  const std::vector<CapturedCall> calls = timed.captured();
  ASSERT_FALSE(calls.empty());
  std::vector<float> in1, out1, in2, out2;
  for (const CapturedCall& c : calls) {
    replay(*inner, c, in1, out1);
    replay(*inner, c, in2, out2);
    const auto& a = c.op == NlOp::kLayerNorm ? out1 : in1;
    const auto& bb = c.op == NlOp::kLayerNorm ? out2 : in2;
    EXPECT_EQ(a, bb) << nl_op_name(c.op) << " site " << c.site;
  }
}

// The runtime.pool_* metrics read 0 jobs on the benchmark's one-lane
// workloads; this pins that a second lane is what makes the pool fork.
TEST(ThreadPool, JobsAreZeroAtOneLaneAndPositiveAtTwo) {
  const tf::TaskModel model = make_model();
  const tf::LutSet& luts = fixture_luts();
  auto backend = make_backend(luts, nnlut::LutPrecision::kFp32);
  tf::BatchInput in = make_stream(*find_workload("offline_long"), 0, 9).inputs[0];
  in.seq = 128;
  in.token_ids.resize(128);
  in.type_ids.resize(128);
  for (std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
    nnlut::serve::Engine engine(nnlut::serve::EngineConfig{lanes});
    engine.register_model("m", model, *backend);
    const std::uint64_t before = nnlut::runtime::thread_pool_stats().jobs;
    engine.submit("m", in).get();
    const std::uint64_t jobs = nnlut::runtime::thread_pool_stats().jobs - before;
    if (lanes == 1)
      EXPECT_EQ(jobs, 0u);
    else
      EXPECT_GT(jobs, 0u);
  }
}

}  // namespace
