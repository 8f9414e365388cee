// Property tests of the approximate-inference engine: results must be
// invariant to batch partitioning, site numbering must be stable, and
// precision modes must behave sanely under composition.
#include <gtest/gtest.h>

#include "approx/linear_lut.h"
#include "eval/pipeline.h"
#include "numerics/math.h"

namespace nnlut::transformer {
namespace {

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

BatchInput slice(const BatchInput& in, std::size_t b0, std::size_t count) {
  BatchInput out;
  out.batch = count;
  out.seq = in.seq;
  out.token_ids.assign(in.token_ids.begin() + static_cast<long>(b0 * in.seq),
                       in.token_ids.begin() +
                           static_cast<long>((b0 + count) * in.seq));
  out.type_ids.assign(in.type_ids.begin() + static_cast<long>(b0 * in.seq),
                      in.type_ids.begin() +
                          static_cast<long>((b0 + count) * in.seq));
  return out;
}

BatchInput random_batch(const ModelConfig& cfg, std::size_t batch,
                        std::size_t seq, Rng& rng) {
  BatchInput in;
  in.batch = batch;
  in.seq = seq;
  in.token_ids.resize(batch * seq);
  in.type_ids.assign(batch * seq, 0);
  for (int& t : in.token_ids)
    t = rng.uniform_int(0, static_cast<int>(cfg.vocab) - 1);
  return in;
}

class BatchInvariance : public ::testing::TestWithParam<int> {};

TEST_P(BatchInvariance, LogitsIndependentOfBatchSplit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  const BatchInput full = random_batch(m.config(), 6, 8, rng);

  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact);
  const Tensor all = infer.logits(full);

  // Evaluate per-example and compare.
  for (std::size_t b = 0; b < 6; ++b) {
    const BatchInput one = slice(full, b, 1);
    const Tensor lone = infer.logits(one);
    for (std::size_t j = 0; j < lone.dim(1); ++j)
      EXPECT_NEAR(lone.at(0, j), all.at(b, j), 1e-4f) << b << "," << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchInvariance, ::testing::Values(1, 2, 3));

TEST(InferenceSites, EmbeddingNormSiteFollowsLayerCount) {
  Rng rng(4);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact);
  EXPECT_EQ(infer.embedding_norm_site(), 4);  // 2 layers -> sites 0..3, emb=4
}

TEST(InferenceSites, CaptureSeesAllLayerNormSites) {
  Rng rng(5);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 2, 8, rng);

  LutSet luts{fit_linear_lut(gelu_exact, kGeluRange, 32),
              fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 32),
              fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 64.0f}, 32,
                                       BreakpointMode::kExponential),
              fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 32,
                                       BreakpointMode::kExponential)};
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  auto backend = make_lut_backend(luts, LutPrecision::kFp32, opt);
  backend->enable_rsqrt_capture();
  InferenceModel infer(m, *backend);
  (void)infer.encode(in);

  // 2 layers x 2 norms + embedding norm = 5 sites, each capturing one value
  // per row (batch*seq = 16 rows).
  for (int site = 0; site < 5; ++site)
    EXPECT_EQ(backend->captured_rsqrt_inputs(site).size(), 16u) << site;
}

TEST(PrecisionModes, Fp16WeightsAreRepresentable) {
  Rng rng(6);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact, MatmulMode::kFp16);
  const BatchInput in = random_batch(m.config(), 1, 8, rng);
  const Tensor logits = infer.logits(in);
  for (float v : logits.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(PrecisionModes, Int8IsDeterministic) {
  Rng rng(7);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel a(m, exact, MatmulMode::kInt8);
  InferenceModel b(m, exact, MatmulMode::kInt8);
  const BatchInput in = random_batch(m.config(), 3, 8, rng);
  const Tensor la = a.logits(in);
  const Tensor lb = b.logits(in);
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(PrecisionModes, MergedBatchLogitsMatchSoloBitwise) {
  // Every matmul mode scales activations per sequence (kInt8 takes one
  // quantization scale per sequence, not per batch), so a sequence's
  // logits carry the same bits whether it runs alone or merged with others
  // — the property the serving batcher relies on.
  Rng rng(8);
  TaskModel m(tiny(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  const BatchInput merged = random_batch(m.config(), 4, 8, rng);
  for (MatmulMode mode :
       {MatmulMode::kFp32, MatmulMode::kFp16, MatmulMode::kInt8}) {
    InferenceModel infer(m, exact, mode);
    const Tensor all = infer.logits(merged);
    for (std::size_t b = 0; b < merged.batch; ++b) {
      const Tensor solo = infer.logits(slice(merged, b, 1));
      for (std::size_t j = 0; j < solo.dim(1); ++j)
        EXPECT_EQ(solo.at(0, j), all.at(b, j))
            << "mode " << static_cast<int>(mode) << " sequence " << b
            << " logit " << j;
    }
  }
}

TEST(NoNormModels, HaveNoRsqrtCaptureSites) {
  Rng rng(8);
  ModelConfig cfg = tiny();
  cfg.norm = NormKind::kNoNorm;
  cfg.act = ActKind::kRelu;
  TaskModel m(cfg, HeadKind::kClassify, 2, rng);

  LutSet luts{fit_linear_lut(gelu_exact, kGeluRange, 32),
              fit_linear_lut(exp_exact, {-16.0f, 0.0f}, 32),
              fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 64.0f}, 32,
                                       BreakpointMode::kExponential),
              fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 32,
                                       BreakpointMode::kExponential)};
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  opt.act = cfg.act;
  auto backend = make_lut_backend(luts, LutPrecision::kFp32, opt);
  backend->enable_rsqrt_capture();
  InferenceModel infer(m, *backend);
  const BatchInput in = random_batch(cfg, 2, 8, rng);
  (void)infer.encode(in);
  for (int site = 0; site < 5; ++site)
    EXPECT_TRUE(backend->captured_rsqrt_inputs(site).empty()) << site;
}

}  // namespace
}  // namespace nnlut::transformer
