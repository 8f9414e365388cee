#include "fixture.h"

#include "core/function_library.h"
#include "core/serialization.h"
#include "net/protocol.h"
#include "numerics/rng.h"
#include "transformer/infer.h"

namespace perfbench {

using namespace std::chrono_literals;
using nnlut::LutPrecision;
namespace tf = nnlut::transformer;

const std::vector<Workload>& workloads() {
  // Why these two (and why no 2-lane workload): see perfbench/README.md.
  // Both are closed loops. Each latency limit is 1.5x the workload's
  // measured whole-window p90 (about 220 ms and 3.5 ms), rounded down, so a
  // tail regression moves slo_attained.
  static const std::vector<Workload> kWorkloads = {
      {"offline_long", {{"lut-fp32", LutPrecision::kFp32}}, 384, 4, 10ms,
       325.0},
      {"interactive_short",
       {{"lut-fp32", LutPrecision::kFp32}, {"lut-int32", LutPrecision::kInt32}},
       64, 1, 0us, 5.2},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

tf::ModelConfig model_config() {
  tf::ModelConfig c = tf::ModelConfig::roberta_like();
  c.vocab = 128;
  c.hidden = 64;
  c.layers = 2;
  c.heads = 4;
  c.ffn = 256;
  c.max_seq = 384;
  return c;
}

tf::TaskModel make_model() {
  nnlut::Rng rng(42);
  return tf::TaskModel(model_config(), tf::HeadKind::kClassify, 2, rng);
}

TableFiles write_tables(const std::string& dir) {
  const nnlut::NnlutBundle b = nnlut::train_bundle(16, nnlut::FitPreset::kFast);
  TableFiles f{dir + "/gelu.lut", dir + "/exp.lut", dir + "/reciprocal.lut",
               dir + "/rsqrt.lut"};
  nnlut::save_lut(f.gelu, b.gelu.lut);
  nnlut::save_lut(f.exp, b.exp.lut);
  nnlut::save_lut(f.reciprocal, b.reciprocal.lut);
  nnlut::save_lut(f.rsqrt, b.rsqrt.lut);
  return f;
}

tf::LutSet load_tables(const TableFiles& f) {
  return {nnlut::load_lut(f.gelu), nnlut::load_lut(f.exp),
          nnlut::load_lut(f.reciprocal), nnlut::load_lut(f.rsqrt)};
}

std::unique_ptr<tf::LutNonlinearities> make_backend(const tf::LutSet& luts,
                                                    LutPrecision precision) {
  return tf::make_lut_backend(luts, precision, tf::LutNonlinearities::Options{});
}

SlotStream make_stream(const Workload& w, std::size_t slot,
                       std::uint64_t seed) {
  SlotStream s;
  s.model_id = w.slots.at(slot).id;
  s.seq = w.seq;
  nnlut::Rng rng(seed * 1000003ull + slot);
  const int vocab = static_cast<int>(model_config().vocab);
  for (std::size_t i = 0; i < kSequences; ++i) {
    tf::BatchInput in;
    in.batch = 1;
    in.seq = w.seq;
    in.token_ids.resize(w.seq);
    for (int& t : in.token_ids) t = rng.uniform_int(0, vocab - 1);
    // Segment A / segment B halves, as in a sentence-pair task.
    in.type_ids.assign(w.seq, 0);
    for (std::size_t j = w.seq / 2; j < w.seq; ++j) in.type_ids[j] = 1;
    std::vector<std::uint8_t> payload;
    nnlut::net::encode_submit({s.model_id, in}, payload);
    s.inputs.push_back(std::move(in));
    s.submit.push_back(std::move(payload));
  }
  return s;
}

std::vector<std::uint8_t> request_frame(const SlotStream& s, std::uint64_t n) {
  return nnlut::net::make_frame(nnlut::net::FrameType::kSubmit, n,
                                s.submit[n % s.submit.size()]);
}

void fill_expected(SlotStream& s, const tf::TaskModel& model,
                   tf::NonlinearitySet& nl) {
  tf::InferenceModel direct(model, nl);
  s.expected.clear();
  for (const tf::BatchInput& in : s.inputs) {
    std::vector<std::uint8_t> bytes;
    nnlut::net::encode_result(direct.logits(in), bytes);
    s.expected.push_back(std::move(bytes));
  }
}

}  // namespace perfbench
