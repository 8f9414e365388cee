// Bit-neutral timing decorator over transformer::NonlinearitySet. Every
// call forwards unchanged to the wrapped backend (the same virtual entry
// point, so backend overrides and defaults run exactly as without the
// decorator); with timing on, each call is bracketed by two steady_clock
// reads and recorded as a span. One encoder batch makes a fixed sequence of
// nonlinear calls: it opens with the embedding LayerNorm and closes with the
// last layer's post-FFN LayerNorm, and that interval is the batch's encode
// envelope. Everything inside the envelope that is not a nonlinear call is
// linear work (projections, attention scores and context, residuals).
//
// The decorator also captures one whole batch of call inputs on request, so
// the same calls can be replayed later through other backends (the CPU
// analogue of the paper's Table 5 LUT-vs-exact comparison).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/thread_annotations.h"
#include "transformer/backends.h"

namespace perfbench {

enum class NlOp : std::uint8_t { kActivation, kSoftmax, kLayerNorm };
const char* nl_op_name(NlOp op);

/// One captured call: its inputs, enough to replay it through any backend.
struct CapturedCall {
  NlOp op = NlOp::kActivation;
  int site = 0;
  std::size_t nrows = 0, ncols = 0;
  std::vector<float> x, gamma, beta;
};

/// Run `c` through `nl` on copies (`scratch` is reused between calls).
void replay(nnlut::transformer::NonlinearitySet& nl, const CapturedCall& c,
            std::vector<float>& scratch_in, std::vector<float>& scratch_out);

class TimingNonlinearities final : public nnlut::transformer::NonlinearitySet {
 public:
  struct Call {
    NlOp op;
    int site;
    std::uint32_t batch;  // index into batches(); UINT32_MAX outside one
    std::int64_t t0_ns, t1_ns;
    std::uint64_t elems;
  };
  struct Batch {
    std::int64_t t0_ns = 0, t1_ns = 0;  // envelope: first to last call
    std::uint64_t tokens = 0;
    std::int64_t nl_ns = 0;  // time inside nonlinear calls
  };

  /// `first_site`/`last_site`: LayerNorm sites that open and close a batch.
  TimingNonlinearities(nnlut::transformer::NonlinearitySet& inner,
                       int first_site, int last_site);

  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  /// Copy the inputs of every call of the next whole batch.
  void capture_next_batch();

  // Read after the load has stopped.
  std::vector<Call> calls() const;
  std::vector<Batch> batches() const;
  std::vector<CapturedCall> captured() const;

  void activation(std::span<float> xs, int site) override;
  void softmax(std::span<float> row, int site) override;
  void layer_norm(std::span<const float> x, std::span<float> y,
                  std::span<const float> gamma, std::span<const float> beta,
                  int site) override;
  void softmax_rows(std::span<float> data, std::size_t nrows,
                    std::size_t ncols, int site) override;
  void layer_norm_rows(std::span<const float> x, std::span<float> y,
                       std::size_t nrows, std::size_t ncols,
                       std::span<const float> gamma,
                       std::span<const float> beta, int site) override;
  void activation_rows(std::span<float> data, std::size_t nrows,
                       std::size_t ncols, int site) override;

 private:
  enum class Capture : std::uint8_t { kOff, kArmed, kOn, kDone };

  /// Capture bookkeeping, then `call` (the wrapped backend's SAME entry
  /// point), timed when timing is on. Values never pass through here.
  template <typename F>
  void forward(NlOp op, int site, std::size_t nrows, std::size_t ncols,
               std::span<const float> x, std::span<const float> gamma,
               std::span<const float> beta, F&& call);
  void before(NlOp op, int site, std::size_t nrows, std::size_t ncols,
              std::span<const float> x, std::span<const float> gamma,
              std::span<const float> beta);
  void after(NlOp op, int site, std::size_t nrows, std::size_t ncols,
             std::int64_t t0, std::int64_t t1);

  nnlut::transformer::NonlinearitySet& inner_;
  const int first_site_, last_site_;
  std::atomic<bool> timing_{false};
  std::atomic<bool> capture_active_{false};  // skips the lock when idle

  mutable nnlut::Mutex mu_;
  std::vector<Call> calls_ NNLUT_GUARDED_BY(mu_);
  std::vector<Batch> batches_ NNLUT_GUARDED_BY(mu_);
  bool in_batch_ NNLUT_GUARDED_BY(mu_) = false;
  Capture capture_ NNLUT_GUARDED_BY(mu_) = Capture::kOff;
  std::vector<CapturedCall> captured_ NNLUT_GUARDED_BY(mu_);
};

}  // namespace perfbench
