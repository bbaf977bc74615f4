// One-dimensional complex-to-complex FFT plan.
//
// This is the engine behind QE's cft_2z / cft_2xy equivalents in the
// pipeline.  The algorithm is a mixed-radix decimation-in-time transform
// with a single full-size twiddle table: radices 2, 3, 4, 5 and 7 run as
// closed-form butterflies, 11 and 13 through a generic O(r^2) kernel;
// sizes containing larger prime factors fall back to Bluestein's chirp-z
// algorithm on an embedded power-of-two plan, so every size is O(n log n).
//
// Plans are immutable and thread-safe; scratch memory comes from a
// caller-provided (or thread-local) Workspace.  Transforms are
// unnormalized: Backward(Forward(x)) == n * x.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fft/types.hpp"
#include "fft/workspace.hpp"

namespace fx::fft {

class Bluestein;  // defined in bluestein.hpp

namespace detail {
/// Guard for the execute_many aliasing contract shared by the scalar and
/// batched engines: accepts a fully in-place batch (in == out with
/// identical strides) or disjoint in/out spans, and throws via FX_ASSERT
/// on any other overlap.
void check_batch_aliasing(std::size_t n, std::size_t howmany, const cplx* in,
                          std::size_t istride, std::size_t idist,
                          const cplx* out, std::size_t ostride,
                          std::size_t odist);
}  // namespace detail

class Fft1d {
 public:
  /// Builds a plan for length n (n >= 1) in the given direction.
  Fft1d(std::size_t n, Direction dir);
  ~Fft1d();

  Fft1d(const Fft1d&) = delete;
  Fft1d& operator=(const Fft1d&) = delete;
  Fft1d(Fft1d&&) noexcept;
  Fft1d& operator=(Fft1d&&) noexcept;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Direction direction() const { return dir_; }

  /// Contiguous transform.  in == out (in-place) is allowed and handled via
  /// an internal copy.  Partial overlap is undefined behaviour.
  void execute(const cplx* in, cplx* out, Workspace& ws) const;
  void execute(const cplx* in, cplx* out) const;

  /// Strided transform: element j read from in[j*istride], written to
  /// out[k*ostride].  Strides must be >= 1.
  void execute_strided(const cplx* in, std::size_t istride, cplx* out,
                       std::size_t ostride, Workspace& ws) const;

  /// Batched transform: `howmany` transforms; transform b reads
  /// in[b*idist + j*istride] and writes out[b*odist + k*ostride].
  ///
  /// Aliasing: transforms run sequentially, so outputs of earlier
  /// transforms must not overlap inputs of later ones.  The only
  /// supported aliased layout is the fully in-place batch (in == out,
  /// istride == ostride, idist == odist); otherwise the input and output
  /// spans must be disjoint.  Anything in between -- shifted batches,
  /// in-place with mismatched strides -- silently corrupted results
  /// before and is now rejected by an FX_ASSERT.
  void execute_many(std::size_t howmany, const cplx* in, std::size_t istride,
                    std::size_t idist, cplx* out, std::size_t ostride,
                    std::size_t odist, Workspace& ws) const;

  /// True if this plan uses the Bluestein fallback (exposed for tests).
  [[nodiscard]] bool uses_bluestein() const { return bluestein_ != nullptr; }

 private:
  friend class BatchPlan1d;  // shares factors_/twiddle_ for the SIMD tiles

  void execute_contiguous_from_strided(const cplx* in, std::size_t istride,
                                       cplx* out, Workspace& ws) const;
  void recurse(std::size_t n, std::size_t factor_index, const cplx* in,
               std::size_t istride, cplx* out, cplx* scratch) const;
  void small_dft(std::size_t r, const cplx* z, cplx* out,
                 std::size_t ostride) const;

  std::size_t n_ = 1;
  Direction dir_ = Direction::Forward;
  std::vector<std::size_t> factors_;  // product == n_, empty when Bluestein
  cvec twiddle_;                      // twiddle_[k] = exp(sign*2*pi*i*k/n)
  std::unique_ptr<Bluestein> bluestein_;
};

}  // namespace fx::fft
