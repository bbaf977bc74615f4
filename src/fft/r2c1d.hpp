// Batched real-to-complex / complex-to-real 1D transforms.
//
// Gamma-point wavefunctions are real in real space, so their spectra are
// Hermitian: X[n-k] == conj(X[k]).  A full complex plan computes (and the
// exchange layer ships) both halves; this engine computes only the
// non-redundant half spectrum of N/2+1 coefficients and does it with half
// the butterflies, via the classic pack-two-reals-into-one-complex trick
// applied *within* one signal:
//
//   forward (r2c), even n = 2m:
//     z[j] = x[2j] + i*x[2j+1]                 (reinterpret, no extra flops)
//     Z    = FFT_m(z)                          (half-length transform)
//     X[k] = E[k] + w^k * O[k],  k = 0..m      (post-pass twiddle split)
//   where E[k] = (Z[k] + conj(Z[m-k]))/2, O[k] = (Z[k] - conj(Z[m-k]))/(2i)
//   are the spectra of the even/odd samples and w = exp(-2*pi*i/n); indices
//   are mod m (Z[m] reads Z[0]).
//
//   backward (c2r), the exact inverse pre-pass:
//     Z'[k] = (X[k] + conj(X[m-k])) + i*conj(w)^k * (X[k] - conj(X[m-k]))
//     z     = BackwardFFT_m(Z')                (Z' = 2Z, so z carries n*x)
//     x[2j] = Re z[j], x[2j+1] = Im z[j]
//
// Both directions are unnormalized like every plan here: c2r(r2c(x)) == n*x.
// The half-length transform is a BatchPlan1d, so the hot butterflies stay
// SIMD-across-batch; odd lengths, length 1, and BatchKernel::Scalar route
// through a full-length complex transform of the zero-extended input -- the
// genuinely different algorithm that serves as the correctness oracle.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "fft/batch1d.hpp"
#include "fft/plan1d.hpp"
#include "fft/types.hpp"
#include "fft/workspace.hpp"

namespace fx::fft {

class BatchPlanR2c1d {
 public:
  static constexpr std::size_t kSimdWidth = BatchPlan1d::kSimdWidth;

  /// A Forward plan computes r2c (real in, half spectrum out); a Backward
  /// plan computes c2r (half spectrum in, real out).  Any n >= 1 works;
  /// even n >= 2 with a non-scalar kernel uses the packed half-length path,
  /// whose tiles run on `isa`.
  BatchPlanR2c1d(std::size_t n, Direction dir,
                 BatchKernel kernel = default_batch_kernel(),
                 TileIsa isa = default_tile_isa());

  /// Logical (real) transform length n.
  [[nodiscard]] std::size_t size() const { return n_; }
  /// Stored spectrum length n/2 + 1 (the non-redundant Hermitian half).
  [[nodiscard]] std::size_t half_spectrum() const { return nh_; }
  [[nodiscard]] Direction direction() const { return dir_; }
  [[nodiscard]] BatchKernel kernel() const { return kernel_; }
  /// True if the packed half-length path is in use (false for odd n, n == 1
  /// and the scalar oracle, which run a full-length complex transform).
  [[nodiscard]] bool packed_active() const { return packed_; }

  /// r2c: transform b reads n reals at in[b*idist + j*istride] and writes
  /// half_spectrum() coefficients at out[b*odist + k*ostride].  Forward
  /// plans only.  in and out must not overlap.
  void execute_many(std::size_t howmany, const double* in, std::size_t istride,
                    std::size_t idist, cplx* out, std::size_t ostride,
                    std::size_t odist, Workspace& ws) const;

  /// c2r: transform b reads half_spectrum() coefficients at
  /// in[b*idist + k*istride] and writes n reals at out[b*odist + j*ostride].
  /// Only the stored half is read; the redundant mirror is implied.
  /// Backward plans only.  in and out must not overlap.
  void execute_many(std::size_t howmany, const cplx* in, std::size_t istride,
                    std::size_t idist, double* out, std::size_t ostride,
                    std::size_t odist, Workspace& ws) const;

  /// Single-transform conveniences over contiguous spans.
  void execute(std::span<const double> in, std::span<cplx> out,
               Workspace& ws) const;
  void execute(std::span<const cplx> in, std::span<double> out,
               Workspace& ws) const;

 private:
  void forward_packed(std::size_t howmany, const double* in,
                      std::size_t istride, std::size_t idist, cplx* out,
                      std::size_t ostride, std::size_t odist,
                      Workspace& ws) const;
  void backward_packed(std::size_t howmany, const cplx* in,
                       std::size_t istride, std::size_t idist, double* out,
                       std::size_t ostride, std::size_t odist,
                       Workspace& ws) const;
  void forward_fallback(std::size_t howmany, const double* in,
                        std::size_t istride, std::size_t idist, cplx* out,
                        std::size_t ostride, std::size_t odist,
                        Workspace& ws) const;
  void backward_fallback(std::size_t howmany, const cplx* in,
                         std::size_t istride, std::size_t idist, double* out,
                         std::size_t ostride, std::size_t odist,
                         Workspace& ws) const;

  std::size_t n_;
  std::size_t nh_;
  Direction dir_;
  BatchKernel kernel_;
  bool packed_;
  std::unique_ptr<BatchPlan1d> half_;  ///< length n/2 (packed path only)
  std::unique_ptr<Fft1d> full_;        ///< length n (fallback path only)
  cvec w_;  ///< w[k] = exp(sign(dir)*2*pi*i*k/n), k = 0..n/2 (packed only)
};

/// Expands a stored half spectrum (n/2 + 1 coefficients) to the full
/// Hermitian spectrum of length n: full[k] = half[k] for k <= n/2,
/// conj(half[n-k]) above.  half and full must not overlap.
void expand_half_spectrum(std::span<const cplx> half, std::span<cplx> full);

}  // namespace fx::fft
