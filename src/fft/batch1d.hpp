// Batched one-dimensional FFT: SIMD across the batch dimension.
//
// The pipeline's hot work is never one large transform -- it is thousands
// of small 1D FFTs (z-sticks of length nz, plane rows of length nx,
// plane columns of length ny).  Fft1d::execute_many runs them one at a
// time, so every butterfly is scalar complex arithmetic and the whole
// SIMD dimension of the core is wasted; the paper's KNL analysis shows
// exactly this pattern collapsing to IPC ~0.75 once cores fill.
//
// BatchPlan1d instead tiles the batch into groups of kSimdWidth
// transforms and transposes each tile into a structure-of-arrays scratch
// (split re/im "lane packs": for each element index j, 8 doubles of real
// parts then 8 doubles of imaginary parts, 64-byte aligned).  The
// mixed-radix passes then run once per tile with every inner loop a
// branch-free `#pragma omp simd` over the 8 lanes: all lanes share the
// same twiddle factor because they sit at the same element index of
// *different* transforms.  A tile is gathered, transformed entirely in
// L2-resident scratch (3 ping-pong buffers of n packs, 384*n bytes), and
// scattered back, so arbitrary (stride, dist) layouts -- contiguous
// sticks and transposed columns alike -- pay only the two transposes.
//
// Fallbacks keep every size correct: Bluestein lengths, length-1 tails of
// a tile, and lengths whose tile scratch would overflow L2 all route
// through the scalar Fft1d path, which also remains selectable per plan
// (BatchKernel::Scalar) as the A/B correctness oracle for benchmarks.
//
// The tile body is compiled once per instruction-set tier (TileIsa; see
// tile_kernel.hpp) and chosen once per process from cpuid, so default
// builds run full-width AVX-512 packs where the CPU has them.  Every tier
// is bit-identical to the scalar oracle (DESIGN.md, "Runtime ISA
// dispatch"), which is why plan caches need no ISA in their keys.
#pragma once

#include <cstddef>

#include "fft/plan1d.hpp"
#include "fft/tile_kernel.hpp"
#include "fft/types.hpp"
#include "fft/workspace.hpp"

namespace fx::fft {

/// Which kernel a BatchPlan1d runs: the SIMD-across-batch tiles (default)
/// or the scalar per-transform loop kept as the correctness oracle.
enum class BatchKernel { Simd, Scalar };

/// Process-wide default kernel: BatchKernel::Simd unless the environment
/// variable FFTX_FFT_SCALAR is set to a non-empty value other than "0"
/// (read once), which forces the scalar oracle everywhere -- the A/B
/// switch the pipeline benches use without recompiling.
BatchKernel default_batch_kernel();

/// Instruction-set tier a BatchPlan1d's SIMD tiles run on.  Baseline is
/// the build's default target; X86_64_V4 is AVX-512 (32 vector registers,
/// one 8-lane pack per register).
enum class TileIsa { Baseline, X86_64_V4 };

/// "baseline" or "x86-64-v4".
const char* to_string(TileIsa isa);

/// Best tier this CPU reports through cpuid, whether or not this build
/// contains its tile.
TileIsa cpu_best_tile_isa();

/// True if this build contains `isa`'s tile and this CPU can run it.
bool tile_isa_available(TileIsa isa);

/// The tier plans use unless told otherwise: the best available one,
/// resolved once per process.
TileIsa default_tile_isa();

class BatchPlan1d {
 public:
  /// Transforms per SIMD tile: 8 doubles = one AVX-512 register (KNL's
  /// native width).  The baseline tier splits each lane loop into 2 or 4
  /// narrower vector ops, which still beats scalar complex arithmetic.
  static constexpr std::size_t kSimdWidth = detail::kTileLanes;

  /// `isa` must be available (tile_isa_available); tests and benches pass
  /// a tier explicitly to compare tiers within one process.
  BatchPlan1d(std::size_t n, Direction dir,
              BatchKernel kernel = default_batch_kernel(),
              TileIsa isa = default_tile_isa());

  [[nodiscard]] std::size_t size() const { return base_.size(); }
  [[nodiscard]] Direction direction() const { return base_.direction(); }
  [[nodiscard]] BatchKernel kernel() const { return kernel_; }
  [[nodiscard]] TileIsa isa() const { return isa_; }

  /// True if execute_many will use the SIMD tile path (false for the
  /// scalar oracle, Bluestein sizes, and tile-overflows-L2 lengths).
  [[nodiscard]] bool simd_active() const { return simd_ok_; }

  /// The scalar plan this batched plan wraps (the correctness oracle).
  [[nodiscard]] const Fft1d& scalar_plan() const { return base_; }

  /// Batched transform with Fft1d::execute_many's exact contract:
  /// transform b reads in[b*idist + j*istride] and writes
  /// out[b*odist + k*ostride].  Fully in-place batches (in == out with
  /// identical strides) are supported; see Fft1d::execute_many for the
  /// aliasing rules (anything between "same layout in place" and
  /// "disjoint" is rejected).
  void execute_many(std::size_t howmany, const cplx* in, std::size_t istride,
                    std::size_t idist, cplx* out, std::size_t ostride,
                    std::size_t odist, Workspace& ws) const;
  void execute_many(std::size_t howmany, const cplx* in, std::size_t istride,
                    std::size_t idist, cplx* out, std::size_t ostride,
                    std::size_t odist) const;

 private:
  void execute_tile(std::size_t lanes, const cplx* in, std::size_t istride,
                    std::size_t idist, cplx* out, std::size_t ostride,
                    std::size_t odist, Workspace& ws) const;

  Fft1d base_;
  BatchKernel kernel_;
  TileIsa isa_;
  detail::TileFn tile_;
  bool simd_ok_;
};

}  // namespace fx::fft
