// The batched FFT tile kernel, compiled once per instruction-set tier.
//
// BatchPlan1d (batch1d.cpp) owns everything about a batched transform
// except the tile body: planning, the scalar oracle, lone-tail transforms
// and workspace leases stay in its baseline translation unit.  The tile
// body -- gather, the pack-granular mixed-radix recursion and scatter --
// is compiled by tile_baseline.cpp for the build's default target and, on
// x86-64 compilers that know the level, by tile_x86_64_v4.cpp with
// -march=x86-64-v4 -ffp-contract=off.  Both include tile_body.hpp, whose
// code has internal linkage, so neither TU can lend the other its
// instructions through a merged inline symbol.
//
// The kernel sees the plan only through TileView and reads and writes
// complex data as interleaved doubles, so it needs nothing from the C++
// library that could be emitted out of line with the tier's flags.
#pragma once

#include <cstddef>

namespace fx::fft::detail {

/// Transforms per tile: one 8-double AVX-512 register per lane pack.
inline constexpr std::size_t kTileLanes = 8;

/// Doubles per lane pack: kTileLanes real parts, then kTileLanes imaginary.
inline constexpr std::size_t kTilePack = 2 * kTileLanes;

/// The plan as the tile kernel sees it (borrowed from the Fft1d it wraps).
struct TileView {
  std::size_t n;
  const std::size_t* factors;  ///< mixed-radix factors, product == n
  const double* twiddle;       ///< n interleaved (re, im) pairs
  double sign;                 ///< -1 forward, +1 backward
};

/// One tile of `lanes` (2..kTileLanes) transforms with execute_many's
/// layout: lane l reads element j at in[2*(l*idist + j*istride)] (re, then
/// im) and writes element k at out[2*(l*odist + k*ostride)].  `scratch`
/// holds 3*n packs, 64-byte aligned.  All input is read before any output
/// is written, so fully in-place tiles are safe.
struct TileArgs {
  std::size_t lanes;
  const double* in;
  std::size_t istride;
  std::size_t idist;
  double* out;
  std::size_t ostride;
  std::size_t odist;
  double* scratch;
};

using TileFn = void (*)(const TileView&, const TileArgs&);

void tile_baseline(const TileView& view, const TileArgs& args);
#ifdef FX_FFT_TILE_V4
void tile_x86_64_v4(const TileView& view, const TileArgs& args);
#endif

}  // namespace fx::fft::detail
