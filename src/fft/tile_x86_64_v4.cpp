// Batched FFT tile for x86-64-v4 (AVX-512), built with
// -march=x86-64-v4 -ffp-contract=off (src/fft/CMakeLists.txt).  Only
// called after batch1d.cpp has confirmed the CPU supports the level.
#include "fft/tile_body.hpp"

namespace fx::fft::detail {

void tile_x86_64_v4(const TileView& view, const TileArgs& args) {
  run_tile(view, args);
}

}  // namespace fx::fft::detail
