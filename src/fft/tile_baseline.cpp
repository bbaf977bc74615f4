// Batched FFT tile for the build's default target (always built).
#include "fft/tile_body.hpp"

namespace fx::fft::detail {

void tile_baseline(const TileView& view, const TileArgs& args) {
  run_tile(view, args);
}

}  // namespace fx::fft::detail
