// Two-dimensional complex FFT on a row-major nx*ny plane (x fastest).
//
// This is the engine behind the pipeline's cft_2xy equivalent: QE performs
// the XY transform of every real-space plane a rank owns.  The transform is
// computed as ny row FFTs of length nx followed by nx column FFTs of length
// ny (stride nx); both passes run through the SIMD-across-batch engine
// (rows are a contiguous batch, columns a transposed one), with the scalar
// oracle selectable per plan for A/B benching.
#pragma once

#include <cstddef>

#include "fft/batch1d.hpp"
#include "fft/r2c1d.hpp"
#include "fft/types.hpp"
#include "fft/workspace.hpp"

namespace fx::fft {

class Fft2d {
 public:
  Fft2d(std::size_t nx, std::size_t ny, Direction dir,
        BatchKernel kernel = default_batch_kernel(),
        TileIsa isa = default_tile_isa());

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] Direction direction() const { return dir_; }
  [[nodiscard]] BatchKernel kernel() const { return along_x_.kernel(); }

  /// Transforms one plane of nx*ny contiguous elements, indexed
  /// data[ix + nx*iy].  In-place (the pipeline's usage) or out-of-place.
  void execute(const cplx* in, cplx* out, Workspace& ws) const;
  void execute(const cplx* in, cplx* out) const;

 private:
  std::size_t nx_;
  std::size_t ny_;
  Direction dir_;
  BatchPlan1d along_x_;
  BatchPlan1d along_y_;
};

/// Real-input 2D transform on a row-major nx*ny plane.  Forward plans map
/// nx*ny reals to the Hermitian-reduced (nx/2+1)*ny half plane (r2c along
/// x, then a complex transform along y of the surviving columns); Backward
/// plans invert it.  Unnormalized: backward(forward(x)) == nx*ny*x.
class Fft2dR2c {
 public:
  Fft2dR2c(std::size_t nx, std::size_t ny, Direction dir,
           BatchKernel kernel = default_batch_kernel());

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  /// Stored x extent of the half plane: nx/2 + 1.
  [[nodiscard]] std::size_t nhx() const { return along_x_.half_spectrum(); }
  [[nodiscard]] Direction direction() const { return dir_; }

  /// r2c: in is nx*ny reals (in[ix + nx*iy]), out the nhx()*ny half plane
  /// (out[kx + nhx()*iy]).  Forward plans only; buffers must not overlap.
  void execute(const double* in, cplx* out, Workspace& ws) const;
  /// c2r inverse of the layout above.  Backward plans only.
  void execute(const cplx* in, double* out, Workspace& ws) const;

 private:
  std::size_t nx_;
  std::size_t ny_;
  Direction dir_;
  BatchPlanR2c1d along_x_;
  BatchPlan1d along_y_;
};

}  // namespace fx::fft
