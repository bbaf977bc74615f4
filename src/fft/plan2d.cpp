#include "fft/plan2d.hpp"

#include "core/error.hpp"

namespace fx::fft {

Fft2d::Fft2d(std::size_t nx, std::size_t ny, Direction dir, BatchKernel kernel,
             TileIsa isa)
    : nx_(nx), ny_(ny), dir_(dir),
      along_x_(nx, dir, kernel, isa),
      along_y_(ny, dir, kernel, isa) {}

void Fft2d::execute(const cplx* in, cplx* out, Workspace& ws) const {
  // Rows first (a contiguous batch), then columns (a transposed batch,
  // stride nx).  The batched engine gathers each SIMD tile before it
  // scatters, so the in == out case needs no special-casing.
  along_x_.execute_many(ny_, in, 1, nx_, out, 1, nx_, ws);
  along_y_.execute_many(nx_, out, nx_, 1, out, nx_, 1, ws);
}

void Fft2d::execute(const cplx* in, cplx* out) const {
  execute(in, out, thread_workspace());
}

Fft2dR2c::Fft2dR2c(std::size_t nx, std::size_t ny, Direction dir,
                   BatchKernel kernel)
    : nx_(nx), ny_(ny), dir_(dir),
      along_x_(nx, dir, kernel),
      along_y_(ny, dir, kernel) {}

void Fft2dR2c::execute(const double* in, cplx* out, Workspace& ws) const {
  FX_CHECK(dir_ == Direction::Forward);
  // r2c rows into the half plane, then complex column transforms of the
  // nhx surviving columns (stride nhx).
  along_x_.execute_many(ny_, in, 1, nx_, out, 1, nhx(), ws);
  along_y_.execute_many(nhx(), out, nhx(), 1, out, nhx(), 1, ws);
}

void Fft2dR2c::execute(const cplx* in, double* out, Workspace& ws) const {
  FX_CHECK(dir_ == Direction::Backward);
  // Column inverse lands in scratch (the input is const), then c2r rows.
  Workspace::Buffer half(ws, nhx() * ny_);
  along_y_.execute_many(nhx(), in, nhx(), 1, half.data(), nhx(), 1, ws);
  along_x_.execute_many(ny_, half.data(), 1, nhx(), out, 1, nx_, ws);
}

}  // namespace fx::fft
