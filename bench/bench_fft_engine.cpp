// google-benchmark microbenches of the FFT engine substrate, plus the
// scalar-vs-batched A/B harness that records bench/out/fft_engine_batched.csv
// (items/sec and GFLOP/s via the 5*n*log2(n) mixed-radix flop model) and the
// per-ISA-tier report bench/out/fft_engine_isa.json, which perf_regress
// merges into BENCH_SUMMARY.json.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/csv.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "fft/batch1d.hpp"
#include "fft/plan1d.hpp"
#include "fft/plan2d.hpp"
#include "fft/plan3d.hpp"
#include "fft/r2c1d.hpp"

namespace {

using fx::fft::BatchKernel;
using fx::fft::BatchPlan1d;
using fx::fft::cplx;
using fx::fft::Direction;
using fx::fft::TileIsa;

std::vector<cplx> random_signal(std::size_t n) {
  fx::core::Rng rng(n);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fx::fft::Fft1d plan(n, Direction::Forward);
  fx::fft::Workspace ws;
  const auto in = random_signal(n);
  std::vector<cplx> out(n);
  for (auto _ : state) {
    plan.execute(in.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// Powers of two, QE grid sizes (60, 120), mixed radix, Bluestein primes.
BENCHMARK(BM_Fft1d)->Arg(64)->Arg(60)->Arg(120)->Arg(128)->Arg(243)->Arg(256)
    ->Arg(720)->Arg(1024)->Arg(1009 /* prime: Bluestein */);

/// Shared body for the stick-batch benches: length-nz transforms, batch of
/// state.range(0) sticks, in place, contiguous layout -- the pipeline's
/// Z-stick workload -- through the scalar or SIMD kernel.
void run_stick_batch(benchmark::State& state, BatchKernel kernel) {
  const std::size_t nz = 60;
  const auto nsticks = static_cast<std::size_t>(state.range(0));
  const BatchPlan1d plan(nz, Direction::Backward, kernel);
  fx::fft::Workspace ws;
  auto data = random_signal(nz * nsticks);
  for (auto _ : state) {
    plan.execute_many(nsticks, data.data(), 1, nz, data.data(), 1, nz, ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nz * nsticks));
}

void BM_Fft1dBatchedSticks(benchmark::State& state) {
  run_stick_batch(state, BatchKernel::Simd);
}
BENCHMARK(BM_Fft1dBatchedSticks)->Arg(32)->Arg(320)->Arg(2550);

void BM_Fft1dScalarSticks(benchmark::State& state) {
  run_stick_batch(state, BatchKernel::Scalar);
}
BENCHMARK(BM_Fft1dScalarSticks)->Arg(32)->Arg(320)->Arg(2550);

void BM_Fft2dPlane(benchmark::State& state) {
  // One real-space plane of the paper's 60^3 grid (and a bigger one).
  const auto n = static_cast<std::size_t>(state.range(0));
  const fx::fft::Fft2d plan(n, n, Direction::Backward);
  fx::fft::Workspace ws;
  auto data = random_signal(n * n);
  for (auto _ : state) {
    plan.execute(data.data(), data.data(), ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Fft2dPlane)->Arg(60)->Arg(120);

void BM_Fft3dGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fx::fft::Fft3d plan(n, n, n, Direction::Backward);
  fx::fft::Workspace ws;
  auto data = random_signal(n * n * n);
  for (auto _ : state) {
    plan.execute(data.data(), data.data(), ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Fft3dGrid)->Arg(20)->Arg(60);

// --- Scalar-vs-batched CSV harness -------------------------------------

/// Seconds per call of f, measured over enough repetitions to fill
/// ~100 ms (after one warmup call).
template <typename F>
double seconds_per_call(F&& f) {
  f();
  int reps = 1;
  for (;;) {
    fx::core::WallTimer timer;
    for (int i = 0; i < reps; ++i) f();
    const double s = timer.seconds();
    if (s > 0.1 || reps > (1 << 24)) {
      return s / static_cast<double>(reps);
    }
    reps = s <= 0.005 ? reps * 10
                      : static_cast<int>(static_cast<double>(reps) *
                                         (0.15 / s)) + 1;
  }
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Times one (n, batch, layout) cell through the scalar oracle and the
/// SIMD engine, in place, and appends a CSV row.  items/sec counts
/// transformed elements (n per transform); GFLOP/s uses the 5*n*log2(n)
/// flop model per transform.
void csv_cell(fx::core::CsvWriter& csv, std::size_t n, std::size_t batch,
              bool transposed) {
  const BatchPlan1d simd(n, Direction::Backward, BatchKernel::Simd);
  const BatchPlan1d scalar(n, Direction::Backward, BatchKernel::Scalar);
  fx::fft::Workspace ws;
  auto data = random_signal(n * batch);
  const std::size_t istride = transposed ? batch : 1;
  const std::size_t idist = transposed ? 1 : n;

  const double t_scalar = seconds_per_call([&] {
    scalar.execute_many(batch, data.data(), istride, idist, data.data(),
                        istride, idist, ws);
  });
  const double t_simd = seconds_per_call([&] {
    simd.execute_many(batch, data.data(), istride, idist, data.data(),
                      istride, idist, ws);
  });

  const double elems = static_cast<double>(n * batch);
  const double flops = 5.0 * static_cast<double>(n) *
                       std::log2(static_cast<double>(n)) *
                       static_cast<double>(batch);
  csv.row({std::to_string(n), std::to_string(batch),
           transposed ? "transposed" : "contiguous", fmt(elems / t_scalar),
           fmt(elems / t_simd), fmt(t_scalar / t_simd),
           fmt(flops / t_scalar / 1e9), fmt(flops / t_simd / 1e9)});
}

void write_batched_csv() {
  fx::core::CsvWriter csv("bench/out/fft_engine_batched.csv");
  csv.row({"n", "batch", "layout", "scalar_items_per_s", "batched_items_per_s",
           "speedup", "scalar_gflops", "batched_gflops"});
  for (std::size_t n : {60UL, 64UL, 120UL, 128UL, 243UL, 720UL, 1009UL}) {
    for (std::size_t batch : {8UL, 64UL, 512UL}) {
      csv_cell(csv, n, batch, /*transposed=*/false);
      csv_cell(csv, n, batch, /*transposed=*/true);
    }
  }
}

// --- Per-ISA-tier report ------------------------------------------------

/// GFLOP/s of every available tile tier on the pipeline's shapes: the
/// Z-stick batch (n 60, 2550 sticks), the same batch at the small grids'
/// lengths 20 (radix 4*5) and 14 (radix 2*7), one 60^2 and one 120^2 XY
/// plane, and r2c over the n-60 batch (half the complex flops).  The dispatch
/// check is exact: the tier plans get by default must be the best tier the
/// CPU reports, whatever the host.
void write_isa_report() {
  fxbench::JsonReport report("fft_engine_isa");
  const TileIsa dispatched = fx::fft::default_tile_isa();
  const TileIsa best = fx::fft::cpu_best_tile_isa();
  report.set("isa.dispatched", static_cast<double>(dispatched));
  report.set("isa.cpu_best", static_cast<double>(best));
  report.set("isa.dispatch_is_cpu_best", dispatched == best ? 1.0 : 0.0);

  fx::core::TablePrinter t(
      fx::core::cat("FFT tile GFLOP/s per ISA tier (dispatched: ",
                    fx::fft::to_string(dispatched), ")"));
  const std::vector<std::string> keys{
      "z_sticks_n60x2550", "z_sticks_n20x2550", "z_sticks_n14x2550",
      "plane60",           "plane120",          "r2c_n60x2550"};
  std::vector<std::string> header{"tier"};
  header.insert(header.end(), keys.begin(), keys.end());
  t.header(header);
  fx::fft::Workspace ws;
  const std::size_t nz = 60;
  const std::size_t sticks = 2550;
  const double lz = std::log2(static_cast<double>(nz));
  for (const TileIsa isa : {TileIsa::Baseline, TileIsa::X86_64_V4}) {
    if (!fx::fft::tile_isa_available(isa)) continue;
    std::map<std::string, double> g;
    for (const std::size_t n : {60UL, 20UL, 14UL}) {
      const BatchPlan1d plan(n, Direction::Backward, BatchKernel::Simd, isa);
      auto data = random_signal(n * sticks);
      const double s = seconds_per_call([&] {
        plan.execute_many(sticks, data.data(), 1, n, data.data(), 1, n, ws);
      });
      const double flops = 5.0 * static_cast<double>(n) *
                           std::log2(static_cast<double>(n)) * sticks;
      g[fx::core::cat("z_sticks_n", n, "x", sticks)] = flops / s * 1e-9;
    }
    for (const std::size_t n : {60UL, 120UL}) {
      const fx::fft::Fft2d plan(n, n, Direction::Backward, BatchKernel::Simd,
                                isa);
      auto data = random_signal(n * n);
      const double s = seconds_per_call(
          [&] { plan.execute(data.data(), data.data(), ws); });
      const double pts = static_cast<double>(n * n);
      g[fx::core::cat("plane", n)] = 5.0 * pts * std::log2(pts) / s * 1e-9;
    }
    {
      const fx::fft::BatchPlanR2c1d plan(nz, Direction::Forward,
                                         BatchKernel::Simd, isa);
      std::vector<double> in(nz * sticks);
      fx::core::Rng rng(3);
      for (double& x : in) x = rng.uniform(-0.5, 0.5);
      const std::size_t half = plan.half_spectrum();
      std::vector<cplx> out(half * sticks);
      const double s = seconds_per_call([&] {
        plan.execute_many(sticks, in.data(), 1, nz, out.data(), 1, half, ws);
      });
      g["r2c_n60x2550"] = 2.5 * nz * lz * sticks / s * 1e-9;
    }
    std::vector<std::string> row{fx::fft::to_string(isa)};
    for (const auto& key : keys) {
      report.set(fx::core::cat("gflops.", key, ".", fx::fft::to_string(isa)),
                 g[key]);
      row.push_back(fmt(g[key]));
    }
    t.row(row);
  }
  t.print(std::cout);
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  // The A/B reports run first so `bench_fft_engine` from the repo root
  // always refreshes bench/out/fft_engine_batched.csv and
  // bench/out/fft_engine_isa.json (the bench/out/ tree is created relative
  // to the CWD); pass --no-csv to skip both.
  bool csv = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-csv") {
      csv = false;
      argv[i] = argv[argc - 1];
      --argc;
      break;
    }
  }
  if (csv) {
    try {
      write_batched_csv();
      std::fprintf(stderr, "wrote bench/out/fft_engine_batched.csv\n");
      write_isa_report();
      std::fprintf(stderr, "wrote bench/out/fft_engine_isa.json\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "skipping A/B reports: %s\n", e.what());
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
