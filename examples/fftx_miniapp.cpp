// The FFTXlib miniapp: a command-line driver around the band-FFT kernel,
// mirroring the role of the original stand-alone test program ("a
// practical tool that does not require the whole execution of a DFT
// simulation", paper Sec. II.A).
//
// Usage:
//   fftx_miniapp [options]
//     -ecutwfc <ry>     plane-wave cutoff            (default 80)
//     -alat <bohr>      lattice parameter            (default 20)
//     -nbnd <n>         number of bands              (default 128)
//     -nranks <n>       MPI ranks                    (default 4)
//     -ntg <n>          FFT task groups              (default 1)
//     -mode <m>         original|step|fft|combined|stream (default original)
//     -nthreads <n>     workers per rank, task modes (default 1)
//     -backend <b>      real|model                   (default model)
//     -verify           check band 0 against the serial oracle (real only;
//                       honors FFTX_R2C and FFTX_WIRE_PRECISION -- the
//                       oracle and tolerance follow the configured mode)
//     -table            print the POP efficiency factors
//     -perf-report      print the observatory's live phase attribution
//                       (implies FFTX_OBS=watch when the env var is unset)
//     -save-trace <f>   write the run's trace to <f> (fxtrace format)
//     -trace-json <f>   write the run's trace as Chrome/Perfetto JSON
//
// Setting FFTX_TRACE_DIR=<dir> additionally drops the full artifact set
// (<dir>/fftx_miniapp.{fxtrace,json,metrics.csv,metrics.json}) without any
// flags -- the uniform observability hook every example and bench honors.
// The artifacts are written from an ArtifactScope, so they survive
// SdcError/CommError aborts (e.g. under FFTX_FAULT_PLAN fault injection).
//
// Examples:
//   fftx_miniapp -backend model -nranks 64 -ntg 8            # paper 8x8
//   fftx_miniapp -backend real -nranks 4 -ecutwfc 16 -alat 10 -nbnd 16 -verify
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/format.hpp"
#include "core/metrics.hpp"
#include "fft/batch1d.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/reference.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/program.hpp"
#include "perfmodel/simulator.hpp"
#include "simmpi/runtime.hpp"
#include "trace/analysis.hpp"
#include "trace/artifacts.hpp"
#include "trace/chrome_export.hpp"
#include "trace/observatory.hpp"
#include "trace/trace_io.hpp"

namespace {

struct Options {
  double ecutwfc = 80.0;
  double alat = 20.0;
  int nbnd = 128;
  int nranks = 4;
  int ntg = 1;
  fx::fftx::PipelineMode mode = fx::fftx::PipelineMode::Original;
  int nthreads = 1;
  bool model_backend = true;
  bool verify = false;
  bool table = false;
  bool perf_report = false;
  std::string trace_path;
  std::string trace_json_path;
};

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << '\n';
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-ecutwfc") {
      o.ecutwfc = std::atof(need(i));
    } else if (a == "-alat") {
      o.alat = std::atof(need(i));
    } else if (a == "-nbnd") {
      o.nbnd = std::atoi(need(i));
    } else if (a == "-nranks") {
      o.nranks = std::atoi(need(i));
    } else if (a == "-ntg") {
      o.ntg = std::atoi(need(i));
    } else if (a == "-nthreads") {
      o.nthreads = std::atoi(need(i));
    } else if (a == "-mode") {
      const std::string m = need(i);
      if (m == "original") o.mode = fx::fftx::PipelineMode::Original;
      else if (m == "step") o.mode = fx::fftx::PipelineMode::TaskPerStep;
      else if (m == "fft") o.mode = fx::fftx::PipelineMode::TaskPerFft;
      else if (m == "combined") o.mode = fx::fftx::PipelineMode::Combined;
      else if (m == "stream") o.mode = fx::fftx::PipelineMode::Streaming;
      else {
        std::cerr << "unknown mode " << m << '\n';
        std::exit(2);
      }
    } else if (a == "-backend") {
      const std::string b = need(i);
      o.model_backend = b != "real";
    } else if (a == "-verify") {
      o.verify = true;
    } else if (a == "-save-trace") {
      o.trace_path = need(i);
    } else if (a == "-trace-json") {
      o.trace_json_path = need(i);
    } else if (a == "-table") {
      o.table = true;
    } else if (a == "-perf-report") {
      o.perf_report = true;
    } else {
      std::cerr << "unknown option " << a << " (see header comment)\n";
      std::exit(2);
    }
  }
  return o;
}

void print_factors(const fx::trace::EfficiencySummary& s) {
  using fx::core::pct;
  std::cout << "  parallel efficiency " << pct(s.parallel_efficiency)
            << "  (LB " << pct(s.load_balance) << ", comm "
            << pct(s.comm_efficiency) << " = sync "
            << pct(s.sync_efficiency) << " x transfer "
            << pct(s.transfer_efficiency) << ")\n"
            << "  avg IPC " << fx::core::fixed(s.avg_ipc, 3) << " over "
            << s.rows << " streams\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.perf_report &&
      fx::trace::default_obs_mode() == fx::trace::ObsMode::Off) {
    fx::trace::Observatory::global().configure(fx::trace::ObsMode::Watch);
  }

  const fx::pw::Cell cell{o.alat};
  auto desc = std::make_shared<const fx::fftx::Descriptor>(cell, o.ecutwfc,
                                                           o.nranks, o.ntg);
  std::cout << "FFTXlib miniapp: ecutwfc " << o.ecutwfc << " Ry, alat "
            << o.alat << " bohr -> grid " << desc->dims().nx << "x"
            << desc->dims().ny << "x" << desc->dims().nz << ", "
            << desc->sphere().size() << " G-vectors, "
            << desc->total_sticks() << " sticks\n"
            << "layout: " << o.nranks << " ranks, ntg " << o.ntg << ", mode "
            << to_string(o.mode) << ", " << o.nthreads
            << " thread(s)/rank, backend "
            << (o.model_backend ? "model (KNL)" : "real (this host)") << "\n"
            << "FFT kernel: "
            << (fx::fft::default_batch_kernel() == fx::fft::BatchKernel::Scalar
                    ? "scalar oracle"
                    : "batched tiles")
            << ", tile ISA " << fx::fft::to_string(fx::fft::default_tile_isa())
            << " (CPU best " << fx::fft::to_string(fx::fft::cpu_best_tile_isa())
            << ")\n";

  fx::trace::Tracer tracer(o.nranks);
  // Dumped from the destructor, so the artifacts (trace, metrics, flight
  // recorder) land even when the run below throws.
  fx::trace::ArtifactScope artifacts(&tracer, "fftx_miniapp");
  double runtime = 0.0;

  if (o.model_backend) {
    fx::model::ProgramConfig pcfg;
    pcfg.mode = o.mode;
    pcfg.num_bands = o.nbnd;
    const auto bundle = fx::model::build_program(*desc, pcfg);
    fx::model::SimConfig scfg;
    scfg.mode = o.mode;
    scfg.threads_per_rank =
        o.mode == fx::fftx::PipelineMode::Original ? 1 : o.nthreads;
    const auto machine = fx::model::MachineConfig::knl();
    runtime = fx::model::simulate(bundle, machine, scfg, &tracer).makespan;
    std::cout << "FFT phase (model): " << fx::core::fixed(runtime * 1e3, 2)
              << " ms\n";
    if (o.table) {
      print_factors(fx::trace::analyze_efficiency(tracer, machine.freq_ghz));
    }
  } else {
    double err = -1.0;
    fx::mpi::Runtime::run(o.nranks, [&](fx::mpi::Comm& world) {
      fx::fftx::PipelineConfig cfg;
      cfg.num_bands = o.nbnd;
      cfg.mode = o.mode;
      cfg.nthreads = o.nthreads;
      fx::fftx::BandFftPipeline pipe(world, desc, cfg, &tracer);
      pipe.initialize_bands();
      const double t = pipe.run();
      if (world.rank() == 0) runtime = t;
      if (o.verify) {
        // Pick the matching oracle: the packed-pair reference when the
        // pipeline carries real bands, the complex reference otherwise.
        const auto want =
            cfg.real_bands
                ? fx::fftx::reference_packed_band_output(*desc, 0, o.nbnd,
                                                         true)
                : fx::fftx::reference_band_output(*desc, 0, true);
        const auto index = desc->world_g_index(world.rank());
        const auto mine = pipe.band(0);
        double local[2] = {0.0, 0.0};  // {max abs error, peak |oracle|}
        for (std::size_t k = 0; k < index.size(); ++k) {
          local[0] = std::max(local[0], std::abs(mine[k] - want[index[k]]));
          local[1] = std::max(local[1], std::abs(want[index[k]]));
        }
        double global[2] = {0.0, 0.0};
        world.allreduce(local, global, 2, fx::mpi::ReduceOp::Max);
        if (world.rank() == 0) {
          // At a narrow wire the result is only quantizer-accurate, so
          // judge the relative error against the oracle's peak.
          err = cfg.wire_format == fx::mpi::WireFormat::Fp64
                    ? global[0]
                    : global[0] / std::max(global[1], 1e-300);
        }
      }
    });
    std::cout << "FFT phase (wall): " << fx::core::fixed(runtime, 4) << " s\n";
    if (o.verify) {
      const fx::mpi::WireFormat wire = fx::mpi::default_wire_format();
      const bool relative = wire != fx::mpi::WireFormat::Fp64;
      const double tol = wire == fx::mpi::WireFormat::Fp64   ? 1e-10
                         : wire == fx::mpi::WireFormat::Fp32 ? 1e-4
                                                             : 5e-2;
      std::cout << "verification vs serial oracle (band 0, "
                << (fx::fftx::default_real_bands() ? "r2c" : "complex")
                << " @ " << fx::mpi::to_string(wire) << " wire): "
                << (relative ? "relative" : "max") << " error " << err
                << (err < tol ? "  [OK]" : "  [FAILED]") << '\n';
      if (err >= tol) return 1;
    }
    if (o.table) {
      print_factors(fx::trace::analyze_efficiency(tracer, 1.0));
    }
  }
  if (!o.trace_path.empty() || !o.trace_json_path.empty()) {
    tracer.normalize_time();
    if (!o.trace_path.empty()) {
      fx::trace::save_trace(tracer, o.trace_path);
      std::cout << "trace written to " << o.trace_path << '\n';
    }
    if (!o.trace_json_path.empty()) {
      fx::trace::save_chrome_trace(tracer, o.trace_json_path);
      std::cout << "Chrome trace written to " << o.trace_json_path << '\n';
    }
  }
  if (o.perf_report) {
    const auto& obs = fx::trace::Observatory::global();
    std::cout << "\nobservatory phase attribution ("
              << fx::trace::to_string(obs.mode()) << " mode):\n"
              << obs.attribution_report();
  }
  return 0;
}
