// The two band-loop workloads: one BandFftPipeline per rank, the band
// loop run() over and over, outputs checked after every loop.
#include <algorithm>
#include <memory>
#include <string>

#include "checks.hpp"
#include "config.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/reference.hpp"
#include "layers.hpp"
#include "simmpi/runtime.hpp"
#include "trace/observatory.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using fx::core::WallTimer;
using fx::fftx::PipelineMode;

struct BandLoopSpec {
  const char* name;
  double alat_bohr;
  double ecut_ry;
  int nranks;
  int ntg;
  fx::fftx::PipelineConfig cfg;
  /// Bands per loop checked against the serial oracle; 0 = every band.
  int oracle_sample;
  int setup_reps;
};

/// The generator's first band: the workload's inputs follow the seed.
int first_band_for(std::uint64_t seed) {
  std::uint64_t x = seed;
  return 1 + static_cast<int>(fx::core::splitmix64(x) % 50000);
}

/// Sorted distinct local band indices to check: all, or a seeded sample.
std::vector<int> checked_bands(int nbands, int sample, std::uint64_t seed) {
  std::vector<int> all(static_cast<std::size_t>(nbands));
  for (int n = 0; n < nbands; ++n) all[static_cast<std::size_t>(n)] = n;
  if (sample <= 0 || sample >= nbands) return all;
  fx::core::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  for (int i = 0; i < sample; ++i) {  // partial Fisher-Yates
    const auto j = static_cast<std::size_t>(i) +
                   rng.next_u64() % static_cast<std::size_t>(nbands - i);
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  all.resize(static_cast<std::size_t>(sample));
  std::sort(all.begin(), all.end());
  return all;
}

struct LoopStat {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int failed = 0;
};

BandLoopSpec serial_variant(BandLoopSpec spec) {
  spec.nranks = 1;
  spec.ntg = 1;
  spec.cfg.mode = PipelineMode::Original;
  spec.cfg.nthreads = 1;
  spec.cfg.fused_exchange = false;
  spec.cfg.stream_bands = 1;
  spec.cfg.stream_nonblocking = false;
  return spec;
}

Outcome run_bandloop(const BandLoopSpec& given, const Args& args) {
  Outcome out;
  json::Object rss_by_phase;  // peak RSS (MiB) reached by the end of each phase
  const BandLoopSpec spec = args.serial ? serial_variant(given) : given;
  const auto& cfg = spec.cfg;
  const int workers = cfg.mode == PipelineMode::Original ? 1 : cfg.nthreads;
  require_thread_budget(std::string(spec.name) + " (" + std::to_string(spec.nranks) +
                            " ranks x " + std::to_string(workers) + " workers)",
                        spec.nranks * workers);
  const fx::pw::Cell cell{spec.alat_bohr};
  const int nb = cfg.num_bands;
  const int first = first_band_for(args.seed);
  const std::vector<int> checked = checked_bands(nb, spec.oracle_sample, args.seed);

  // --- the expected outputs ---
  auto desc = std::make_shared<const fx::fftx::Descriptor>(cell, spec.ecut_ry, spec.nranks,
                                                           spec.ntg);
  const auto& dims = desc->dims();
  const double vmax = potential_max(dims);
  const double rel = rel_tol_fft(dims);
  std::vector<std::vector<cplx>> inputs(checked.size());
  std::vector<Expected> expected(checked.size());
  for (std::size_t i = 0; i < checked.size(); ++i) {
    inputs[i] = fx::fftx::reference_band_input(*desc, first + checked[i]);
    expected[i] = expect(fx::fftx::reference_band_output(*desc, first + checked[i], true),
                         inputs[i], vmax, rel);
  }
  rss_by_phase["references"] = peak_rss_mib();
  note("%s: grid %zux%zux%zu, %zu G-vectors, %zu sticks, first band %d, %zu bands checked "
       "per loop",
       spec.name, dims.nx, dims.ny, dims.nz, desc->sphere().size(), desc->total_sticks(),
       first, checked.size());

  // --- the run: one world, warm-up then the timed loops ---
  const std::size_t ng_total = desc->sphere().size();
  std::vector<std::vector<cplx>> got(checked.size(), std::vector<cplx>(ng_total));
  std::vector<int> fail_by_rank(static_cast<std::size_t>(spec.nranks), 0);
  std::vector<double> worst_by_rank(static_cast<std::size_t>(spec.nranks), 0.0);
  std::unique_ptr<fx::trace::Tracer> tracer;
  if (args.trace) {
    tracer = std::make_unique<fx::trace::Tracer>(spec.nranks);
    // The streaming scheduler reports ready-queue wait to the observatory.
    fx::trace::Observatory::global().configure(fx::trace::ObsMode::Watch, 4 * nb);
  }
  Warmup warm;
  StealFilter filter(args.seconds);
  std::vector<LoopStat> timed, dropped;
  json::Array slices;  // bands/s of each ~1 s slice, negative when dropped
  int warm_failed = 0;
  TraceTotals totals;
  double worst_ratio = 0.0;

  fx::mpi::Runtime::run(spec.nranks, fx::mpi::RunOptions{}, [&](fx::mpi::Comm& world) {
    const int r = world.rank();
    const bool lead = r == 0;
    // Rank 0 decides; everyone follows (control traffic stays on `world`,
    // the pipeline runs on its own communicator, so traced counts are the
    // pipeline's alone).
    auto decide = [&](bool v) {
      int x = v ? 1 : 0;
      world.bcast_bytes(&x, sizeof x, 0);
      return x != 0;
    };
    fx::mpi::Comm pc = world.split(0, r);
    fx::fftx::BandFftPipeline pipe(pc, desc, cfg, tracer.get());
    pipe.initialize_bands(first);
    const auto index = desc->world_g_index(r);

    auto one_loop = [&]() {
      if (lead && args.trace) fx::trace::Observatory::global().reset();
      world.barrier();
      LoopStat s;
      const double c0 = cpu_seconds();
      s.wall_s = pipe.run();
      world.barrier();
      s.cpu_s = cpu_seconds() - c0;
      world.barrier();
      for (std::size_t i = 0; i < checked.size(); ++i) {
        const auto mine = pipe.band(checked[i]);
        for (std::size_t k = 0; k < index.size(); ++k) got[i][index[k]] = mine[k];
      }
      world.barrier();
      int bad = 0;
      double worst = 0.0;
      for (std::size_t i = static_cast<std::size_t>(r); i < checked.size();
           i += static_cast<std::size_t>(spec.nranks)) {
        const double ratio = error_ratio(got[i], expected[i]);
        worst = std::max(worst, ratio);
        if (!(ratio <= 1.0)) ++bad;
      }
      fail_by_rank[static_cast<std::size_t>(r)] = bad;
      worst_by_rank[static_cast<std::size_t>(r)] = worst;
      if (lead && args.trace) {
        totals.add(*tracer);
        totals.add_observatory_task_wait();
        totals.bands += nb;
        tracer->clear();
      }
      pipe.initialize_bands(first);
      world.barrier();
      if (lead) {
        for (int q = 0; q < spec.nranks; ++q) {
          s.failed += fail_by_rank[static_cast<std::size_t>(q)];
          worst_ratio = std::max(worst_ratio, worst_by_rank[static_cast<std::size_t>(q)]);
        }
      }
      return s;
    };

    WallTimer since_start;
    for (;;) {
      WallTimer window;
      double bands = 0.0, busy = 0.0;
      do {
        const LoopStat s = one_loop();
        bands += nb;
        busy += s.wall_s;
        if (lead) warm_failed += s.failed;
      } while (decide(window.seconds() < 1.0));
      if (decide(lead && warm.done(bands / busy, since_start.seconds()))) break;
    }
    if (lead) rss_by_phase["warmup"] = peak_rss_mib();
    if (lead && args.trace) totals = TraceTotals{};

    std::vector<LoopStat> slice;
    auto close_slice = [&] {
      double bands = 0.0, busy = 0.0;
      for (const LoopStat& s : slice) {
        bands += nb;
        busy += s.wall_s;
      }
      auto& dst = filter.kept() ? timed : dropped;
      dst.insert(dst.end(), slice.begin(), slice.end());
      slices.emplace_back(filter.kept() ? bands / busy : -bands / busy);
      slice.clear();
    };
    if (lead) filter = StealFilter(args.seconds);
    do {
      const LoopStat s = one_loop();
      if (lead) {
        slice.push_back(s);
        if (filter.slice_closed()) close_slice();
      }
    } while (decide(lead && filter.more()));
    if (lead && !slice.empty()) {
      filter.close();
      close_slice();
    }
  });

  // --- set-up: cold (fresh plan cache, fresh process), repeated on the
  // warm host once the world above has ended; the median is setup_s ---
  const SetupTimes setup =
      measure_setup(cell, spec.ecut_ry, spec.nranks, spec.ntg, cfg, first, spec.setup_reps);

  note("%s: warm-up %.1f s over %d windows (%s), %zu timed loops, %zu dropped for host steal",
       spec.name, warm.seconds(), static_cast<int>(warm.summary()["windows"].as_number()),
       warm.settled() ? "settled" : "cap reached", timed.size(), dropped.size());
  if (warm_failed > 0) out.problem(std::to_string(warm_failed) + " bands failed during warm-up");
  if (timed.empty()) {  // every slice had steal: time them all rather than none
    timed.swap(dropped);
  }
  for (const LoopStat& s : dropped) {
    out.attempted += nb;
    out.failed += s.failed;
  }

  // --- counts and end-to-end metrics ---
  std::vector<double> bps, cpb, wall_ms, cpu_ms;
  double wall_sum = 0.0;
  for (const LoopStat& s : timed) {
    out.attempted += nb;
    out.failed += s.failed;
    bps.push_back(nb / s.wall_s);
    cpb.push_back(1e3 * s.cpu_s / nb);
    wall_ms.push_back(1e3 * s.wall_s);
    cpu_ms.push_back(1e3 * s.cpu_s);
    wall_sum += s.wall_s;
  }
  if (out.failed > 0) {
    out.problem(std::to_string(out.failed) + " bands differ from the serial oracle");
  }
  if (!args.trace) {
    out.put("setup_s", median(setup.total_s), "s");
    out.put("bands_per_s", median(bps), "bands/s");
    out.put("cpu_ms_per_band", median(cpb), "ms");
    out.put("requests_per_s", static_cast<double>(timed.size()) / wall_sum, "req/s");
    out.put("latency_p50_ms", quantile(wall_ms, 0.5), "ms");
    out.put("latency_p90_ms", quantile(wall_ms, 0.9), "ms");
    out.put("cpu_ms_per_request", median(cpu_ms), "ms");
  }

  // --- run-level checks on the last loop's outputs ---
  const auto naive = expect(naive_band_output(*desc, inputs[0]), inputs[0], vmax,
                            rel_tol_naive(dims));
  const double naive_ratio = error_ratio(got[0], naive);
  if (!(naive_ratio <= 1.0)) out.problem("band " + std::to_string(first + checked[0]) +
                                         " differs from the naive DFT");
  const double rel_herm = 2.0 * rel;
  const int herm_bad = hermitian_violations(inputs, got, vmax, rel_herm);
  if (herm_bad > 0) out.problem(std::to_string(herm_bad) + " band pairs break <a,Hb> = conj(<b,Ha>)");

  json::Object self_test;
  self_test["oracle_check_catches_perturbation"] =
      checker_catches_perturbation(got[0], expected[0], args.seed);
  self_test["naive_dft_check_catches_perturbation"] =
      checker_catches_perturbation(got[0], naive, args.seed + 1);
  self_test["hermitian_check_catches_perturbation"] =
      hermitian_catches_perturbation(inputs, got, vmax, rel_herm);
  for (const auto& [k, v] : self_test) {
    if (!v.as_bool()) out.problem("checker self-test failed: " + k);
  }

  json::Object checks;
  checks["oracle_worst_error_over_bound"] = worst_ratio;
  checks["naive_dft_error_over_bound"] = naive_ratio;
  checks["hermitian_pairs"] = static_cast<int>(checked.size() * (checked.size() + 1) / 2);
  checks["hermitian_violations"] = herm_bad;
  checks["rel_tol_fft"] = rel;
  checks["rel_tol_naive"] = rel_tol_naive(dims);
  checks["self_test"] = self_test;

  json::Object wl;
  wl["alat_bohr"] = spec.alat_bohr;
  wl["ecut_ry"] = spec.ecut_ry;
  wl["grid"] = json::Array{static_cast<std::uint64_t>(dims.nx),
                           static_cast<std::uint64_t>(dims.ny),
                           static_cast<std::uint64_t>(dims.nz)};
  wl["g_vectors"] = static_cast<std::uint64_t>(ng_total);
  wl["sticks"] = static_cast<std::uint64_t>(desc->total_sticks());
  wl["nranks"] = spec.nranks;
  wl["ntg"] = spec.ntg;
  wl["first_band"] = first;
  json::Array cb;
  for (int n : checked) cb.emplace_back(first + n);
  wl["oracle_checked_bands"] = cb;
  wl["pipeline"] = describe(cfg);
  wl["run_options"] = "mpi::RunOptions{} (no faults, watchdog 60 s, collective validator on)";
  out.manifest["workload_config"] = wl;
  out.manifest["warmup"] = warm.summary();
  out.manifest["checks"] = checks;
  out.manifest["timed_loops"] = static_cast<int>(timed.size());
  out.manifest["timed_bands_per_s_median"] = median(bps);
  out.manifest["steal_filter"] = filter.summary();
  rss_by_phase["timed"] = peak_rss_mib();
  out.manifest["peak_rss_mb_by_phase"] = rss_by_phase;
  out.manifest["slice_bands_per_s"] = slices;

  if (args.trace) {
    totals.emit(out);
    emit_setup_layers({setup}, out);
    const std::vector<Shape> shapes{Shape{desc, spec.ecut_ry, cfg}};
    measure_fft_layer(shapes, out);
    measure_simmpi_layer(shapes, out);
    measure_tasking_layer(workers, out);
    measure_serve_on_shape(shapes[0], out);
    fx::trace::Observatory::global().configure(fx::trace::ObsMode::Off);
  }
  return out;
}

}  // namespace

Outcome run_paper_bandloop(const Args& args) {
  BandLoopSpec s{"paper_bandloop", 20.0, 80.0, 4, 2, base_pipeline(128), 8, 7};
  return run_bandloop(s, args);
}

Outcome run_stream_small(const Args& args) {
  auto cfg = base_pipeline(64);
  cfg.mode = PipelineMode::Streaming;
  cfg.nthreads = 2;
  cfg.fused_exchange = true;
  cfg.stream_bands = 4;
  cfg.stream_nonblocking = true;
  BandLoopSpec s{"stream_small", 12.0, 24.0, 2, 1, cfg, 0, 15};
  return run_bandloop(s, args);
}

}  // namespace pb
