#include "layers.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "config.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "fft/plan2d.hpp"
#include "fft/plan_cache.hpp"
#include "fft/r2c1d.hpp"
#include "fft/workspace.hpp"
#include "serve/frontend.hpp"
#include "simmpi/runtime.hpp"
#include "tasking/runtime.hpp"
#include "trace/observatory.hpp"

namespace pb {

using fx::core::WallTimer;
using fx::fft::cplx;

namespace {

/// Median seconds per call of `fn`, over batches sized to ~20 ms, for at
/// least `min_s` seconds.
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_s) {
  fn();  // first touch, lazy set-up
  std::size_t batch = 1;
  for (;;) {
    WallTimer t;
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (t.seconds() >= 0.02 || batch >= (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  WallTimer total;
  while (total.seconds() < min_s || per_call.size() < 5) {
    WallTimer t;
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call.push_back(t.seconds() / static_cast<double>(batch));
  }
  return median(per_call);
}

std::vector<cplx> random_cplx(std::size_t n, std::uint64_t seed) {
  fx::core::Rng rng(seed);
  std::vector<cplx> v(n);
  for (auto& c : v) c = cplx{rng.next_double() - 0.5, rng.next_double() - 0.5};
  return v;
}

/// Per-rank runner of `calls` back-to-back collective calls.
using CallRunner = std::function<void(int calls)>;

/// On a fresh world, every rank builds its runner with `prepare` (comm
/// splits, buffers), then rank 0 picks a call count worth ~min_s / 5 from a
/// short calibration and broadcasts it, so every rank makes the same number
/// of calls.  Returns rank 0's median seconds per call over 5 blocks.
double collective_seconds_per_call(
    int nranks, double min_s,
    const std::function<CallRunner(fx::mpi::Comm&)>& prepare) {
  double result = 0.0;
  fx::mpi::Runtime::run(nranks, fx::mpi::RunOptions{}, [&](fx::mpi::Comm& world) {
    const CallRunner run = prepare(world);
    run(8);  // first-use allocations
    world.barrier();
    WallTimer t;
    run(32);
    double per = t.seconds() / 32.0;
    world.bcast_bytes(&per, sizeof per, 0);
    const int calls = std::max(8, static_cast<int>(min_s / 5.0 / std::max(per, 1e-7)));
    std::vector<double> blocks;
    for (int b = 0; b < 5; ++b) {
      world.barrier();
      WallTimer bt;
      run(calls);
      blocks.push_back(bt.seconds() / calls);
    }
    if (world.rank() == 0) result = median(blocks);
  });
  return result;
}

constexpr const char* kPhaseMetric[fx::trace::kNumPhaseKinds] = {
    "fftx.phase.psi_prep_ms", "fftx.phase.pack_ms",  "fftx.phase.fft_z_ms",
    "fftx.phase.scatter_ms",  "fftx.phase.fft_xy_ms", "fftx.phase.vofr_ms",
    "fftx.phase.unpack_ms",   nullptr,                nullptr,
    "fftx.phase.task_wait_ms"};

}  // namespace

SetupTimes measure_setup(const fx::pw::Cell& cell, double ecut, int nranks,
                         int ntg, const fx::fftx::PipelineConfig& cfg,
                         int first_band, int reps) {
  // Child side: desc, ctor, init and total seconds of every repetition,
  // concatenated per part.
  const std::vector<double> flat = in_child([&] {
    std::vector<double> part[4];
    std::shared_ptr<const fx::fftx::Descriptor> desc;
    fx::mpi::Runtime::run(nranks, fx::mpi::RunOptions{}, [&](fx::mpi::Comm& world) {
      const bool lead = world.rank() == 0;
      fx::mpi::Comm pc = world.split(0, world.rank());
      for (int rep = 0; rep < reps; ++rep) {
        world.barrier();
        double t0 = 0.0, t1 = 0.0, t2 = 0.0;
        if (lead) {
          fx::fft::PlanCache::global().clear();
          t0 = WallTimer::now();
          desc = std::make_shared<const fx::fftx::Descriptor>(cell, ecut, nranks, ntg);
          t1 = WallTimer::now();
        }
        world.barrier();
        {
          fx::fftx::BandFftPipeline pipe(pc, desc, cfg);
          world.barrier();
          if (lead) t2 = WallTimer::now();
          pipe.initialize_bands(first_band);
          world.barrier();
          if (lead) {
            const double t3 = WallTimer::now();
            part[0].push_back(t1 - t0);
            part[1].push_back(t2 - t1);
            part[2].push_back(t3 - t2);
            part[3].push_back(t3 - t0);
          }
          world.barrier();  // every rank done with desc before it is replaced
        }
      }
    });
    std::vector<double> v;
    for (const auto& p : part) v.insert(v.end(), p.begin(), p.end());
    return v;
  });
  const std::size_t n = flat.size() / 4;
  if (n == 0) throw std::runtime_error("set-up produced no timings");
  auto slice = [&](std::size_t k) {
    return std::vector<double>(flat.begin() + static_cast<std::ptrdiff_t>(k * n),
                               flat.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
  };
  return SetupTimes{slice(0), slice(1), slice(2), slice(3)};
}

void TraceTotals::add(const fx::trace::Tracer& tracer) {
  for (const auto& e : tracer.compute_events()) {
    phase_s[static_cast<std::size_t>(e.phase)] += e.t_end - e.t_begin;
  }
  for (const auto& e : tracer.comm_events()) {
    comm_s += e.t_end - e.t_begin;
    bytes += static_cast<double>(e.bytes);
    ops += 1.0;
  }
}

void TraceTotals::add_observatory_task_wait() {
  for (const auto& rec : fx::trace::Observatory::global().flight()) {
    for (const auto& r : rec.ranks) task_wait_s += r.sched_s;
  }
}

void TraceTotals::emit(Outcome& out) const {
  const double per_band = 1.0 / static_cast<double>(std::max<std::int64_t>(bands, 1));
  for (int p = 0; p < fx::trace::kNumPhaseKinds; ++p) {
    if (kPhaseMetric[p] == nullptr) continue;
    const double s = static_cast<fx::trace::PhaseKind>(p) == fx::trace::PhaseKind::TaskWait
                         ? task_wait_s
                         : phase_s[static_cast<std::size_t>(p)];
    out.put(kPhaseMetric[p], 1e3 * s * per_band, "ms");
  }
  out.put("fftx.exchange_ms_per_band", 1e3 * comm_s * per_band, "ms");
  out.put("simmpi.bytes_per_band", bytes * per_band, "B");
  out.put("simmpi.collectives_per_band", ops * per_band, "count");
}

void measure_fft_layer(const std::vector<Shape>& shapes, Outcome& out) {
  double z_flops = 0, z_s = 0, xy_flops = 0, xy_s = 0, r2c_flops = 0, r2c_s = 0;
  double build_s = 0;
  auto& cache = fx::fft::PlanCache::global();
  for (const Shape& sh : shapes) {
    const auto& d = sh.desc->dims();
    const std::size_t nz = d.nz;
    const std::size_t sticks = sh.desc->nsticks_group(0);
    const double lz = std::log2(static_cast<double>(nz));
    fx::fft::Workspace ws;

    // Z-stick batch, the pipeline's "FW-FFT along Z" layout.
    {
      const auto plan = cache.batch1d(nz, fx::fft::Direction::Backward);
      const auto in = random_cplx(sticks * nz, 1);
      std::vector<cplx> o(in.size());
      const double s = seconds_per_call(
          [&] { plan->execute_many(sticks, in.data(), 1, nz, o.data(), 1, nz, ws); }, 0.25);
      z_flops += 5.0 * static_cast<double>(nz) * lz * static_cast<double>(sticks);
      z_s += s;
    }
    // One XY plane.
    {
      const auto plan = cache.plan2d(d.nx, d.ny, fx::fft::Direction::Backward);
      const auto in = random_cplx(d.plane(), 2);
      std::vector<cplx> o(in.size());
      const double s = seconds_per_call([&] { plan->execute(in.data(), o.data(), ws); }, 0.25);
      xy_flops += 5.0 * static_cast<double>(d.plane()) *
                  std::log2(static_cast<double>(d.plane()));
      xy_s += s;
    }
    // r2c on the same stick batch: half the flops of the complex transform.
    {
      const auto plan = cache.r2c1d(nz, fx::fft::Direction::Forward);
      fx::core::Rng rng(3);
      std::vector<double> in(sticks * nz);
      for (double& x : in) x = rng.next_double() - 0.5;
      const std::size_t half = nz / 2 + 1;
      std::vector<cplx> o(sticks * half);
      const double s = seconds_per_call(
          [&] { plan->execute_many(sticks, in.data(), 1, nz, o.data(), 1, half, ws); }, 0.25);
      r2c_flops += 2.5 * static_cast<double>(nz) * lz * static_cast<double>(sticks);
      r2c_s += s;
    }
    // Cold construction of the pipeline's plan set (bypassing the cache).
    {
      std::vector<double> reps;
      for (int r = 0; r < 9; ++r) {
        WallTimer t;
        fx::fft::BatchPlan1d zf(nz, fx::fft::Direction::Forward);
        fx::fft::BatchPlan1d zb(nz, fx::fft::Direction::Backward);
        fx::fft::Fft2d xf(d.nx, d.ny, fx::fft::Direction::Forward);
        fx::fft::Fft2d xb(d.nx, d.ny, fx::fft::Direction::Backward);
        reps.push_back(t.seconds());
      }
      build_s += median(reps);
    }
  }
  out.put("fft.z_gflops", z_flops / z_s * 1e-9, "GFLOP/s");
  out.put("fft.xy_gflops", xy_flops / xy_s * 1e-9, "GFLOP/s");
  out.put("fft.r2c_gflops", r2c_flops / r2c_s * 1e-9, "GFLOP/s");
  out.put("fft.plan_build_ms", 1e3 * build_s, "ms");
}

void emit_setup_layers(const std::vector<SetupTimes>& per_shape, Outcome& out) {
  double d = 0, c = 0, i = 0;
  for (const auto& st : per_shape) {
    d += median(st.desc_s);
    c += median(st.ctor_s);
    i += median(st.init_s);
  }
  out.put("pw.descriptor_ms", 1e3 * d, "ms");
  out.put("fftx.pipeline_ctor_ms", 1e3 * c, "ms");
  out.put("fftx.init_bands_ms", 1e3 * i, "ms");
}

void measure_simmpi_layer(const std::vector<Shape>& shapes, Outcome& out) {
  double bytes = 0, a2av_s = 0, lat_s = 0, ilat_s = 0, bcast_s = 0;
  for (const Shape& sh : shapes) {
    const auto& desc = *sh.desc;
    const int P = desc.nproc();
    const int T = desc.ntg();
    const int R = desc.group_size();
    // The scatter exchange's counts: group rank b sends npz(q) planes of
    // each of its sticks to group peer q.
    std::size_t call_bytes = 0;
    for (int b = 0; b < R; ++b) {
      for (int q = 0; q < R; ++q) call_bytes += desc.nsticks_group(b) * desc.npz(q);
    }
    call_bytes *= sizeof(cplx) * static_cast<std::size_t>(T);
    bytes += static_cast<double>(call_bytes);

    // Scatter-comm split as the pipeline makes it: ranks {g, g+T, ...}.
    auto scatter_comm = [T](fx::mpi::Comm& world) {
      return world.split(world.rank() % T, world.rank() / T);
    };
    a2av_s += collective_seconds_per_call(P, 0.3, [&](fx::mpi::Comm& world) -> CallRunner {
      fx::mpi::Comm scat = scatter_comm(world);
      const int b = scat.rank();
      auto sc = std::make_shared<std::vector<std::size_t>>(R);
      auto sd = std::make_shared<std::vector<std::size_t>>(R);
      auto rc = std::make_shared<std::vector<std::size_t>>(R);
      auto rd = std::make_shared<std::vector<std::size_t>>(R);
      std::size_t so = 0, ro = 0;
      for (int q = 0; q < R; ++q) {
        (*sc)[q] = desc.nsticks_group(b) * desc.npz(q);
        (*rc)[q] = desc.nsticks_group(q) * desc.npz(b);
        (*sd)[q] = so;
        (*rd)[q] = ro;
        so += (*sc)[q];
        ro += (*rc)[q];
      }
      auto send = std::make_shared<std::vector<cplx>>(so, cplx{1.0, 0.0});
      auto recv = std::make_shared<std::vector<cplx>>(ro);
      return [=](int calls) mutable {
        for (int c = 0; c < calls; ++c) {
          scat.alltoallv_bytes(send->data(), sc->data(), sd->data(), recv->data(),
                               rc->data(), rd->data(), sizeof(cplx), 1);
        }
      };
    });
    auto tiny = [&](bool nonblocking) {
      return collective_seconds_per_call(P, 0.2, [&](fx::mpi::Comm& world) -> CallRunner {
        fx::mpi::Comm scat = scatter_comm(world);
        auto send = std::make_shared<std::vector<cplx>>(R, cplx{1.0, 0.0});
        auto recv = std::make_shared<std::vector<cplx>>(R);
        auto ones = std::make_shared<std::vector<std::size_t>>(R, 1);
        auto displ = std::make_shared<std::vector<std::size_t>>(R);
        for (int q = 0; q < R; ++q) (*displ)[q] = static_cast<std::size_t>(q);
        return [=](int calls) mutable {
          for (int c = 0; c < calls; ++c) {
            if (nonblocking) {
              scat.ialltoallv_bytes(send->data(), ones->data(), displ->data(), recv->data(),
                                    ones->data(), displ->data(), sizeof(cplx), 2)
                  .wait();
            } else {
              scat.alltoallv_bytes(send->data(), ones->data(), displ->data(), recv->data(),
                                   ones->data(), displ->data(), sizeof(cplx), 2);
            }
          }
        };
      });
    };
    lat_s += tiny(false);
    ilat_s += tiny(true);
    bcast_s += collective_seconds_per_call(P, 0.2, [](fx::mpi::Comm& world) -> CallRunner {
      return [world](int calls) mutable {
        std::uint64_t order[2] = {1, 0};
        for (int c = 0; c < calls; ++c) {
          order[1] = static_cast<std::uint64_t>(c);
          world.bcast_bytes(order, sizeof order, 0, 3);
        }
      };
    });
  }
  const double n = static_cast<double>(shapes.size());
  out.put("simmpi.alltoallv_gbps", bytes / a2av_s * 1e-9, "GB/s");
  out.put("simmpi.alltoallv_us", 1e6 * lat_s / n, "us");
  out.put("simmpi.ialltoallv_us", 1e6 * ilat_s / n, "us");
  out.put("simmpi.bcast_us", 1e6 * bcast_s / n, "us");
}

void measure_tasking_layer(int workers, Outcome& out) {
  constexpr int kTasks = 20000;
  constexpr int kFan = 4;  // in() clauses per dependent task
  std::vector<double> free_ns, dep_ns;
  std::size_t edges = 0;
  std::vector<char> cells(64);
  for (int rep = 0; rep < 7; ++rep) {
    {
      fx::task::TaskRuntime rt(workers);
      WallTimer t;
      for (int i = 0; i < kTasks; ++i) rt.submit("t", [] {});
      rt.taskwait();
      free_ns.push_back(1e9 * t.seconds() / kTasks);
    }
    {
      fx::task::TaskRuntime rt(workers);
      WallTimer t;
      for (int i = 0; i < kTasks; ++i) {
        std::vector<fx::task::Dep> deps{fx::task::out(cells[i % 64])};
        for (int k = 1; k <= kFan; ++k) deps.push_back(fx::task::in(cells[(i + 64 - k) % 64]));
        rt.submit("t", std::move(deps), [] {});
      }
      rt.taskwait();
      dep_ns.push_back(1e9 * t.seconds() / kTasks);
      edges = rt.edges_created();
    }
  }
  const double per_task_edges = static_cast<double>(edges) / kTasks;
  out.put("tasking.ns_per_task", median(free_ns), "ns");
  out.put("tasking.ns_per_edge",
          (median(dep_ns) - median(free_ns)) / std::max(per_task_edges, 1.0), "ns");
}

void measure_serve_on_shape(const Shape& shape, Outcome& out) {
  const auto& desc = *shape.desc;
  fx::fftx::PipelineConfig pc = shape.cfg;
  fx::serve::Frontend frontend(pinned_serve(pc, desc.ntg()));
  std::vector<double> queue_ms, exec_ms;
  int requests = 0;
  std::thread client([&] {
    WallTimer t;
    while (t.seconds() < 1.0 || requests < 5) {
      fx::serve::Request r;
      r.tenant = "bandloop";
      r.alat_bohr = desc.cell().ax;
      r.ecut_ry = shape.ecut_ry;
      r.num_bands = 8;
      r.real_bands = false;
      r.wire = pc.wire_format;
      r.deadline_s = 0.0;
      const fx::serve::Response resp = frontend.submit(r).wait();
      if (resp.status != fx::serve::Status::Completed) {
        out.problem("serve layer request on the band-loop shape did not complete: " +
                    resp.detail);
        break;
      }
      queue_ms.push_back(1e3 * resp.queue_s);
      exec_ms.push_back(1e3 * resp.exec_s);
      ++requests;
    }
    frontend.request_stop();
  });
  fx::mpi::Runtime::run(desc.nproc(), fx::mpi::RunOptions{},
                        [&](fx::mpi::Comm& world) { frontend.serve(world); });
  client.join();
  const auto log = frontend.execution_log();
  out.put("serve.queue_ms_p50", median(queue_ms), "ms");
  out.put("serve.exec_ms_p50", median(exec_ms), "ms");
  out.put("serve.requests_per_group",
          static_cast<double>(requests) / static_cast<double>(std::max<std::size_t>(log.size(), 1)),
          "count");
}

}  // namespace pb
