#include "fftx/stream.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <utility>

#include "core/error.hpp"
#include "core/format.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "trace/observatory.hpp"
#include "trace/span.hpp"

namespace fx::fftx {

using core::WallTimer;
using fft::cplx;
using fft::Direction;

namespace {

int trace_tid() { return std::max(0, task::current_worker_id()); }

// Streaming health: hidden_ms is, per exchange, the window between the
// nonblocking post and the moment a waitable attempt found it worth
// entering (test success or last-chance wait entry) -- communication that
// progressed behind other bands' compute.  bands counts completed band
// iterations (bands/sec in the benches); posts counts split exchanges.
struct StreamMetrics {
  core::Histogram& hidden_ms;
  core::Counter& bands;
  core::Counter& posts;
};

StreamMetrics& stream_metrics() {
  auto& reg = core::MetricsRegistry::global();
  static StreamMetrics m{reg.histogram("fftx.stream.hidden_ms"),
                         reg.counter("fftx.stream.bands"),
                         reg.counter("fftx.stream.posts")};
  return m;
}

}  // namespace

void BandFftPipeline::run_streaming() {
  StreamExecutor ex(*this);
  ex.run();
}

StreamExecutor::StreamExecutor(BandFftPipeline& pipe) : p_(pipe) {}
StreamExecutor::~StreamExecutor() = default;

void StreamExecutor::capture_current() {
  bool first = false;
  {
    std::lock_guard lock(err_mu_);
    if (first_error_ == nullptr) {
      first_error_ = std::current_exception();
      first = true;
    }
  }
  stop_.store(true, std::memory_order_release);
  if (first) {
    // Unwind every rank's in-flight collectives (revocation reaches the
    // pack/scat splits); peers surface RevokedError and stop too.
    try {
      p_.world_.revoke("streaming executor failure");
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

std::function<void()> StreamExecutor::guard(std::function<void()> body) {
  return [this, body = std::move(body)] {
    if (stop_.load(std::memory_order_acquire)) return;
    try {
      body();
    } catch (...) {
      capture_current();
      throw;
    }
  };
}

void StreamExecutor::signal_iteration_done() {
  {
    std::lock_guard lock(window_mu_);
    ++completed_;
  }
  window_cv_.notify_all();
}

bool StreamExecutor::wait_poll(Slot& slot, bool last_chance,
                               const std::function<void()>& done) {
  try {
    if (stop_.load(std::memory_order_acquire) && !slot.posted) {
      return true;  // post was skipped after a failure; nothing in flight
    }
    if (slot.posted) {
      const double t_enter = WallTimer::now();
      if (last_chance) {
        slot.req.wait();
      } else if (!slot.req.test()) {
        return false;
      }
      stream_metrics().hidden_ms.record((t_enter - slot.t_post) * 1e3);
      slot.posted = false;
      slot.req = mpi::Request{};
    }
    if (done != nullptr) done();
    return true;
  } catch (...) {
    capture_current();
    throw;
  }
}

// --- Split-exchange stage bodies -------------------------------------------
//
// Each mirrors its blocking counterpart in pipeline.cpp stage for stage:
// the pre-exchange ABFT hooks run in the post task, the post-exchange
// hooks (energy accounting, at-rest seals, buffer flips) in the waitable's
// completing attempt.  Arithmetic and hook order are identical, which is
// what keeps every depth bit-identical to the Original oracle.

void StreamExecutor::post_pack(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  auto& wb = *slot.wb;
  const int ntg = p.desc_->ntg();
  const std::size_t ng_w = p.desc_->ng_world(p.w_);
  if (p.abft_ != nullptr) p.abft_->begin_iteration(wb.abft, iter);
  if (trace::Observatory* obs = trace::obs_active()) {
    obs->iteration_begin(p.w_, iter);
  }
  const auto nu = static_cast<std::size_t>(ntg);
  std::vector<mpi::SegRun> sruns(nu);
  std::vector<mpi::SegRun> rruns(nu);
  std::vector<mpi::SegView> sviews(nu);
  std::vector<mpi::SegView> rviews(nu);
  for (std::size_t m = 0; m < nu; ++m) {
    sruns[m] = mpi::SegRun{
        (static_cast<std::size_t>(iter) + m) * ng_w, ng_w, 1};
    rruns[m] = mpi::SegRun{p.pack_displs_[m], p.pack_counts_[m], 1};
    sviews[m] = mpi::SegView(&sruns[m], 1);
    rviews[m] = mpi::SegView(&rruns[m], 1);
  }
  slot.req = p.pack_.ialltoallv_view(p.psi_arena_.data(), sviews,
                                     wb.band_g.data(), rviews, sizeof(cplx),
                                     /*tag=*/iter, p.cfg_.wire_format);
  slot.posted = true;
  slot.t_post = WallTimer::now();
  stream_metrics().posts.add();
}

void StreamExecutor::post_scatter_fw(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  auto& wb = *slot.wb;
  const auto ru = static_cast<std::size_t>(p.desc_->group_size());
  if (p.abft_ != nullptr) {
    FX_TRACE_SCOPE(p.tracer_, p.w_, trace_tid(), trace::PhaseKind::Abft,
                   iter, trace::copy_cost(wb.pencil.size()).instructions);
    p.abft_->check_pencil(wb.abft, wb.pencil.data(), wb.pencil.size());
  }
  std::vector<mpi::SegView> sviews(ru);
  std::vector<mpi::SegView> rviews(ru);
  for (std::size_t q = 0; q < ru; ++q) {
    sviews[q] = mpi::SegView(p.scat_send_runs_[q]);
    rviews[q] = mpi::SegView(p.scat_recv_runs_[q]);
  }
  {
    FX_TRACE_SCOPE(p.tracer_, p.w_, trace_tid(), trace::PhaseKind::Scatter,
                   iter, trace::copy_cost(wb.planes.size()).instructions);
    std::fill(wb.planes.begin(), wb.planes.end(), cplx{0.0, 0.0});
  }
  slot.req = p.scat_.ialltoallv_view(wb.pencil.data(), sviews,
                                     wb.planes.data(), rviews, sizeof(cplx),
                                     /*tag=*/iter, p.cfg_.wire_format);
  slot.posted = true;
  slot.t_post = WallTimer::now();
  stream_metrics().posts.add();
}

void StreamExecutor::done_scatter_fw(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  auto& wb = *slot.wb;
  if (p.abft_ != nullptr) {
    FX_TRACE_SCOPE(p.tracer_, p.w_, trace_tid(), trace::PhaseKind::Abft,
                   iter, trace::copy_cost(wb.planes.size()).instructions);
    std::size_t elems = 0;
    for (std::size_t c : p.scat_recv_counts_) elems += c;
    p.abft_->exchange_send(wb.abft, wb.abft.z_e_post, elems, 0);
    p.abft_->seal_planes(wb.abft, wb.planes.data(), wb.planes.size());
  }
  p.flip(wb.planes.data(), wb.planes.size());
}

void StreamExecutor::post_scatter_bw(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  auto& wb = *slot.wb;
  const auto ru = static_cast<std::size_t>(p.desc_->group_size());
  slot.e_send = 0.0;
  if (p.abft_ != nullptr) {
    FX_TRACE_SCOPE(p.tracer_, p.w_, trace_tid(), trace::PhaseKind::Abft,
                   iter, trace::copy_cost(wb.planes.size()).instructions);
    p.abft_->check_planes(wb.abft, wb.planes.data(), wb.planes.size());
    slot.e_send = p.abft_->stick_energy(wb.planes.data());
  }
  std::vector<mpi::SegView> sviews(ru);
  std::vector<mpi::SegView> rviews(ru);
  for (std::size_t q = 0; q < ru; ++q) {
    sviews[q] = mpi::SegView(p.scat_recv_runs_[q]);
    rviews[q] = mpi::SegView(p.scat_send_runs_[q]);
  }
  slot.req = p.scat_.ialltoallv_view(wb.planes.data(), sviews,
                                     wb.pencil.data(), rviews, sizeof(cplx),
                                     /*tag=*/iter, p.cfg_.wire_format);
  slot.posted = true;
  slot.t_post = WallTimer::now();
  stream_metrics().posts.add();
}

void StreamExecutor::done_scatter_bw(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  auto& wb = *slot.wb;
  if (p.abft_ != nullptr) {
    FX_TRACE_SCOPE(p.tracer_, p.w_, trace_tid(), trace::PhaseKind::Abft,
                   iter, trace::copy_cost(wb.pencil.size()).instructions);
    p.abft_->exchange_send(wb.abft, slot.e_send, wb.pencil.size(), 1);
    p.abft_->seal_pencil(wb.abft, wb.pencil.data(), wb.pencil.size());
  }
  p.flip(wb.pencil.data(), wb.pencil.size());
}

void StreamExecutor::post_unpack(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  auto& wb = *slot.wb;
  const int ntg = p.desc_->ntg();
  const std::size_t ng_w = p.desc_->ng_world(p.w_);
  const double inv_vol =
      1.0 / static_cast<double>(p.desc_->dims().volume());
  if (p.abft_ != nullptr) {
    FX_TRACE_SCOPE(p.tracer_, p.w_, trace_tid(), trace::PhaseKind::Abft,
                   iter, trace::copy_cost(wb.pencil.size()).instructions);
    p.abft_->check_pencil(wb.abft, wb.pencil.data(), wb.pencil.size());
  }
  {
    const auto pidx = p.desc_->pencil_index(p.b_);
    FX_TRACE_SCOPE(p.tracer_, p.w_, trace_tid(), trace::PhaseKind::Unpack,
                   iter, trace::copy_cost(pidx.size()).instructions);
    for (std::size_t k = 0; k < pidx.size(); ++k) {
      wb.band_g[k] = wb.pencil[pidx[k]] * inv_vol;
    }
  }
  const auto nu = static_cast<std::size_t>(ntg);
  std::vector<mpi::SegRun> sruns(nu);
  std::vector<mpi::SegRun> rruns(nu);
  std::vector<mpi::SegView> sviews(nu);
  std::vector<mpi::SegView> rviews(nu);
  for (std::size_t m = 0; m < nu; ++m) {
    sruns[m] = mpi::SegRun{p.pack_displs_[m], p.pack_counts_[m], 1};
    rruns[m] = mpi::SegRun{
        (static_cast<std::size_t>(iter) + m) * ng_w, ng_w, 1};
    sviews[m] = mpi::SegView(&sruns[m], 1);
    rviews[m] = mpi::SegView(&rruns[m], 1);
  }
  slot.req = p.pack_.ialltoallv_view(wb.band_g.data(), sviews,
                                     p.psi_arena_.data(), rviews,
                                     sizeof(cplx),
                                     /*tag=*/iter, p.cfg_.wire_format);
  slot.posted = true;
  slot.t_post = WallTimer::now();
  stream_metrics().posts.add();
}

void StreamExecutor::done_unpack(Slot& slot, int /*iter*/) {
  BandFftPipeline& p = p_;
  if (p.abft_ != nullptr) p.abft_->finish_iteration(slot.wb->abft);
  stream_metrics().bands.add(static_cast<std::uint64_t>(p.desc_->ntg()));
}

// --- Task-graph construction -----------------------------------------------

void StreamExecutor::submit_iteration(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  BandFftPipeline::WorkBuffers* wb = slot.wb.get();
  const int ntg = p.desc_->ntg();
  const std::size_t ng_w = p.desc_->ng_world(p.w_);
  const task::Dep chain = task::inout(slot.token);

  // The psi clauses keep the graph honest about the only cross-iteration
  // data (the band slices); everything else is slot-private, ordered by
  // the chain token (which also carries the slot-reuse WAW edge).
  std::vector<task::Dep> psi_in;
  std::vector<task::Dep> psi_out;
  for (int m = 0; m < ntg; ++m) {
    const std::span<cplx> band{p.band_data(iter + m), ng_w};
    psi_in.push_back(task::in(std::span<const cplx>(band)));
    psi_out.push_back(task::out(band));
  }

  auto seq = [&](const char* name, std::function<void()> body) {
    p.rt_->submit(core::cat(name, '#', iter), {chain},
                  guard(std::move(body)));
  };
  auto waitable = [&](const char* name, std::function<void()> done) {
    Slot* s = &slot;
    p.rt_->submit_waitable(
        core::cat(name, '#', iter), {chain},
        [this, s, done = std::move(done)](bool last_chance) {
          return wait_poll(*s, last_chance, done);
        });
  };

  // pack: gathers the bands (reads psi) into band_g.
  {
    auto deps = psi_in;
    deps.push_back(chain);
    if (split_ && ntg > 1) {
      p.rt_->submit(core::cat("pack#", iter), std::move(deps),
                    guard([this, &slot, iter] { post_pack(slot, iter); }));
      waitable("pack_wait", nullptr);
    } else {
      // ntg == 1 pack is a local copy; the blocking fallback reuses the
      // staged/guarded exchange verbatim.
      p.rt_->submit(core::cat("pack#", iter), std::move(deps),
                    guard([this, wb, iter] { p_.do_pack(*wb, iter); }));
    }
  }

  seq("psi_prep", [this, wb, iter] { p_.do_psi_prep(*wb, iter); });

  if (split_) {
    seq("fft_z_fw", [this, wb, iter] {
      p_.do_fft_z(*wb, iter, Direction::Backward, false);
    });
    seq("scatter_fw_post",
        [this, &slot, iter] { post_scatter_fw(slot, iter); });
    waitable("scatter_fw_wait",
             [this, &slot, iter] { done_scatter_fw(slot, iter); });
  } else if (p.overlap_) {
    seq("fft_z_scatter_fw",
        [this, wb, iter] { p_.do_fft_z_scatter_fw(*wb, iter, false); });
  } else {
    seq("fft_z_fw", [this, wb, iter] {
      p_.do_fft_z(*wb, iter, Direction::Backward, false);
    });
    seq("scatter_fw", [this, wb, iter] { p_.do_scatter_forward(*wb, iter); });
  }

  seq("fft_xy_fw", [this, wb, iter] {
    p_.do_fft_xy(*wb, iter, Direction::Backward, false);
  });
  if (p.cfg_.apply_potential) {
    seq("vofr", [this, wb, iter] { p_.do_vofr(*wb, iter); });
  }
  seq("fft_xy_bw", [this, wb, iter] {
    p_.do_fft_xy(*wb, iter, Direction::Forward, false);
  });

  if (split_) {
    seq("scatter_bw_post",
        [this, &slot, iter] { post_scatter_bw(slot, iter); });
    waitable("scatter_bw_wait",
             [this, &slot, iter] { done_scatter_bw(slot, iter); });
    seq("fft_z_bw", [this, wb, iter] {
      p_.do_fft_z(*wb, iter, Direction::Forward, false);
    });
  } else if (p.overlap_) {
    seq("scatter_bw_fft_z",
        [this, wb, iter] { p_.do_scatter_bw_fft_z(*wb, iter, false); });
  } else {
    seq("scatter_bw", [this, wb, iter] { p_.do_scatter_backward(*wb, iter); });
    seq("fft_z_bw", [this, wb, iter] {
      p_.do_fft_z(*wb, iter, Direction::Forward, false);
    });
  }

  // unpack: the iteration's last step.  It must advance the completion
  // window on every exit -- normal, failed, or skipped after a failure --
  // or the orchestrator would wait forever on a failed iteration, and it
  // reports iteration_done the way do_unpack's ObsDone guard does.
  if (split_ && ntg > 1) {
    auto deps = psi_out;
    deps.push_back(chain);
    p.rt_->submit(core::cat("unpack#", iter), std::move(deps),
                  guard([this, &slot, iter] { post_unpack(slot, iter); }));
    Slot* s = &slot;
    p.rt_->submit_waitable(
        core::cat("unpack_wait#", iter), {chain},
        [this, s, iter](bool last_chance) {
          bool completed = false;
          try {
            completed = wait_poll(
                *s, last_chance,
                [this, s, iter] { done_unpack(*s, iter); });
          } catch (...) {
            if (trace::Observatory* obs = trace::obs_active()) {
              obs->iteration_done(p_.w_, iter);
            }
            signal_iteration_done();
            throw;
          }
          if (completed) {
            if (trace::Observatory* obs = trace::obs_active()) {
              obs->iteration_done(p_.w_, iter);
            }
            signal_iteration_done();
          }
          return completed;
        });
  } else {
    auto deps = psi_out;
    deps.push_back(chain);
    p.rt_->submit(
        core::cat("unpack#", iter), std::move(deps),
        [this, wb, iter] {
          struct Signal {
            StreamExecutor* ex;
            ~Signal() { ex->signal_iteration_done(); }
          } signal{this};
          if (stop_.load(std::memory_order_acquire)) return;
          try {
            p_.do_unpack(*wb, iter);  // fires iteration_done on every exit
            stream_metrics().bands.add(
                static_cast<std::uint64_t>(p_.desc_->ntg()));
          } catch (...) {
            capture_current();
            throw;
          }
        });
  }
}

void StreamExecutor::install_queue_wait_observer() {
  // Ready-but-unscheduled time, attributed to the task's iteration (the
  // trailing "#<iter>" every streaming label carries) as its own phase so
  // the observatory separates scheduler backlog from compute and comm.
  // A caller's tracer gets the same wait as a TaskWait span ending at
  // dispatch, so timelines and trace analysis show it too.
  task::TaskObserver obs;
  obs.on_queue_wait = [rank = p_.w_, tracer = p_.tracer_](
                          int worker, const std::string& label,
                          double wait_s) {
    const auto pos = label.rfind('#');
    if (pos == std::string::npos || pos + 1 >= label.size()) return;
    const int iter = std::atoi(label.c_str() + pos + 1);
    if (trace::Observatory* o = trace::obs_active()) {
      o->record_phase(rank, trace::PhaseKind::TaskWait, iter, wait_s);
    }
    if (tracer != nullptr) {
      const double t_end = core::WallTimer::now();
      tracer->record_compute({rank, std::max(0, worker),
                              trace::PhaseKind::TaskWait, iter,
                              t_end - wait_s, t_end, 0.0});
    }
  };
  p_.rt_->set_observer(std::move(obs));
}

void StreamExecutor::run() {
  BandFftPipeline& p = p_;
  const int ntg = p.desc_->ntg();
  const int iterations = p.npsi_ / ntg;

  depth_ = std::clamp(p.cfg_.stream_bands, 1, iterations);
  split_ = p.cfg_.stream_nonblocking && p.fused_ && !p.cfg_.guard_exchanges;
  if (!split_) {
    // Blocking stage tasks pin a worker per collective; cap the in-flight
    // iterations at the worker count so the blocked collective sets of
    // any two ranks intersect (see run_task_per_step's window comment).
    depth_ = std::min(depth_, p.cfg_.nthreads);
  }

  slots_.resize(static_cast<std::size_t>(depth_));
  for (Slot& s : slots_) s.wb = p.make_buffers();
  if (trace::obs_active() != nullptr || p.tracer_ != nullptr) {
    install_queue_wait_observer();
  }

  try {
    int index = 0;
    for (int iter = 0; iter < p.npsi_; iter += ntg, ++index) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (p.deadline_expired_collective(iter)) {
        p.rt_->taskwait();
        p.throw_deadline(iter);
      }
      if (index >= depth_) {
        std::unique_lock lock(window_mu_);
        window_cv_.wait(lock, [&] {
          return completed_ >= index - depth_ + 1;
        });
      }
      submit_iteration(slots_[static_cast<std::size_t>(index % depth_)],
                       iter);
    }
    p.rt_->taskwait();
  } catch (core::DeadlineExceeded&) {
    throw;  // agreed verdict; all ranks drained and throw in lockstep
  } catch (...) {
    // A worker failure surfaces from taskwait as a string-only TaskError;
    // an orchestrator-side failure (revoked deadline allreduce, submit on
    // a dying run) lands here directly.  Either way the first *original*
    // exception wins, so the RecoveryDriver's type dispatch (FaultError
    // vs repairable error) sees what the staged modes would throw.
    capture_current();
    try {
      p.rt_->taskwait();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    std::rethrow_exception(first_error_);
  }
  if (first_error_ != nullptr) std::rethrow_exception(first_error_);
}

}  // namespace fx::fftx
