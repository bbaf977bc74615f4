// Per-layer measurements for the traced run (`--trace 1`).  Every number
// comes from calls into a module's public functions made here, or from the
// phase and communication spans the pipeline records into a caller-supplied
// trace::Tracer; nothing is added inside the library.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common.hpp"
#include "fftx/descriptor.hpp"
#include "fftx/pipeline.hpp"
#include "trace/phases.hpp"
#include "trace/tracer.hpp"

namespace pb {

/// One problem shape a workload runs: its layout, band count and the
/// pipeline configuration it runs under.
struct Shape {
  std::shared_ptr<const fx::fftx::Descriptor> desc;
  double ecut_ry = 0.0;
  fx::fftx::PipelineConfig cfg;
};

/// Set-up of one shape, timed in parts on rank 0 of a fresh world:
/// descriptor construction, pipeline construction and initialize_bands,
/// each repetition after fx::fft::PlanCache::global().clear().  Runs in a
/// child process (in_child), so call it before starting any thread.
struct SetupTimes {
  std::vector<double> desc_s, ctor_s, init_s, total_s;
};
SetupTimes measure_setup(const fx::pw::Cell& cell, double ecut, int nranks,
                         int ntg, const fx::fftx::PipelineConfig& cfg,
                         int first_band, int reps);

/// Sums of the pipeline's recorded spans over a traced run.
struct TraceTotals {
  std::array<double, fx::trace::kNumPhaseKinds> phase_s{};
  double comm_s = 0.0;
  double bytes = 0.0;
  double ops = 0.0;
  double task_wait_s = 0.0;
  std::int64_t bands = 0;

  /// Adds every compute and communication event `tracer` holds.
  void add(const fx::trace::Tracer& tracer);
  /// Adds the streaming scheduler's ready-queue wait, which the pipeline
  /// reports to the process observatory rather than to the tracer.
  void add_observatory_task_wait();
  /// fftx.phase.*, fftx.exchange_ms_per_band, simmpi.bytes_per_band and
  /// simmpi.collectives_per_band.
  void emit(Outcome& out) const;
};

/// fft.z_gflops, fft.xy_gflops, fft.r2c_gflops, fft.plan_build_ms over the
/// shapes' Z-stick batches and planes (single thread).
void measure_fft_layer(const std::vector<Shape>& shapes, Outcome& out);

/// pw.descriptor_ms, fftx.pipeline_ctor_ms, fftx.init_bands_ms: medians
/// of measure_setup, summed over the shapes.
void emit_setup_layers(const std::vector<SetupTimes>& per_shape, Outcome& out);

/// simmpi.alltoallv_gbps (the shapes' scatter counts), alltoallv_us and
/// ialltoallv_us (one element per peer), bcast_us (a 16-byte order).
void measure_simmpi_layer(const std::vector<Shape>& shapes, Outcome& out);

/// tasking.ns_per_task and tasking.ns_per_edge at `workers` workers.
void measure_tasking_layer(int workers, Outcome& out);

/// serve.* for a band-loop workload: ~1 s of requests of the shape's own
/// grid and layout (8 bands each, one in flight) through a serve::Frontend.
void measure_serve_on_shape(const Shape& shape, Outcome& out);

}  // namespace pb
