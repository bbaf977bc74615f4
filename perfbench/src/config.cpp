#include "config.hpp"

namespace pb {

using fx::fftx::PipelineConfig;

PipelineConfig base_pipeline(int num_bands) {
  PipelineConfig c;
  c.num_bands = num_bands;
  c.mode = fx::fftx::PipelineMode::Original;
  c.nthreads = 1;
  c.apply_potential = true;
  c.grain_z = 200;
  c.grain_xy = 10;
  c.policy = fx::task::SchedulerPolicy::Fifo;
  c.guard_exchanges = false;
  c.guard_max_retries = 3;
  c.fused_exchange = false;
  c.overlap_exchange = false;
  c.overlap_chunks = 1;
  c.real_bands = false;
  c.wire_format = fx::mpi::WireFormat::Fp64;
  c.abft = fx::fftx::AbftMode::Off;
  c.abft_defer = false;
  c.stream_bands = 1;
  c.stream_nonblocking = false;
  c.deadline = fx::core::Deadline{};
  return c;
}

fx::serve::ServeConfig pinned_serve(const PipelineConfig& pipeline, int ntg) {
  fx::serve::ServeConfig s;
  s.queue_depth = 64;
  s.rate = 0.0;
  s.burst = 8.0;
  s.coalesce_bands = 32;
  s.starvation_ms = 500.0;
  s.breaker_strikes = 3;
  s.breaker_cooldown_s = 1.0;
  s.degrade_watermark = 0.75;
  s.ntg = ntg;
  s.idle_poll_ms = 2.0;
  s.pipeline = pipeline;
  s.recovery.enabled = true;
  s.recovery.checkpoint_bands = 0;
  s.recovery.retry.max_attempts = 4;
  s.recovery.retry.base_delay_ms = 0.5;
  s.recovery.retry.multiplier = 2.0;
  s.recovery.retry.max_delay_ms = 250.0;
  s.recovery.retry.jitter = 0.25;
  s.recovery.retry.deadline_s = 0.0;
  s.recovery.retry.seed = 1;
  return s;
}

json::Object describe(const PipelineConfig& c) {
  json::Object o;
  o["num_bands"] = c.num_bands;
  o["mode"] = fx::fftx::to_string(c.mode);
  o["nthreads"] = c.nthreads;
  o["apply_potential"] = c.apply_potential;
  o["grain_z"] = static_cast<std::uint64_t>(c.grain_z);
  o["grain_xy"] = static_cast<std::uint64_t>(c.grain_xy);
  o["policy"] = static_cast<int>(c.policy);
  o["guard_exchanges"] = c.guard_exchanges;
  o["guard_max_retries"] = c.guard_max_retries;
  o["fused_exchange"] = c.fused_exchange;
  o["overlap_exchange"] = c.overlap_exchange;
  o["overlap_chunks"] = c.overlap_chunks;
  o["real_bands"] = c.real_bands;
  o["wire_format"] = fx::mpi::to_string(c.wire_format);
  o["abft"] = static_cast<int>(c.abft);
  o["stream_bands"] = c.stream_bands;
  o["stream_nonblocking"] = c.stream_nonblocking;
  o["deadline"] = "none";
  return o;
}

json::Object describe(const fx::serve::ServeConfig& s) {
  json::Object o;
  o["queue_depth"] = s.queue_depth;
  o["rate"] = s.rate;
  o["burst"] = s.burst;
  o["coalesce_bands"] = s.coalesce_bands;
  o["starvation_ms"] = s.starvation_ms;
  o["breaker_strikes"] = s.breaker_strikes;
  o["breaker_cooldown_s"] = s.breaker_cooldown_s;
  o["degrade_watermark"] = s.degrade_watermark;
  o["ntg"] = s.ntg;
  o["idle_poll_ms"] = s.idle_poll_ms;
  o["pipeline"] = describe(s.pipeline);
  json::Object r;
  r["enabled"] = s.recovery.enabled;
  r["checkpoint_bands"] = s.recovery.checkpoint_bands;
  r["retry_max_attempts"] = s.recovery.retry.max_attempts;
  r["retry_base_delay_ms"] = s.recovery.retry.base_delay_ms;
  r["retry_multiplier"] = s.recovery.retry.multiplier;
  r["retry_max_delay_ms"] = s.recovery.retry.max_delay_ms;
  r["retry_jitter"] = s.recovery.retry.jitter;
  r["retry_deadline_s"] = s.recovery.retry.deadline_s;
  o["recovery"] = r;
  return o;
}

}  // namespace pb
