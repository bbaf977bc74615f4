// Pinned configurations.  Every field a workload depends on is set here
// explicitly, so neither the library's environment-derived defaults nor a
// later change of a default can move a workload; describe() writes the
// effective values into the run manifest.
#pragma once

#include "common.hpp"
#include "fftx/pipeline.hpp"
#include "serve/frontend.hpp"

namespace pb {

/// Every PipelineConfig field, set: the caller overrides what differs.
fx::fftx::PipelineConfig base_pipeline(int num_bands);

/// Every ServeConfig / RecoveryConfig field, set.  Queues are deep enough
/// and the degrade watermark high enough that a closed loop of a few
/// requests in flight is never shed or degraded; no rate limit.
fx::serve::ServeConfig pinned_serve(const fx::fftx::PipelineConfig& pipeline,
                                    int ntg);

json::Object describe(const fx::fftx::PipelineConfig& c);
json::Object describe(const fx::serve::ServeConfig& c);

}  // namespace pb
