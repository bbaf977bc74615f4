// The benchmark's three workloads (README.md has why each exists).
#pragma once

#include "common.hpp"

namespace pb {

/// The paper's problem: 60^3 grid, 128 bands, 4 ranks, ntg 2, Original.
Outcome run_paper_bandloop(const Args& args);
/// Strong-scaling end: 20^3 grid, 2 ranks x 2 workers, Streaming depth 4.
Outcome run_stream_small(const Args& args);
/// Closed loop of 4 requests against serve::Frontend, three tenants.
Outcome run_service_mixed(const Args& args);

}  // namespace pb
