// perfbench_run: one workload run of the repository benchmark.
//
//   perfbench_run --workload <paper_bandloop|stream_small|service_mixed>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--manifest <path>] [--source-id <text>] [--serial 1]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).
// The run manifest (effective configuration, seed, host fingerprint,
// warm-up, check margins and self-tests) goes to --manifest.  --serial 1
// runs a band-loop workload on one rank in Original mode (the scaling
// baseline quoted in README.md; not a benchmark workload).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload "
               "<paper_bandloop|stream_small|service_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--manifest <path>] [--source-id <text>]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  std::string manifest_path, source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
        have_seconds = args.seconds > 0.0;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        args.trace = val == "1";
        have_trace = true;
      } else if (key == "--manifest") {
        manifest_path = val;
      } else if (key == "--serial") {
        args.serial = val == "1";
      } else if (key == "--source-id") {
        source_id = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  if (args.serial && args.workload == "service_mixed") usage("--serial applies to the band loops");

  pb::Outcome out;
  try {
    pb::refuse_fftx_environment();
    if (args.workload == "paper_bandloop") {
      out = pb::run_paper_bandloop(args);
    } else if (args.workload == "stream_small") {
      out = pb::run_stream_small(args);
    } else if (args.workload == "service_mixed") {
      out = pb::run_service_mixed(args);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
  // Peak RSS is recorded, not gated: on service_mixed it follows a memory
  // growth in the library and varies too much between identical runs.
  out.manifest["peak_rss_mb"] = pb::peak_rss_mib();
  for (const std::string& p : out.problems) pb::note("CHECK FAILED: %s", p.c_str());

  pb::json::Object metrics;
  for (const auto& [name, m] : out.metrics) {
    pb::json::Object v;
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[name] = v;
  }
  pb::json::Object result;
  result["correct"] = out.correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = metrics;

  if (!manifest_path.empty()) {
    pb::json::Object m = out.manifest;
    m["workload"] = args.workload;
    m["seed"] = args.seed;
    m["seconds"] = args.seconds;
    m["trace"] = args.trace;
    m["serial"] = args.serial;
    m["host"] = pb::host_fingerprint();
    m["source"] = source_id;
    m["result"] = result;
    pb::json::Array problems;
    for (const std::string& p : out.problems) problems.emplace_back(p);
    m["problems"] = problems;
    pb::json::save_file(pb::json::Value(m), manifest_path);
  }
  std::printf("%s\n", pb::json::Value(result).dump().c_str());
  return 0;
}
