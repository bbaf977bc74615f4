// Shared plumbing of the repository benchmark: arguments, metric and
// outcome records, process-level measurements (CPU time, peak RSS), order
// statistics, the host fingerprint and the warm-up rule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/json.hpp"

namespace pb {

namespace json = fx::core::json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reference runs only (README): the band loops on one rank, Original
  /// mode, as the scaling baseline.
  bool serial = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Result of one workload run.  `attempted` / `failed` count the
/// workload's operations (bands or requests) in the timed window.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Effective configuration and run facts for the manifest.
  json::Object manifest;
  /// Reasons the outputs were judged incorrect (empty when correct).
  std::vector<std::string> problems;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void problem(const std::string& why);
};

/// Process CPU time (all threads), seconds.
double cpu_seconds();
/// Peak resident set size of this process, MiB.
double peak_rss_mib();
/// Current resident set size of this process, MiB (/proc/self/statm).
double rss_mib();
/// Host-wide CPU time stolen by the hypervisor so far, seconds summed over
/// CPUs (/proc/stat), or 0 where the kernel does not report it.
double steal_seconds();
/// CPUs this process may run on (the `nproc` figure).
int usable_cpus();

/// Median and linear-interpolated quantile (q in [0, 1]); 0 when empty.
double median(std::vector<double> xs);
double quantile(std::vector<double> xs, double q);

/// Fails (throws std::runtime_error naming the variable) when any FFTX_*
/// variable is set: the library reads them as construction-time defaults,
/// which would silently change a workload.
void refuse_fftx_environment();

/// Fails unless `busy` threads fit on the usable CPUs.
void require_thread_budget(const std::string& layout, int busy);

/// nproc, CPU model, ISA flags, compiler, flags and build type.
json::Object host_fingerprint();

/// Warm-up: at least 4 s, until three ~1 s windows agree within 5 %, at
/// most 12 s.
inline constexpr double kWarmupMinS = 4.0;
inline constexpr double kWarmupCapS = 12.0;
inline constexpr double kWarmupAgree = 0.05;
/// Timed window: slices with more than 5 % host steal are replaced, for at
/// most 40 s beyond --seconds (long enough to outlast most contention
/// episodes seen on a 4-vCPU KVM guest, and a run still ends within three
/// minutes).
inline constexpr double kExtraS = 40.0;
inline constexpr double kMaxSteal = 0.05;

/// Warm-up rule: feed it the throughput of consecutive ~1 s windows of
/// the workload's own untimed work; it is done once at least kWarmupMinS
/// elapsed and the last three windows agree within kWarmupAgree (settled),
/// or once kWarmupCapS passed (not settled).
class Warmup {
 public:

  /// Records one window; true when warm-up is over.
  bool done(double throughput, double elapsed_s);

  [[nodiscard]] bool settled() const { return settled_; }
  [[nodiscard]] double seconds() const { return elapsed_; }
  [[nodiscard]] json::Object summary() const;

 private:
  double elapsed_ = 0.0;
  bool settled_ = false;
  std::vector<double> windows_;
};

/// Splits a timed window into ~1 s slices and keeps the slices in which
/// the hypervisor stole at most kMaxSteal of the usable CPUs' time.  On a
/// shared host another tenant's load stalls every rank thread at once and
/// halves a band loop's throughput; such a slice says nothing about this
/// program, so its work is still checked but not timed, and the window is
/// extended (by at most kExtraS) to replace it.
class StealFilter {
 public:
  /// Starts a window that needs `seconds` of kept slices.
  explicit StealFilter(double seconds);

  /// Call after each unit of work.  Returns true when a slice closed; then
  /// kept() says whether the work done since the previous close counts.
  bool slice_closed();
  /// Closes the current slice whatever its length (end of the window).
  void close();
  [[nodiscard]] bool kept() const { return kept_; }
  /// True while the window needs more counted time.
  [[nodiscard]] bool more() const;
  [[nodiscard]] double counted_s() const { return counted_s_; }
  [[nodiscard]] json::Object summary() const;

 private:
  double seconds_;
  double t0_, slice_t0_, slice_steal0_;
  double counted_s_ = 0.0;
  bool kept_ = true;
  int cpus_;
  std::vector<double> kept_share_, dropped_share_;
};

/// Runs `fn` in a forked child and returns the numbers it produced.  The
/// repeated cold set-ups run this way, so the allocator footprint of their
/// many short-lived worlds stays out of the workload process's peak RSS.
/// Call only while the process has a single thread.  Throws when the child
/// fails.
std::vector<double> in_child(const std::function<std::vector<double>()>& fn);

/// Progress lines on stderr (stdout's last line is the result).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace pb
