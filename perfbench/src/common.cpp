#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/timer.hpp"

extern char** environ;

namespace pb {

void Outcome::problem(const std::string& why) {
  correct = false;
  if (problems.size() < 16) problems.push_back(why);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mib() {
  std::ifstream in("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  in >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return in ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

void refuse_fftx_environment() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "FFTX_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name =
          eq != nullptr ? std::string(*e, static_cast<std::size_t>(eq - *e))
                        : std::string(*e);
      throw std::runtime_error(
          "environment variable " + name +
          " is set; the library reads FFTX_* variables as configuration "
          "defaults, so every workload pins its configuration and refuses "
          "to run under them (unset it)");
    }
  }
}

void require_thread_budget(const std::string& layout, int busy) {
  const int cpus = usable_cpus();
  if (busy > cpus) {
    throw std::runtime_error(layout + " keeps " + std::to_string(busy) +
                             " threads busy but only " +
                             std::to_string(cpus) + " CPUs are usable");
  }
}

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

json::Object host_fingerprint() {
  json::Object o;
  o["nproc"] = usable_cpus();
  o["cpu_model"] = cpuinfo_field("model name");
  // The SIMD extensions the FFT kernels can use, not the whole flag list.
  std::istringstream flags(cpuinfo_field("flags"));
  json::Array isa;
  for (std::string f; flags >> f;) {
    if (f == "sse4_2" || f == "avx" || f == "avx2" || f == "fma" ||
        f.rfind("avx512", 0) == 0) {
      isa.emplace_back(f);
    }
  }
  o["isa"] = isa;
  o["compiler"] = PERFBENCH_COMPILER;
  o["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  o["build_type"] = PERFBENCH_BUILD_TYPE;
  return o;
}

bool Warmup::done(double throughput, double elapsed_s) {
  windows_.push_back(throughput);
  elapsed_ = elapsed_s;
  if (elapsed_s >= kWarmupMinS && windows_.size() >= 3) {
    const std::size_t n = windows_.size();
    const double hi = std::max({windows_[n - 1], windows_[n - 2], windows_[n - 3]});
    const double lo = std::min({windows_[n - 1], windows_[n - 2], windows_[n - 3]});
    if (lo > 0.0 && hi / lo - 1.0 <= kWarmupAgree) {
      settled_ = true;
      return true;
    }
  }
  return elapsed_s >= kWarmupCapS;
}

json::Object Warmup::summary() const {
  json::Object o;
  o["seconds"] = elapsed_;
  o["windows"] = static_cast<int>(windows_.size());
  o["settled"] = settled_;
  json::Array w;
  for (double x : windows_) w.emplace_back(x);
  o["window_throughput"] = w;
  return o;
}

StealFilter::StealFilter(double seconds)
    : seconds_(seconds),
      t0_(fx::core::WallTimer::now()), slice_t0_(t0_), slice_steal0_(steal_seconds()),
      cpus_(usable_cpus()) {}

bool StealFilter::slice_closed() {
  if (fx::core::WallTimer::now() - slice_t0_ < 1.0) return false;
  close();
  return true;
}

void StealFilter::close() {
  const double now = fx::core::WallTimer::now();
  const double steal = steal_seconds();
  const double dt = now - slice_t0_;
  const double share = dt > 0.0 ? (steal - slice_steal0_) / (dt * cpus_) : 0.0;
  kept_ = share <= kMaxSteal;
  if (kept_) {
    counted_s_ += dt;
    kept_share_.push_back(share);
  } else {
    dropped_share_.push_back(share);
  }
  slice_t0_ = now;
  slice_steal0_ = steal;
}

bool StealFilter::more() const {
  return counted_s_ < seconds_ && fx::core::WallTimer::now() - t0_ < seconds_ + kExtraS;
}

json::Object StealFilter::summary() const {
  json::Object o;
  o["max_steal_share"] = kMaxSteal;
  o["counted_s"] = counted_s_;
  json::Array k, d;
  for (double x : kept_share_) k.emplace_back(x);
  for (double x : dropped_share_) d.emplace_back(x);
  o["kept_slice_steal_share"] = k;
  o["dropped_slice_steal_share"] = d;
  return o;
}

std::vector<double> in_child(const std::function<std::vector<double>()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::vector<double> v = fn();
      const auto* p = reinterpret_cast<const char*>(v.data());
      std::size_t left = v.size() * sizeof(double);
      while (left > 0) {
        const ssize_t n = write(fds[1], p, left);
        if (n <= 0) {
          code = 2;
          break;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_run (set-up child): %s\n", e.what());
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::vector<char> bytes;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bytes.insert(bytes.end(), buf, buf + n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child process failed");
  }
  std::vector<double> v(bytes.size() / sizeof(double));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(double));
  return v;
}

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("[perfbench] ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

}  // namespace pb
