// The service workload: one client thread keeps four requests in flight
// against serve::Frontend on three ranks, cycling through seeded rounds of
// a three-tenant mix; every response is checked against the serial oracle.
#include <algorithm>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "config.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "fft/plan_cache.hpp"
#include "fftx/recovery.hpp"
#include "fftx/reference.hpp"
#include "layers.hpp"
#include "serve/frontend.hpp"
#include "simmpi/runtime.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using fx::core::WallTimer;
using fx::serve::Frontend;
using fx::serve::Response;

constexpr int kRanks = 3;
constexpr int kInFlight = 4;
/// Cold starts per run; each takes ~15 ms and a few spike on a busy host.
constexpr int kSetupReps = 15;

struct TenantSpec {
  const char* name;
  double alat_bohr;
  double ecut_ry;
  int bands;
  bool real;
  fx::mpi::WireFormat wire;
};

constexpr TenantSpec kTenants[] = {
    {"complex_fp64", 10.0, 16.0, 8, false, fx::mpi::WireFormat::Fp64},
    {"gamma_r2c", 14.0, 24.0, 16, true, fx::mpi::WireFormat::Fp64},
    {"wire_fp32", 12.0, 20.0, 8, false, fx::mpi::WireFormat::Fp32},
};
constexpr int kNumTenants = 3;

fx::fftx::PipelineConfig service_pipeline() { return base_pipeline(8); }

/// The pipeline configuration the frontend runs tenant `t`'s requests with.
fx::fftx::PipelineConfig tenant_pipeline(const fx::serve::ServeConfig& scfg, int t) {
  auto cfg = scfg.pipeline;
  cfg.num_bands = kTenants[t].bands;
  cfg.real_bands = kTenants[t].real;
  cfg.wire_format = kTenants[t].wire;
  return cfg;
}

fx::serve::Request make_request(int t) {
  const TenantSpec& ts = kTenants[t];
  fx::serve::Request r;
  r.tenant = ts.name;
  r.alat_bohr = ts.alat_bohr;
  r.ecut_ry = ts.ecut_ry;
  r.num_bands = ts.bands;
  r.real_bands = ts.real;
  r.wire = ts.wire;
  r.deadline_s = 0.0;
  return r;
}

/// Expected carried bands, built on first use and kept: (tenant, index of
/// the carried band in the generator's numbering) -> expectation.
class Oracle {
 public:
  Oracle() {
    for (int t = 0; t < kNumTenants; ++t) {
      desc_[t] = std::make_shared<const fx::fftx::Descriptor>(
          fx::pw::Cell{kTenants[t].alat_bohr}, kTenants[t].ecut_ry, kRanks, 1);
      vmax_[t] = potential_max(desc_[t]->dims());
    }
  }

  const Expected& get(int t, int carried) {
    const auto key = std::make_pair(t, carried);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const auto& d = *desc_[t];
    const TenantSpec& ts = kTenants[t];
    const double rel = ts.wire == fx::mpi::WireFormat::Fp32 ? rel_tol_fp32_wire(d.dims())
                                                            : rel_tol_fft(d.dims());
    std::vector<cplx> in, want;
    if (ts.real) {
      in = fx::fftx::reference_packed_band_input(d, carried, 2 * carried + 2);
      want = fx::fftx::reference_packed_band_output(d, carried, 2 * carried + 2, true);
    } else {
      in = fx::fftx::reference_band_input(d, carried);
      want = fx::fftx::reference_band_output(d, carried, true);
    }
    return cache_.emplace(key, expect(std::move(want), in, vmax_[t], rel)).first->second;
  }

  [[nodiscard]] std::shared_ptr<const fx::fftx::Descriptor> desc(int t) const {
    return desc_[t];
  }

 private:
  std::shared_ptr<const fx::fftx::Descriptor> desc_[kNumTenants];
  double vmax_[kNumTenants] = {};
  std::map<std::pair<int, int>, Expected> cache_;
};

/// Checks one response; returns false (and says why) when it fails.
struct Verifier {
  Oracle oracle;
  double worst_ratio = 0.0;
  std::string last_problem;
  bool self_test_done = false;
  bool self_test_caught = false;

  bool operator()(int t, const Response& r) {
    const TenantSpec& ts = kTenants[t];
    if (r.status != fx::serve::Status::Completed || r.degrade_level != 0) {
      last_problem = std::string(ts.name) + " request ended " + fx::serve::to_string(r.status) +
                     " at degrade level " + std::to_string(r.degrade_level) + ": " + r.detail;
      return false;
    }
    if (r.wire != ts.wire) {
      last_problem = std::string(ts.name) + " request ran on the wrong wire format";
      return false;
    }
    const std::size_t carried = ts.real ? static_cast<std::size_t>(ts.bands / 2)
                                        : static_cast<std::size_t>(ts.bands);
    if (r.bands.size() != carried) {
      last_problem = std::string(ts.name) + " response carries the wrong band count";
      return false;
    }
    const int first = ts.real ? r.assigned_first_band / 2 : r.assigned_first_band;
    for (std::size_t j = 0; j < carried; ++j) {
      const Expected& e = oracle.get(t, first + static_cast<int>(j));
      const double ratio = error_ratio(r.bands[j], e);
      worst_ratio = std::max(worst_ratio, ratio);
      if (!(ratio <= 1.0)) {
        last_problem = std::string(ts.name) + " band " + std::to_string(first + j) +
                       " is off by " + std::to_string(ratio) + "x its bound";
        return false;
      }
      if (!self_test_done && ts.wire == fx::mpi::WireFormat::Fp32) {
        self_test_done = true;
        self_test_caught = checker_catches_perturbation(r.bands[j], e, 11);
      }
    }
    return true;
  }
};

/// Runs `client` against a Frontend served by a fresh 3-rank world; the
/// client must return normally or throw, and the service always stops.
void with_service(Frontend& frontend, const std::function<void()>& client) {
  std::exception_ptr err;
  std::thread th([&] {
    try {
      client();
    } catch (...) {
      err = std::current_exception();
    }
    frontend.request_stop();
  });
  try {
    fx::mpi::Runtime::run(kRanks, fx::mpi::RunOptions{},
                          [&](fx::mpi::Comm& world) { frontend.serve(world); });
  } catch (...) {
    if (!err) err = std::current_exception();
    frontend.fail_pending("world terminated");
  }
  th.join();
  if (err) std::rethrow_exception(err);
}

/// Seeded rounds: each round submits every tenant once, in a seeded order.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(seed * 0x2545f4914f6cdd1dULL + 3) {}
  int next() {
    if (round_.empty()) {
      round_ = {0, 1, 2};
      for (int i = kNumTenants - 1; i > 0; --i) {
        std::swap(round_[static_cast<std::size_t>(i)],
                  round_[rng_.next_u64() % static_cast<std::uint64_t>(i + 1)]);
      }
    }
    const int t = round_.back();
    round_.pop_back();
    return t;
  }
  void new_round() { round_.clear(); }

 private:
  fx::core::Rng rng_;
  std::vector<int> round_;
};

struct Timed {
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::int64_t bands = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms, queue_ms, exec_ms;

  void merge(const Timed& o) {
    requests += o.requests;
    failed += o.failed;
    bands += o.bands;
    seconds += o.seconds;
    cpu_s += o.cpu_s;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    exec_ms.insert(exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
  }
};

/// The client side of the closed loop: `kInFlight` requests outstanding,
/// the oldest awaited first, each response checked.
class ClosedLoop {
 public:
  ClosedLoop(Frontend& frontend, Mix& mix, Verifier& verify, Outcome& out)
      : frontend_(frontend), mix_(mix), verify_(verify), out_(out) {
    for (int i = 0; i < kInFlight; ++i) submit();
  }

  void submit() {
    const int t = mix_.next();
    q_.push_back({t, frontend_.submit(make_request(t))});
  }

  /// Awaits the oldest request, checks it, and records it into `rec`
  /// (untimed when null).
  void complete(Timed* rec) {
    InFlight f = std::move(q_.front());
    q_.pop_front();
    const Response r = f.ticket.wait();
    const bool ok = verify_(f.tenant, r);
    if (!ok) out_.problem(verify_.last_problem);
    if (rec == nullptr) return;
    ++rec->requests;
    rec->failed += ok ? 0 : 1;
    rec->bands += kTenants[f.tenant].bands;
    rec->latency_ms.push_back(1e3 * (r.queue_s + r.exec_s));
    rec->queue_ms.push_back(1e3 * r.queue_s);
    rec->exec_ms.push_back(1e3 * r.exec_s);
  }

  void drain(Timed* rec) {
    while (!q_.empty()) complete(rec);
  }

 private:
  struct InFlight {
    int tenant;
    fx::serve::Ticket ticket;
  };
  Frontend& frontend_;
  Mix& mix_;
  Verifier& verify_;
  Outcome& out_;
  std::deque<InFlight> q_;
};

}  // namespace

Outcome run_service_mixed(const Args& args) {
  Outcome out;
  require_thread_budget("service_mixed (3 ranks x 1 worker + 1 client)", kRanks * 1 + 1);
  const fx::serve::ServeConfig scfg = pinned_serve(service_pipeline(), 1);
  Verifier verify;

  // --- the closed loop: warm-up, then whole rounds for --seconds ---
  json::Object rss_by_phase;  // peak RSS (MiB) reached by the end of each phase
  Warmup warm;
  Timed tm, dropped;
  std::size_t groups = 0;
  json::Array slices;  // requests/s of each ~1 s slice, negative when dropped
  json::Array slice_rss;  // RSS (MiB) at the end of each slice
  json::Object filter_summary;
  Mix mix(args.seed);

  // Warm-up and the timed window each get a fresh Frontend and world: a
  // serving world's memory grows with every group it runs, so sharing one
  // would make the timed window's peak RSS depend on how long warm-up took.
  {
    Frontend frontend(scfg);
    with_service(frontend, [&] {
      ClosedLoop loop(frontend, mix, verify, out);
      WallTimer since_start;
      for (bool over = false; !over;) {
        WallTimer window;
        int n = 0;
        while (window.seconds() < 1.0) {
          loop.complete(nullptr);
          ++n;
          loop.submit();
        }
        over = warm.done(n / window.seconds(), since_start.seconds());
      }
      loop.drain(nullptr);
    });
  }
  rss_by_phase["warmup"] = peak_rss_mib();
  mix.new_round();
  {
    Frontend frontend(scfg);
    with_service(frontend, [&] {
      StealFilter filter(args.seconds);
      Timed slice;
      WallTimer slice_timer;
      double slice_cpu0 = cpu_seconds();
      auto close_slice = [&] {
        slice.seconds = slice_timer.seconds();
        slice.cpu_s = cpu_seconds() - slice_cpu0;
        slices.emplace_back((filter.kept() ? 1.0 : -1.0) *
                            static_cast<double>(slice.requests) / slice.seconds);
        slice_rss.emplace_back(rss_mib());
        (filter.kept() ? tm : dropped).merge(slice);
        slice = Timed{};
        slice_timer.reset();
        slice_cpu0 = cpu_seconds();
      };
      ClosedLoop loop(frontend, mix, verify, out);
      std::int64_t submitted = kInFlight;
      for (;;) {
        loop.complete(&slice);
        if (filter.slice_closed()) close_slice();
        if (!filter.more() && submitted % kNumTenants == 0) break;
        loop.submit();
        ++submitted;
      }
      loop.drain(&slice);
      filter.close();
      close_slice();
      groups = frontend.execution_log().size();
      filter_summary = filter.summary();
    });
  }
  rss_by_phase["timed"] = peak_rss_mib();
  // --- set-up: cold service start (fresh plan cache, Frontend and world)
  // to the first response of each tenant, repeated in a child process on the
  // warm host; the last number is the failed-check count.
  std::vector<double> setup = in_child([&] {
    std::vector<double> v;
    int bad = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      fx::fft::PlanCache::global().clear();
      WallTimer t;
      Frontend frontend(scfg);
      with_service(frontend, [&] {
        std::vector<fx::serve::Ticket> tickets;
        for (int k = 0; k < kNumTenants; ++k) tickets.push_back(frontend.submit(make_request(k)));
        std::vector<Response> rs;
        for (auto& tk : tickets) rs.push_back(tk.wait());
        v.push_back(t.seconds());
        for (int k = 0; k < kNumTenants; ++k) bad += verify(k, rs[static_cast<std::size_t>(k)]) ? 0 : 1;
      });
    }
    v.push_back(bad);
    return v;
  });
  if (setup.back() > 0) out.problem("cold-start responses failed their checks");
  setup.pop_back();
  // The traced run's per-tenant set-up layers.
  std::vector<SetupTimes> tenant_setups;
  if (args.trace) {
    for (int t = 0; t < kNumTenants; ++t) {
      tenant_setups.push_back(measure_setup(fx::pw::Cell{kTenants[t].alat_bohr},
                                            kTenants[t].ecut_ry, kRanks, 1,
                                            tenant_pipeline(scfg, t), 0, 5));
    }
  }

  note("service_mixed: warm-up %.1f s (%s), %lld timed requests in %.2f s, %lld dropped for "
       "host steal",
       warm.seconds(), warm.settled() ? "settled" : "cap reached",
       static_cast<long long>(tm.requests), tm.seconds, static_cast<long long>(dropped.requests));
  if (tm.requests == 0) std::swap(tm, dropped);  // every slice had steal: time them all
  out.attempted = tm.requests + dropped.requests;
  out.failed = tm.failed + dropped.failed;
  const std::int64_t all_requests = out.attempted;
  if (!args.trace) {
    out.put("setup_s", median(setup), "s");
    out.put("bands_per_s", static_cast<double>(tm.bands) / tm.seconds, "bands/s");
    out.put("cpu_ms_per_band", 1e3 * tm.cpu_s / static_cast<double>(tm.bands), "ms");
    out.put("requests_per_s", static_cast<double>(tm.requests) / tm.seconds, "req/s");
    out.put("latency_p50_ms", quantile(tm.latency_ms, 0.5), "ms");
    out.put("latency_p90_ms", quantile(tm.latency_ms, 0.9), "ms");
    out.put("cpu_ms_per_request", 1e3 * tm.cpu_s / static_cast<double>(tm.requests), "ms");
  }
  if (!verify.self_test_caught) out.problem("checker self-test failed on an fp32-wire band");

  json::Object checks;
  checks["worst_error_over_bound"] = verify.worst_ratio;
  checks["self_test_fp32_check_catches_perturbation"] = verify.self_test_caught;
  checks["rel_tol_fp32_wire"] = rel_tol_fp32_wire(verify.oracle.desc(2)->dims());
  json::Object wl;
  json::Array tenants;
  for (const TenantSpec& ts : kTenants) {
    json::Object o;
    o["name"] = ts.name;
    o["alat_bohr"] = ts.alat_bohr;
    o["ecut_ry"] = ts.ecut_ry;
    o["bands"] = ts.bands;
    o["real_bands"] = ts.real;
    o["wire"] = fx::mpi::to_string(ts.wire);
    tenants.emplace_back(o);
  }
  wl["tenants"] = tenants;
  wl["nranks"] = kRanks;
  wl["in_flight"] = kInFlight;
  wl["mix"] = "seeded rounds, one request per tenant each";
  wl["serve"] = describe(scfg);
  wl["run_options"] = "mpi::RunOptions{} (no faults, watchdog 60 s, collective validator on)";
  out.manifest["workload_config"] = wl;
  out.manifest["warmup"] = warm.summary();
  out.manifest["steal_filter"] = filter_summary;
  out.manifest["peak_rss_mb_by_phase"] = rss_by_phase;
  out.manifest["slice_requests_per_s"] = slices;
  out.manifest["slice_rss_mb"] = slice_rss;
  out.manifest["checks"] = checks;
  out.manifest["latency_p99_ms"] = quantile(tm.latency_ms, 0.99);
  out.manifest["latency_samples"] = static_cast<std::int64_t>(tm.latency_ms.size());
  out.manifest["setup_reps_s"] = [&] {
    json::Array a;
    for (double s : setup) a.emplace_back(s);
    return a;
  }();

  if (args.trace) {
    out.put("serve.queue_ms_p50", median(tm.queue_ms), "ms");
    out.put("serve.exec_ms_p50", median(tm.exec_ms), "ms");
    out.put("serve.requests_per_group",
            static_cast<double>(all_requests) / static_cast<double>(std::max<std::size_t>(groups, 1)),
            "count");
    // The pipeline layers per tenant: the same RecoveryDriver executions the
    // frontend runs, with a tracer attached.
    std::vector<Shape> shapes;
    TraceTotals totals;
    for (int t = 0; t < kNumTenants; ++t) {
      const TenantSpec& ts = kTenants[t];
      const auto cfg = tenant_pipeline(scfg, t);
      shapes.push_back(Shape{verify.oracle.desc(t), ts.ecut_ry, cfg});
      fx::trace::Tracer tracer(kRanks);
      constexpr int kReps = 40;
      fx::mpi::Runtime::run(kRanks, fx::mpi::RunOptions{}, [&](fx::mpi::Comm& world) {
        fx::mpi::Comm pc = world.split(0, world.rank());
        for (int rep = 0; rep < kReps; ++rep) {
          std::vector<std::vector<cplx>> res;
          fx::fftx::RecoveryDriver driver(pc, shapes.back().desc, cfg, scfg.recovery, &tracer);
          driver.run(res);
        }
      });
      totals.add(tracer);
      totals.bands += static_cast<std::int64_t>(kReps) * ts.bands;
    }
    totals.emit(out);
    emit_setup_layers(tenant_setups, out);
    measure_fft_layer(shapes, out);
    measure_simmpi_layer(shapes, out);
    measure_tasking_layer(1, out);
  }
  return out;
}

}  // namespace pb
