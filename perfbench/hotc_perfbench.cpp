// hotc_perfbench: end-to-end benchmark of both HotC drivers.
//
//   hotc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// Workloads (inputs derive from --seed only; the program under test sees
// only the generated arrival list and config mix):
//   warm-steady      simulated driver (faas::FaasPlatform), 50 keys
//   overload-churn   simulated driver, 2000 keys (4x the 500-container cap)
//   threaded-ladder  threaded driver (runtime::RealHotC), 256 sibling keys
//
// --trace 0 prints the end-to-end metrics, measured through the drivers'
// public entry points with no instrumentation added.  --trace 1 prints the
// per-layer metrics from a separate traced run that assembles the same
// stack from its public classes and times the calls into each layer from
// outside (spans are kept in memory and written to --spans-dir at the
// end).  The traced run re-checks that its model outputs equal the
// untraced run's bit for bit.
//
// Output: a human-readable report with sample counts, a provenance line,
// then as the last line one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// Exit status: 0 on success, 1 when a correctness check fails, 2 on bad
// arguments, 3 when the run is invalid (unoptimised/sanitizer/audit
// build, or a threaded run whose backlog grew).
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "core/rng.hpp"
#include "engine/engine.hpp"
#include "faas/backend.hpp"
#include "faas/gateway.hpp"
#include "faas/platform.hpp"
#include "hotc/controller.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "predict/hybrid.hpp"
#include "runtime/real_hotc.hpp"
#include "sim/simulator.hpp"
#include "spec/key_interner.hpp"
#include "spec/runtime_key.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"

using namespace hotc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics and reporting

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::cout << "# CHECK FAILED: " << why << "\n";
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  [[nodiscard]] bool correct() const { return correct_; }

  void print(std::uint64_t attempted, std::uint64_t failed) const {
    std::cout << "# metric                         value  unit        samples\n";
    for (const auto& m : metrics_) {
      char line[160];
      std::snprintf(line, sizeof(line), "#   %-26s %14.6g  %-10s %8zu\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
      std::cout << line;
    }
    std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::cout << (i ? ", " : "") << json_string(m.name)
                << ": {\"value\": " << json_number(m.value)
                << ", \"unit\": " << json_string(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Workloads

enum class Driver { kSim, kThreaded };

struct WorkloadDef {
  const char* name;
  Driver driver;
  std::size_t keys;      // distinct runtime keys in the mix
  double rate;           // Poisson arrivals per second
  double duration_s;     // virtual trace length (sim); 0 = --seconds
  /// Independent traces per run, each from its own seed derived from
  /// --seed.  Model outputs are pooled over them: one trace's tail holds
  /// too few cold starts for its quantiles to repeat across seeds.
  std::size_t sub_traces;
};

constexpr double kZipf = 0.9;

const WorkloadDef kWorkloads[] = {
    {"warm-steady", Driver::kSim, 50, 200.0, 1000.0, 8},
    {"overload-churn", Driver::kSim, 2000, 200.0, 300.0, 4},
    {"threaded-ladder", Driver::kThreaded, 256, 500.0, 0.0, 1},
};

/// Seed of sub-trace j (splitmix64 of the run seed and j).
std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (j + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The generated inputs: what the program under test receives.
struct Inputs {
  workload::ConfigMix mix;
  workload::ArrivalList arrivals;
};

Inputs make_inputs(const WorkloadDef& w, std::uint64_t seed,
                   double duration_s) {
  Inputs in;
  in.mix = w.driver == Driver::kSim
               ? workload::ConfigMix::qr_web_service(w.keys)
               : workload::ConfigMix::sibling_functions(w.keys, 5);
  Rng rng(seed);
  in.arrivals = workload::poisson(w.rate, seconds_f(duration_s), rng, w.keys,
                                  kZipf);
  return in;
}

/// The shared sim deployment: HotC with the full miss ladder
/// (exact hit -> sibling donor -> checkpoint restore -> cold).
ControllerOptions sim_deployment() {
  ControllerOptions o;
  o.enable_sharing = true;
  o.tiering.enabled = true;
  return o;
}

/// The threaded deployment: 2 workers + generator + collector = 4 threads.
runtime::RealOptions threaded_deployment() {
  runtime::RealOptions o;
  o.worker_threads = 2;
  o.max_warm = 64;
  o.enable_sharing = true;
  o.tiering.enabled = true;
  return o;
}

// ---------------------------------------------------------------------------
// Simulated driver: model outputs

/// Everything a sim replay decides, compared bit for bit between the
/// untraced and traced runs of one trace.
struct ModelOutputs {
  std::vector<faas::CompletedRequest> completed;
  std::uint64_t failed = 0;
  ControllerStats stats;
  std::uint64_t engine_launches = 0;
  std::uint64_t engine_execs = 0;

  /// FNV-1a over every field operator== compares, for checking repeated
  /// replays without keeping their outputs.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
      }
    };
    const auto mix_double = [&mix](double d) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
    };
    for (const auto& c : completed) {
      mix(c.id);
      mix(c.config_index);
      for (const Duration t : {c.submitted, c.t1, c.t2, c.t3, c.t4, c.t5,
                               c.t6, c.provision}) {
        mix(static_cast<std::uint64_t>(t.count()));
      }
      mix(c.cold);
    }
    const auto& s = stats;
    for (const std::uint64_t v :
         {failed, s.requests, s.cold_starts, s.reuses, s.donor_lookups,
          s.donor_hits, s.respec_rejected, s.restores, s.prewarm_launches,
          s.retired, s.evicted, engine_launches, engine_execs}) {
      mix(v);
    }
    mix_double(s.idle_container_seconds);
    mix_double(s.cold_start_seconds);
    return h;
  }

  bool operator==(const ModelOutputs& o) const {
    if (completed.size() != o.completed.size()) return false;
    for (std::size_t i = 0; i < completed.size(); ++i) {
      const auto& a = completed[i];
      const auto& b = o.completed[i];
      if (a.id != b.id || a.config_index != b.config_index ||
          a.submitted != b.submitted || a.t1 != b.t1 || a.t2 != b.t2 ||
          a.t3 != b.t3 || a.t4 != b.t4 || a.t5 != b.t5 || a.t6 != b.t6 ||
          a.cold != b.cold || a.provision != b.provision) {
        return false;
      }
    }
    return digest() == o.digest();
  }
};

/// Virtual horizon of a replay: what FaasPlatform runs the adaptive loop to.
Duration horizon_of(const workload::ArrivalList& arrivals) {
  return arrivals.back().at + faas::PlatformOptions{}.trailing_slack;
}

/// Request-resolution and outcome-ledger checks shared by every replay.
void check_model(const ModelOutputs& m, std::size_t sent, Report& report,
                 const std::string& label) {
  report.check(m.completed.size() + m.failed == sent,
               label + ": completed + failed != sent");
  std::vector<bool> seen(sent + 1, false);
  bool ids_ok = true;
  for (const auto& c : m.completed) {
    if (c.id == 0 || c.id > sent || seen[c.id]) {
      ids_ok = false;
      break;
    }
    seen[c.id] = true;
  }
  report.check(ids_ok, label + ": a request completed twice or out of range");
  report.check(m.stats.requests == sent,
               label + ": controller saw a different request count");
  report.check(m.stats.reuses + m.stats.donor_hits + m.stats.cold_starts ==
                   m.stats.requests,
               label + ": reuses + donor hits + cold starts != requests");
  report.check(m.stats.restores <= m.stats.cold_starts,
               label + ": more restores than cold-path provisions");
}

/// Model outputs pooled over a run's traces.
struct ModelTotals {
  std::vector<double> latency_ms;  // virtual, gateway submit -> reply
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t full_colds = 0;  // launches paid: no reuse, donor or restore
  double idle_container_seconds = 0.0;
  double horizon_s = 0.0;

  void add(const ModelOutputs& m, std::size_t trace_sent, Duration horizon) {
    for (const auto& c : m.completed) {
      latency_ms.push_back(to_milliseconds(c.total()));
    }
    sent += trace_sent;
    completed += m.completed.size();
    failed += m.failed;
    full_colds += m.stats.cold_starts - m.stats.restores;
    idle_container_seconds += m.stats.idle_container_seconds;
    horizon_s += to_seconds(horizon);
  }
};

struct SimReplay {
  double setup_s = 0.0;
  double replay_s = 0.0;
  std::size_t sent = 0;
  Duration horizon = kZeroDuration;
  ModelOutputs out;
  std::uint64_t spans_dropped = 0;

  [[nodiscard]] double rps() const {
    return static_cast<double>(out.completed.size()) / replay_s;
  }
};

/// One untraced replay through FaasPlatform::run, the public entry point.
/// Set-up is trace generation plus stack construction.
SimReplay replay_platform(const WorkloadDef& w, std::uint64_t seed,
                          double duration_s, bool obs_on) {
  SimReplay r;
  const auto t0 = Clock::now();
  const Inputs in = make_inputs(w, seed, duration_s);
  obs::Registry registry;
  obs::Tracer tracer(4096, &registry);
  faas::PlatformOptions po;
  po.policy = faas::PolicyKind::kHotC;
  po.hotc = sim_deployment();
  if (obs_on) {
    po.registry = &registry;
    po.tracer = &tracer;
  }
  faas::FaasPlatform platform(po);
  const auto t1 = Clock::now();
  const auto latencies = platform.run(in.arrivals, in.mix);
  const auto t2 = Clock::now();
  (void)latencies;
  r.setup_s = seconds_between(t0, t1);
  r.replay_s = seconds_between(t1, t2);
  r.sent = in.arrivals.size();
  r.horizon = horizon_of(in.arrivals);
  r.out.completed = platform.completed();
  r.out.failed = platform.failed_requests();
  r.out.stats = platform.hotc_controller()->stats();
  r.out.engine_launches = platform.engine().launches();
  r.out.engine_execs = platform.engine().execs();
  r.spans_dropped = tracer.recorder().dropped();
  return r;
}

// ---------------------------------------------------------------------------
// Simulated driver: traced run

enum SpanKind : std::uint8_t { kStep, kDispatch, kTick, kProbe };
const char* const kSpanNames[] = {"sim.step", "faas.dispatch", "hotc.tick",
                                  "engine.live_count"};
constexpr std::uint32_t kNoParent = ~0u;

struct Span {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t request;  // gateway request id; 0 = not request-scoped
  std::uint32_t parent;   // index of the enclosing span, or kNoParent
  SpanKind kind;
};

/// In-memory span log.  Simulator steps are the roots; calls into the
/// layers below (dispatch, tick, probes) made inside a step are its
/// children, so a step's self time is its duration minus theirs.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void open_step(Clock::time_point t) {
    open_ = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({ns(t), 0, 0, kNoParent, kStep});
    child_ns_ = 0;
  }
  void drop_step() {
    spans_.pop_back();
    open_ = kNoParent;
  }
  /// Returns the step's self time (ns).
  std::int64_t close_step(Clock::time_point t) {
    Span& s = spans_[open_];
    s.end_ns = ns(t);
    open_ = kNoParent;
    return s.end_ns - s.start_ns - child_ns_;
  }
  void child(SpanKind kind, Clock::time_point a, Clock::time_point b,
             std::uint64_t request) {
    spans_.push_back({ns(a), ns(b), request, open_, kind});
    child_ns_ += ns_between(a, b);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  bool write_tsv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "index\tname\tstart_ns\tend_ns\tparent\trequest\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << kSpanNames[s.kind] << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t';
      if (s.parent == kNoParent) {
        out << '-';
      } else {
        out << s.parent;
      }
      out << '\t' << s.request << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return ns_between(epoch_, t);
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint32_t open_ = kNoParent;
  std::int64_t child_ns_ = 0;
};

/// Per-layer samples accumulated over a run's traced replays.
struct SimLayers {
  std::size_t requests = 0;
  std::size_t events = 0;
  std::vector<double> step_ns;
  std::vector<double> step_self_ns;
  std::vector<double> dispatch_ns;
  std::vector<double> tick_us;
  std::vector<double> live_count_ns;
  std::vector<double> initiation_ms;
  std::vector<double> forwarding_ms;
  std::size_t live_peak = 0;
  double memory_peak_mib = 0.0;
  double snapshot_bytes_peak = 0.0;
  ControllerStats stats;  // summed
  std::uint64_t engine_launches = 0, engine_execs = 0;
  pool::PoolStats pool;   // summed
  std::uint64_t store_demotes = 0, store_restores = 0, store_evictions = 0,
                store_rejected = 0;
  std::int64_t find_donor_total_ns = 0;
  std::size_t find_donor_probes = 0;
  std::int64_t predict_total_ns = 0;
  std::size_t predict_steps = 0;
  double abs_error_sum = 0.0;
  std::size_t abs_error_samples = 0;
  std::vector<double> traced_replay_s;

  void add_stats(const ControllerStats& s) {
    stats.requests += s.requests;
    stats.cold_starts += s.cold_starts;
    stats.reuses += s.reuses;
    stats.donor_lookups += s.donor_lookups;
    stats.donor_hits += s.donor_hits;
    stats.respec_rejected += s.respec_rejected;
    stats.restores += s.restores;
    stats.prewarm_launches += s.prewarm_launches;
    stats.retired += s.retired;
    stats.evicted += s.evicted;
  }
};

/// Timing decorator around the HotC backend: the gateway's only way into
/// the controller, so its span covers the synchronous request path
/// (parse, key, pool, donor, store, engine calls).
class TimingBackend final : public faas::Backend {
 public:
  TimingBackend(faas::HotCBackend& inner, SpanLog& log,
                std::vector<double>& dispatch_ns)
      : inner_(inner), log_(log), dispatch_ns_(dispatch_ns) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void dispatch(const spec::RunSpec& spec, const engine::AppModel& app,
                Callback cb) override {
    dispatch_traced(0, spec, app, std::move(cb));
  }
  void dispatch_traced(std::uint64_t trace_id, const spec::RunSpec& spec,
                       const engine::AppModel& app, Callback cb) override {
    const auto a = Clock::now();
    inner_.dispatch_traced(trace_id, spec, app, std::move(cb));
    const auto b = Clock::now();
    log_.child(kDispatch, a, b, trace_id);
    dispatch_ns_.push_back(static_cast<double>(ns_between(a, b)));
  }
  [[nodiscard]] std::uint64_t cold_starts() const override {
    return inner_.cold_starts();
  }

 private:
  faas::HotCBackend& inner_;
  SpanLog& log_;
  std::vector<double>& dispatch_ns_;
};

/// Assembles Simulator + ContainerEngine + HotCBackend (behind the timing
/// decorator) + Gateway exactly as FaasPlatform does, and drives
/// Simulator::step() itself so every event is timed.  Returns the model
/// outputs; per-layer samples accumulate into L.
ModelOutputs run_sim_traced(const Inputs& in, SpanLog& log, SimLayers& L) {
  ModelOutputs out;
  sim::Simulator sim;
  obs::Registry registry;
  obs::Tracer tracer(4096, &registry);
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  engine.attach_metrics(registry);
  ControllerOptions copts = sim_deployment();
  copts.registry = &registry;
  copts.tracer = &tracer;
  faas::HotCBackend backend(engine, copts);
  TimingBackend timed(backend, log, L.dispatch_ns);
  faas::GatewayOptions gopts;
  gopts.tracer = &tracer;
  faas::Gateway gateway(sim, timed, gopts);
  HotCController& controller = backend.controller();

  // Same sequence of scheduling calls as FaasPlatform::run, so every model
  // event keeps its place in the queue's (time, insertion) order.
  obs::LogHistogram* duration_hist = &registry.histogram(
      "hotc_request_duration_ms",
      "End-to-end request latency (ms), gateway submit to reply");
  std::set<std::string> seen;
  for (std::size_t i = 0; i < in.mix.size(); ++i) {
    const auto& ref = in.mix.at(i).spec.image;
    if (seen.insert(ref.full()).second) engine.preload_image(ref);
  }
  const TimePoint horizon = horizon_of(in.arrivals);
  sim.every(
      copts.adaptive_interval, [&]() { return sim.now() <= horizon; },
      [&]() {
        const auto a = Clock::now();
        controller.adaptive_tick();
        const auto b = Clock::now();
        log.child(kTick, a, b, 0);
        L.tick_us.push_back(static_cast<double>(ns_between(a, b)) / 1e3);
      });
  std::uint64_t next_id = 1;
  for (const auto& arrival : in.arrivals) {
    const std::uint64_t id = next_id++;
    sim.at(arrival.at, [&, id, arrival]() {
      const auto& entry = in.mix.at(arrival.config_index);
      gateway.submit(id, arrival.config_index, entry.spec, entry.app,
                     [&](Result<faas::CompletedRequest> done) {
                       if (!done.ok()) {
                         ++out.failed;
                         return;
                       }
                       out.completed.push_back(done.value());
                       duration_hist->observe(
                           to_milliseconds(done.value().total()),
                           done.value().id);
                     });
    });
  }
  // Periodic sampler: the engine's live set and the store's footprint,
  // probed at the workload's own sizes.  Read-only, so the model events
  // around it are unaffected.
  std::size_t sampler_events = 0;
  const snapshot::CheckpointStore* store = controller.checkpoint_store();
  sim.every(
      seconds(1), [&]() { return sim.now() <= horizon; },
      [&]() {
        ++sampler_events;
        const auto a = Clock::now();
        const std::size_t live = engine.live_count();
        const auto b = Clock::now();
        log.child(kProbe, a, b, 0);
        L.live_count_ns.push_back(static_cast<double>(ns_between(a, b)));
        L.live_peak = std::max(L.live_peak, live);
        if (store != nullptr) {
          L.snapshot_bytes_peak = std::max(
              L.snapshot_bytes_peak, static_cast<double>(store->total_bytes()));
        }
      });

  const auto run_start = Clock::now();
  std::size_t steps = 0;
  for (;;) {
    const auto a = Clock::now();
    log.open_step(a);
    const bool more = sim.step();
    const auto b = Clock::now();
    if (!more) {
      log.drop_step();
      break;
    }
    ++steps;
    L.step_self_ns.push_back(static_cast<double>(log.close_step(b)));
    L.step_ns.push_back(static_cast<double>(ns_between(a, b)));
  }
  L.traced_replay_s.push_back(seconds_between(run_start, Clock::now()));
  L.events += steps - sampler_events;
  L.requests += in.arrivals.size();

  out.stats = controller.stats();
  out.engine_launches = engine.launches();
  out.engine_execs = engine.execs();
  L.add_stats(out.stats);
  L.engine_launches += out.engine_launches;
  L.engine_execs += out.engine_execs;
  for (const auto& c : out.completed) {
    L.initiation_ms.push_back(to_milliseconds(c.initiation()));
    L.forwarding_ms.push_back(to_milliseconds(c.forwarding()));
  }
  L.memory_peak_mib = std::max(
      L.memory_peak_mib,
      static_cast<double>(engine.memory_high_watermark()) / (1024.0 * 1024.0));
  const pool::PoolStats ps = controller.pool_view().stats_snapshot();
  L.pool.hits += ps.hits;
  L.pool.misses += ps.misses;
  L.pool.evictions += ps.evictions;
  L.pool.returns += ps.returns;
  if (store != nullptr) {
    L.store_demotes += store->demotes();
    L.store_restores += store->restores();
    L.store_evictions += store->evictions();
    L.store_rejected += store->rejected();
  }

  // share: find_donor probed on the controller's own registry with the
  // specs of the requests that missed the pool.
  if (const share::DonorRegistry* donors = controller.donor_registry()) {
    std::vector<std::size_t> miss_configs;
    for (const auto& c : out.completed) {
      if (c.cold) miss_configs.push_back(c.config_index);
      if (miss_configs.size() >= 20000) break;
    }
    if (miss_configs.empty()) miss_configs.push_back(0);
    std::vector<spec::RuntimeKey> keys;
    keys.reserve(miss_configs.size());
    for (const std::size_t idx : miss_configs) {
      keys.push_back(spec::RuntimeKey::from_spec(in.mix.at(idx).spec));
    }
    std::size_t found = 0;
    const auto a = Clock::now();
    for (std::size_t i = 0; i < miss_configs.size(); ++i) {
      found += donors
                   ->find_donor(in.mix.at(miss_configs[i]).spec, keys[i],
                                controller.pool_view())
                   .has_value();
    }
    L.find_donor_total_ns += ns_between(a, Clock::now());
    L.find_donor_probes += miss_configs.size();
    if (found == ~std::size_t{0}) std::cout << "#\n";  // keep it observable
  }

  // predict: replay every key's demand history into a fresh predictor
  // (the tick's observe + predict step), and score the live forecasts.
  double sink = 0.0;
  for (std::size_t i = 0; i < in.mix.size(); ++i) {
    const auto key = spec::RuntimeKey::from_spec(in.mix.at(i).spec);
    const TimeSeries* demand = controller.demand_history(key);
    const TimeSeries* forecast = controller.forecast_history(key);
    if (demand == nullptr || forecast == nullptr) continue;
    const std::vector<double> d = demand->values();
    const std::vector<double> f = forecast->values();
    for (std::size_t t = 1; t < std::min(d.size(), f.size()); ++t) {
      L.abs_error_sum += std::abs(f[t - 1] - d[t]);
      ++L.abs_error_samples;
    }
    predict::HybridPredictor fresh;
    const auto a = Clock::now();
    for (const double x : d) {
      fresh.observe(x);
      sink += fresh.predict();
    }
    L.predict_total_ns += ns_between(a, Clock::now());
    L.predict_steps += d.size();
  }
  if (sink < -1.0) std::cout << "#\n";
  return out;
}

/// Times RuntimeKey::from_spec over the workload's specs in request order.
struct KeyProbe {
  double ns_per_key = 0.0;
  std::size_t samples = 0;
  std::size_t distinct = 0;
};

KeyProbe probe_keys(const Inputs& in) {
  KeyProbe p;
  p.samples = std::min<std::size_t>(in.arrivals.size(), 50000);
  std::uint64_t sink = 0;
  const auto a = Clock::now();
  for (std::size_t i = 0; i < p.samples; ++i) {
    sink += spec::RuntimeKey::from_spec(
                in.mix.at(in.arrivals[i].config_index).spec)
                .hash();
  }
  p.ns_per_key = ratio(static_cast<double>(ns_between(a, Clock::now())),
                       static_cast<double>(p.samples));
  std::set<std::uint64_t> keys;
  for (const auto& arrival : in.arrivals) {
    keys.insert(
        spec::RuntimeKey::from_spec(in.mix.at(arrival.config_index).spec)
            .hash());
  }
  p.distinct = keys.size();
  if (sink == 0x5eed) std::cout << "#\n";
  return p;
}

// ---------------------------------------------------------------------------
// Threaded driver

/// The function body every threaded request runs: a pure function of the
/// argument, so the collector can check each payload independently.
std::string expected_payload(const std::string& argument) {
  std::uint64_t h = spec::fnv1a(argument);
  for (int i = 0; i < 64; ++i) h = (h ^ (h >> 29)) * 0x100000001b3ull;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", argument.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

struct ThreadedRun {
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t bad_payloads = 0;
  std::uint64_t reused = 0, respecialized = 0, restored = 0, cold = 0;
  std::vector<double> lag_us, submit_ns, latency_ms, service_us, queue_us;
  double wall_s = 0.0;
  double idle_mean = 0.0;
  double snapshot_bytes_peak = 0.0;
  double inflight_first = 0.0, inflight_last = 0.0;
  // Driver counters, read once the workers have drained.
  std::uint64_t rt_reuses = 0, rt_cold = 0, rt_donor_lookups = 0,
                rt_donor_hits = 0, rt_restores = 0, rt_demotes = 0;
  std::uint64_t store_evictions = 0, store_rejected = 0;
  pool::PoolStats pool;
  double find_donor_ns = 0.0;
  std::size_t find_donor_probes = 0;

  /// Mean in-flight requests in the last quarter of the sends against the
  /// first: a growing backlog means the offered rate exceeds capacity and
  /// the latencies measure the queue, not the system.
  [[nodiscard]] bool backlog_grew() const {
    return inflight_last > 2.0 * inflight_first + 4.0;
  }
};

/// Open-loop replay on wall-clock time: one generator thread sends each
/// request at its due time, one collector thread polls the futures and
/// stamps each result as it becomes available.
ThreadedRun run_threaded(const Inputs& in, runtime::RealHotC& rt) {
  ThreadedRun r;
  const std::size_t n = in.arrivals.size();
  r.sent = n;
  r.lag_us.resize(n);
  r.submit_ns.resize(n);
  std::vector<double> inflight(n), idle(n);

  struct Pending {
    Clock::time_point due;
    std::string argument;
    std::future<runtime::RealOutcome> result;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool done = false;
  std::atomic<std::size_t> resolved{0};

  const runtime::RealHotC::Handler handler = [](const std::string& arg) {
    return expected_payload(arg);
  };
  const auto start = Clock::now() + std::chrono::milliseconds(5);

  std::thread collector([&]() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<Pending> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&]() { return !handoff.empty() || done; });
        }
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (pending.empty() && done) break;
      }
      bool progressed = false;
      for (std::size_t i = 0; i < pending.size();) {
        Pending& p = pending[i];
        if (p.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const auto now = Clock::now();
        progressed = true;
        try {
          const runtime::RealOutcome o = p.result.get();
          if (o.payload.empty()) {
            ++r.failed;  // refused: the worker pool had shut down
          } else {
            ++r.completed;
            if (o.payload != expected_payload(p.argument)) ++r.bad_payloads;
            r.reused += o.reused;
            r.respecialized += o.respecialized;
            r.restored += o.restored;
            r.cold += !o.reused && !o.respecialized && !o.restored;
            const double latency_us =
                static_cast<double>(ns_between(p.due, now)) / 1e3;
            const double service_us = to_microseconds(o.wall_time);
            r.latency_ms.push_back(latency_us / 1e3);
            r.service_us.push_back(service_us);
            r.queue_us.push_back(latency_us - service_us);
          }
        } catch (const std::exception&) {
          ++r.failed;
        }
        resolved.fetch_add(1, std::memory_order_relaxed);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  });

  std::thread generator([&]() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& arrival = in.arrivals[i];
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(arrival.at);
      std::this_thread::sleep_until(due);
      const auto sent_at = Clock::now();
      r.lag_us[i] = static_cast<double>(ns_between(due, sent_at)) / 1e3;
      inflight[i] = static_cast<double>(
          i - resolved.load(std::memory_order_relaxed));
      idle[i] = static_cast<double>(rt.warm_count());
      r.snapshot_bytes_peak =
          std::max(r.snapshot_bytes_peak,
                   static_cast<double>(rt.snapshot_store().total_bytes()));
      const auto& entry = in.mix.at(arrival.config_index);
      std::string argument = "req-" + std::to_string(i) + "-fn-" +
                             std::to_string(arrival.config_index);
      const auto a = Clock::now();
      auto result = rt.submit(entry.spec, entry.app, handler, argument);
      const auto b = Clock::now();
      r.submit_ns[i] = static_cast<double>(ns_between(a, b));
      {
        const std::lock_guard<std::mutex> lock(mu);
        handoff.push_back({due, std::move(argument), std::move(result)});
      }
      cv.notify_one();
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
  });

  generator.join();
  collector.join();
  r.wall_s = seconds_between(start, Clock::now());
  rt.shutdown();

  r.idle_mean = mean(idle);
  const std::size_t quarter = std::max<std::size_t>(n / 4, 1);
  const auto slice_mean = [&](std::size_t from, std::size_t to) {
    double s = 0.0;
    for (std::size_t i = from; i < to; ++i) s += inflight[i];
    return ratio(s, static_cast<double>(to - from));
  };
  r.inflight_first = slice_mean(0, std::min(quarter, n));
  r.inflight_last = slice_mean(n - std::min(quarter, n), n);

  r.rt_reuses = rt.reuses();
  r.rt_cold = rt.cold_starts();
  r.rt_donor_lookups = rt.donor_lookups();
  r.rt_donor_hits = rt.donor_hits();
  r.rt_restores = rt.restores();
  r.rt_demotes = rt.demotes();
  r.store_evictions = rt.snapshot_store().evictions();
  r.store_rejected = rt.snapshot_store().rejected();
  r.pool = rt.warm_pool().stats_snapshot();

  // share: find_donor against the drained warm set, through a registry
  // indexing every key of the mix, with the specs in request order.
  share::DonorRegistry donors;
  std::vector<spec::RuntimeKey> keys;
  for (std::size_t i = 0; i < in.mix.size(); ++i) {
    keys.push_back(spec::RuntimeKey::from_spec(in.mix.at(i).spec));
    donors.record(keys.back(), in.mix.at(i).spec);
  }
  const std::size_t probes = std::min<std::size_t>(n, 20000);
  std::size_t found = 0;
  const auto a = Clock::now();
  for (std::size_t i = 0; i < probes; ++i) {
    const std::size_t idx = in.arrivals[i].config_index;
    found += donors.find_donor(in.mix.at(idx).spec, keys[idx], rt.warm_pool())
                 .has_value();
  }
  r.find_donor_probes = probes;
  r.find_donor_ns = ratio(static_cast<double>(ns_between(a, Clock::now())),
                          static_cast<double>(probes));
  if (found == ~std::size_t{0}) std::cout << "#\n";
  return r;
}

void check_threaded(const ThreadedRun& r, Report& report,
                    const std::string& label) {
  report.check(r.completed + r.failed == r.sent,
               label + ": completed + failed != sent");
  report.check(r.bad_payloads == 0,
               label + ": " + std::to_string(r.bad_payloads) +
                   " payloads differ from the handler's output");
  report.check(r.rt_reuses + r.rt_donor_hits + r.rt_restores + r.rt_cold ==
                   r.completed,
               label + ": reuses + donor hits + restores + cold != handled");
  report.check(r.reused == r.rt_reuses && r.respecialized == r.rt_donor_hits &&
                   r.restored == r.rt_restores && r.cold == r.rt_cold,
               label + ": per-request outcomes disagree with driver counters");
}

// ---------------------------------------------------------------------------
// Runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Non-optimised, sanitizer and audit builds measure something else.
std::string build_invalid_reason() {
#if !defined(__OPTIMIZE__)
  return "not an optimised build";
#elif !defined(NDEBUG)
  return "assertions enabled (NDEBUG unset)";
#elif defined(HOTC_AUDIT) || defined(HOTC_LOCK_AUDIT)
  return "HOTC_AUDIT build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (bench::build_flags().find("-fsanitize") != std::string::npos) {
    return "sanitizer build";
  }
  return "";
#endif
}

void print_provenance(const Args& args, const WorkloadDef& w,
                      const std::string& invalid) {
#ifdef HOTC_BUILD_TYPE
  const std::string build_type = HOTC_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  std::cout << "# provenance {\"utc\": "
            << json_string(bench::iso8601_utc_now())
            << ", \"git_sha\": " << json_string(args.git_sha)
            << ", \"source_digest\": " << json_string(args.source_digest)
            << ", \"build_type\": " << json_string(build_type)
            << ", \"build_flags\": " << json_string(bench::build_flags())
            << ", \"valid_build\": " << (invalid.empty() ? "true" : "false")
            << ", \"cores\": " << std::thread::hardware_concurrency()
            << ", \"workload\": " << json_string(w.name)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << json_number(args.seconds)
            << ", \"trace\": " << args.trace << ", \"driver\": "
            << json_string(w.driver == Driver::kSim ? "FaasPlatform"
                                                    : "RealHotC")
            << ", \"keys\": " << w.keys
            << ", \"rate_per_s\": " << json_number(w.rate)
            << ", \"zipf\": " << json_number(kZipf)
            << ", \"trace_seconds\": " << json_number(w.duration_s)
            << ", \"sub_traces\": " << w.sub_traces << "}\n";
}

double duration_for(const WorkloadDef& w, const Args& args) {
  return w.duration_s > 0.0 ? w.duration_s : args.seconds;
}

/// The end-to-end metrics both drivers share.  Latency is virtual on the
/// sim workloads and wall-clock (due time -> result) on threaded-ladder.
void add_e2e_metrics(Report& rep, double rps, std::size_t rps_samples,
                     const std::vector<double>& latency_ms, double avg_idle,
                     std::uint64_t full_colds, std::uint64_t completed,
                     std::uint64_t sent, const std::vector<double>& setup_s) {
  const std::size_t n = latency_ms.size();
  rep.add("replay_rps", rps, "req/s", rps_samples);
  rep.add("latency_mean_ms", mean(latency_ms), "ms", n);
  rep.add("latency_p99_ms", percentile(latency_ms, 0.99), "ms", n);
  rep.add("avg_idle_containers", avg_idle, "containers", sent);
  rep.add("cold_ratio",
          ratio(static_cast<double>(full_colds), static_cast<double>(sent)),
          "ratio", sent);
  rep.add("served_ratio",
          ratio(static_cast<double>(completed), static_cast<double>(sent)),
          "ratio", sent);
  rep.add("setup_s", median(setup_s), "s", setup_s.size());
  rep.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
  std::cout << "# latency ms:";
  for (const double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
    std::cout << " p" << q * 100 << " " << percentile(latency_ms, q);
  }
  std::cout << " (" << n << " samples)\n";
}

/// End-to-end, simulated driver: every sub-trace is replayed once, then
/// replays cycle through them again until the time budget is spent.
/// replay_rps is the sub-traces' completed requests over the sum of each
/// sub-trace's fastest replay: the host's speed for this memory-heavy
/// work swings by tens of percent within seconds, and interference only
/// ever slows a replay down.  setup_s is the median over replays; model
/// metrics pool the sub-traces' outputs, and each repeat must reproduce
/// its first replay.
std::pair<std::uint64_t, std::uint64_t> e2e_sim(const WorkloadDef& w,
                                                const Args& args,
                                                Report& rep) {
  const double duration_s = duration_for(w, args);
  const auto t0 = Clock::now();
  std::vector<double> setup_s, rps;
  std::vector<double> best_s(w.sub_traces, 0.0);
  std::vector<std::uint64_t> digests;
  ModelTotals totals;
  for (std::size_t i = 0;
       i < w.sub_traces || seconds_between(t0, Clock::now()) < args.seconds;
       ++i) {
    const std::size_t j = i % w.sub_traces;
    const SimReplay r =
        replay_platform(w, sub_seed(args.seed, j), duration_s, true);
    setup_s.push_back(r.setup_s);
    rps.push_back(r.rps());
    if (i < w.sub_traces || r.replay_s < best_s[j]) best_s[j] = r.replay_s;
    const std::string label =
        std::string(w.name) + " trace " + std::to_string(j);
    if (i < w.sub_traces) {
      check_model(r.out, r.sent, rep, label);
      totals.add(r.out, r.sent, r.horizon);
      digests.push_back(r.out.digest());
    } else {
      rep.check(r.out.digest() == digests[j],
                label + ": a repeated replay changed the model outputs");
    }
  }
  std::cout << "# replay_rps per replay:";
  for (const double x : rps) std::cout << " " << static_cast<long>(x);
  std::cout << "\n";
  double best_total_s = 0.0;
  for (const double b : best_s) best_total_s += b;
  add_e2e_metrics(rep, static_cast<double>(totals.completed) / best_total_s,
                  rps.size(), totals.latency_ms,
                  totals.idle_container_seconds / totals.horizon_s,
                  totals.full_colds, totals.completed, totals.sent, setup_s);
  return {totals.sent, totals.failed};
}

/// Builds the inputs and RealHotC several times and keeps the last, so
/// setup_s is a median.  One set-up takes about a millisecond, most of it
/// spawning the workers, so it takes many to steady the median.
std::unique_ptr<runtime::RealHotC> setup_threaded(
    const WorkloadDef& w, const Args& args, Inputs& in,
    std::vector<double>& setup_s) {
  std::unique_ptr<runtime::RealHotC> rt;
  for (int i = 0; i < 25; ++i) {
    rt.reset();
    const auto a = Clock::now();
    in = make_inputs(w, sub_seed(args.seed, 0), duration_for(w, args));
    rt = std::make_unique<runtime::RealHotC>(threaded_deployment());
    setup_s.push_back(seconds_between(a, Clock::now()));
  }
  return rt;
}

void print_load(const ThreadedRun& r) {
  std::cout << "# load: lag_us p50 " << percentile(r.lag_us, 0.5) << " p99 "
            << percentile(r.lag_us, 0.99) << "; in-flight mean first quarter "
            << r.inflight_first << ", last quarter " << r.inflight_last
            << "\n";
}

std::pair<std::uint64_t, std::uint64_t> e2e_threaded(const WorkloadDef& w,
                                                     const Args& args,
                                                     Report& rep) {
  Inputs in;
  std::vector<double> setup_s;
  auto rt = setup_threaded(w, args, in, setup_s);
  const ThreadedRun r = run_threaded(in, *rt);
  check_threaded(r, rep, w.name);
  print_load(r);
  if (r.backlog_grew()) {
    std::cout << "# INVALID RUN: the backlog grew over the run\n";
    std::exit(3);
  }
  add_e2e_metrics(rep, static_cast<double>(r.completed) / r.wall_s, 1,
                  r.latency_ms, r.idle_mean, r.rt_cold, r.completed, r.sent,
                  setup_s);
  return {r.sent, r.failed};
}

void add_runtime_layers(Report& rep, const ThreadedRun& r) {
  rep.add("runtime.submit_ns_p50", percentile(r.submit_ns, 0.5), "ns",
          r.submit_ns.size());
  rep.add("runtime.submit_ns_p99", percentile(r.submit_ns, 0.99), "ns",
          r.submit_ns.size());
  rep.add("runtime.service_us_p50", percentile(r.service_us, 0.5), "us",
          r.service_us.size());
  rep.add("runtime.service_us_p99", percentile(r.service_us, 0.99), "us",
          r.service_us.size());
  rep.add("runtime.queue_wait_us_p50", percentile(r.queue_us, 0.5), "us",
          r.queue_us.size());
  rep.add("runtime.queue_wait_us_p99", percentile(r.queue_us, 0.99), "us",
          r.queue_us.size());
  rep.add("runtime.reuses", static_cast<double>(r.rt_reuses), "count", 1);
  rep.add("runtime.cold_starts", static_cast<double>(r.rt_cold), "count", 1);
  rep.add("runtime.donor_hits", static_cast<double>(r.rt_donor_hits), "count",
          1);
  rep.add("runtime.restores", static_cast<double>(r.rt_restores), "count", 1);
  rep.add("runtime.demotes", static_cast<double>(r.rt_demotes), "count", 1);
  rep.add("load.lag_us_p50", percentile(r.lag_us, 0.5), "us", r.lag_us.size());
  rep.add("load.lag_us_p99", percentile(r.lag_us, 0.99), "us",
          r.lag_us.size());
  rep.add("load.sent", static_cast<double>(r.sent), "count", 1);
}

/// Traced sim replays: for each sub-trace, an untraced replay with obs
/// attached (the end-to-end configuration), one with obs detached, and
/// the traced one, whose model outputs must equal the untraced run's.
struct TracedSim {
  SimLayers layers;
  ModelTotals totals;
  std::vector<double> obs_overhead, trace_overhead;
  std::uint64_t spans_dropped = 0;
  Inputs first_inputs;
};

TracedSim traced_sim(const WorkloadDef& w, const Args& args, Report& rep) {
  TracedSim t;
  const double duration_s = duration_for(w, args);
  for (std::size_t j = 0; j < w.sub_traces; ++j) {
    const std::uint64_t seed = sub_seed(args.seed, j);
    const SimReplay on = replay_platform(w, seed, duration_s, true);
    const SimReplay off = replay_platform(w, seed, duration_s, false);
    Inputs in = make_inputs(w, seed, duration_s);
    SpanLog log(Clock::now());
    const ModelOutputs traced = run_sim_traced(in, log, t.layers);
    const std::string label =
        std::string(w.name) + " trace " + std::to_string(j);
    check_model(traced, in.arrivals.size(), rep, label + " traced");
    rep.check(traced == on.out,
              label + ": traced model outputs differ from the untraced run");
    rep.check(off.out == on.out,
              label + ": model outputs depend on whether obs is attached");
    t.totals.add(traced, in.arrivals.size(), horizon_of(in.arrivals));
    t.obs_overhead.push_back(1.0 - on.rps() / off.rps());
    t.trace_overhead.push_back(
        1.0 - (static_cast<double>(traced.completed.size()) /
               t.layers.traced_replay_s.back()) /
                  on.rps());
    t.spans_dropped += on.spans_dropped;
    if (j == 0) {
      if (!args.spans_dir.empty()) {
        const std::string path =
            args.spans_dir + "/" + w.name + ".spans.tsv";
        if (log.write_tsv(path)) {
          std::cout << "# spans: " << log.size() << " written to " << path
                    << "\n";
        } else {
          std::cout << "# warning: could not write " << path << "\n";
        }
      }
      t.first_inputs = std::move(in);
    }
  }
  // The model's end-to-end values, from the traced replays: they equal the
  // untraced run's because every trace's outputs matched bit for bit.
  const ModelTotals& m = t.totals;
  std::cout << "# model (traced): cold_ratio "
            << json_number(ratio(static_cast<double>(m.full_colds),
                                 static_cast<double>(m.sent)))
            << " served_ratio "
            << json_number(ratio(static_cast<double>(m.completed),
                                 static_cast<double>(m.sent)))
            << " avg_idle_containers "
            << json_number(m.idle_container_seconds / m.horizon_s)
            << " latency_mean_ms " << json_number(mean(m.latency_ms))
            << " latency_p99_ms " << json_number(percentile(m.latency_ms, 0.99))
            << "\n";
  return t;
}

std::pair<std::uint64_t, std::uint64_t> per_layer(const WorkloadDef& w,
                                                  const Args& args,
                                                  Report& rep) {
  const bool thr = w.driver == Driver::kThreaded;
  // The threaded run of this workload (threaded-ladder), or a threaded
  // probe over the first two seconds of a sim workload's traffic.
  ThreadedRun threaded;
  if (thr) {
    Inputs in;
    std::vector<double> setup_s;
    auto rt = setup_threaded(w, args, in, setup_s);
    threaded = run_threaded(in, *rt);
    check_threaded(threaded, rep, w.name);
  } else {
    Inputs prefix = make_inputs(w, sub_seed(args.seed, 0), 2.0);
    runtime::RealHotC rt(threaded_deployment());
    threaded = run_threaded(prefix, rt);
    check_threaded(threaded, rep, std::string(w.name) + " threaded probe");
  }
  print_load(threaded);

  // The simulated stack replays the workload's traffic (on threaded-ladder,
  // the same arrivals the threaded run served) for the sim-side layers.
  const TracedSim ts = traced_sim(w, args, rep);
  const SimLayers& L = ts.layers;
  const ControllerStats& s = L.stats;
  const std::uint64_t attempted = thr ? threaded.sent : ts.totals.sent;
  const std::uint64_t failed = thr ? threaded.failed : ts.totals.failed;

  rep.add("sim.events", static_cast<double>(L.events), "count", 1);
  rep.add("sim.events_per_request",
          ratio(static_cast<double>(L.events),
                static_cast<double>(L.requests)),
          "count", L.requests);
  rep.add("sim.step_ns_p50", percentile(L.step_ns, 0.5), "ns",
          L.step_ns.size());
  rep.add("sim.step_ns_p99", percentile(L.step_ns, 0.99), "ns",
          L.step_ns.size());
  rep.add("sim.step_self_ns", mean(L.step_self_ns), "ns",
          L.step_self_ns.size());

  rep.add("faas.dispatch_ns_p50", percentile(L.dispatch_ns, 0.5), "ns",
          L.dispatch_ns.size());
  rep.add("faas.dispatch_ns_p99", percentile(L.dispatch_ns, 0.99), "ns",
          L.dispatch_ns.size());
  rep.add("faas.initiation_ms_p50", percentile(L.initiation_ms, 0.5), "ms",
          L.initiation_ms.size());
  rep.add("faas.initiation_ms_p99", percentile(L.initiation_ms, 0.99), "ms",
          L.initiation_ms.size());
  rep.add("faas.forwarding_ms_p50", percentile(L.forwarding_ms, 0.5), "ms",
          L.forwarding_ms.size());

  rep.add("hotc.tick_us_p50", percentile(L.tick_us, 0.5), "us",
          L.tick_us.size());
  rep.add("hotc.tick_us_max", percentile(L.tick_us, 1.0), "us",
          L.tick_us.size());
  rep.add("hotc.ticks", static_cast<double>(L.tick_us.size()), "count", 1);
  rep.add("hotc.cold_starts", static_cast<double>(s.cold_starts), "count", 1);
  rep.add("hotc.reuses", static_cast<double>(s.reuses), "count", 1);
  rep.add("hotc.prewarm_launches", static_cast<double>(s.prewarm_launches),
          "count", 1);
  rep.add("hotc.retired", static_cast<double>(s.retired), "count", 1);
  rep.add("hotc.evicted", static_cast<double>(s.evicted), "count", 1);

  rep.add("engine.launches", static_cast<double>(L.engine_launches), "count",
          1);
  rep.add("engine.execs", static_cast<double>(L.engine_execs), "count", 1);
  rep.add("engine.live_peak", static_cast<double>(L.live_peak), "count",
          L.live_count_ns.size());
  rep.add("engine.memory_peak_mib", L.memory_peak_mib, "MiB", 1);
  rep.add("engine.live_count_ns", mean(L.live_count_ns), "ns",
          L.live_count_ns.size());

  // pool / share / snapshot come from the workload's own driver.
  const pool::PoolStats& ps = thr ? threaded.pool : L.pool;
  rep.add("pool.hits", static_cast<double>(ps.hits), "count", 1);
  rep.add("pool.misses", static_cast<double>(ps.misses), "count", 1);
  rep.add("pool.hit_ratio", ps.hit_rate(), "ratio", ps.hits + ps.misses);
  rep.add("pool.evictions", static_cast<double>(ps.evictions), "count", 1);
  rep.add("pool.returns", static_cast<double>(ps.returns), "count", 1);

  const KeyProbe kp = probe_keys(ts.first_inputs);
  rep.add("spec.key_ns", kp.ns_per_key, "ns", kp.samples);
  rep.add("spec.keys_distinct", static_cast<double>(kp.distinct), "count", 1);

  const double lookups =
      static_cast<double>(thr ? threaded.rt_donor_lookups : s.donor_lookups);
  const double hits =
      static_cast<double>(thr ? threaded.rt_donor_hits : s.donor_hits);
  rep.add("share.donor_lookups", lookups, "count", 1);
  rep.add("share.donor_hits", hits, "count", 1);
  rep.add("share.donor_hit_ratio", ratio(hits, lookups), "ratio",
          static_cast<std::size_t>(lookups));
  // RealHotC does not count cost-gate rejections; this one always comes
  // from the controller (on threaded-ladder: its sim replay).
  rep.add("share.respec_rejected", static_cast<double>(s.respec_rejected),
          "count", 1);
  rep.add("share.find_donor_ns",
          thr ? threaded.find_donor_ns
              : ratio(static_cast<double>(L.find_donor_total_ns),
                      static_cast<double>(L.find_donor_probes)),
          "ns", thr ? threaded.find_donor_probes : L.find_donor_probes);

  const double demotes =
      static_cast<double>(thr ? threaded.rt_demotes : L.store_demotes);
  const double restores =
      static_cast<double>(thr ? threaded.rt_restores : L.store_restores);
  // Restore attempts: every miss that reached the store.
  const double attempts =
      thr ? static_cast<double>(threaded.rt_restores + threaded.rt_cold)
          : static_cast<double>(s.cold_starts);
  rep.add("snapshot.demotes", demotes, "count", 1);
  rep.add("snapshot.restores", restores, "count", 1);
  rep.add("snapshot.evictions",
          static_cast<double>(thr ? threaded.store_evictions
                                  : L.store_evictions),
          "count", 1);
  rep.add("snapshot.rejected",
          static_cast<double>(thr ? threaded.store_rejected
                                  : L.store_rejected),
          "count", 1);
  rep.add("snapshot.restore_hit_ratio", ratio(restores, attempts), "ratio",
          static_cast<std::size_t>(attempts));
  rep.add("snapshot.bytes_peak_mib",
          (thr ? threaded.snapshot_bytes_peak : L.snapshot_bytes_peak) /
              (1024.0 * 1024.0),
          "MiB", 1);

  rep.add("predict.step_ns",
          ratio(static_cast<double>(L.predict_total_ns),
                static_cast<double>(L.predict_steps)),
          "ns", L.predict_steps);
  rep.add("predict.abs_error_mean",
          ratio(L.abs_error_sum, static_cast<double>(L.abs_error_samples)),
          "containers", L.abs_error_samples);

  rep.add("obs.overhead_ratio", median(ts.obs_overhead), "ratio",
          ts.obs_overhead.size());
  rep.add("obs.spans_dropped", static_cast<double>(ts.spans_dropped), "count",
          1);
  rep.add("trace.overhead_ratio", median(ts.trace_overhead), "ratio",
          ts.trace_overhead.size());

  add_runtime_layers(rep, threaded);
  if (thr && threaded.backlog_grew()) {
    std::cout << "# INVALID RUN: the backlog grew over the run\n";
    std::exit(3);
  }
  return {attempted, failed};
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--spans-dir") {
        a.spans_dir = v;
      } else if (k == "--git-sha") {
        a.git_sha = v;
      } else if (k == "--source-digest") {
        a.source_digest = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: hotc_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-dir DIR] [--git-sha SHA] "
                 "[--source-digest HEX]\n";
    return 2;
  }
  const WorkloadDef* w = nullptr;
  for (const auto& def : kWorkloads) {
    if (args.workload == def.name) w = &def;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::string invalid = build_invalid_reason();
  print_provenance(args, *w, invalid);
  if (!invalid.empty()) {
    std::cout << "# INVALID RUN: " << invalid << "\n";
    return 3;
  }

  Report rep;
  const auto [attempted, failed] =
      args.trace == 1 ? per_layer(*w, args, rep)
      : w->driver == Driver::kSim ? e2e_sim(*w, args, rep)
                                  : e2e_threaded(*w, args, rep);
  rep.print(attempted, failed);
  return rep.correct() ? 0 : 1;
}
