// Ablation — pool policies and key granularity.
//
// DESIGN.md §5: eviction policy comparison, keep-alive baselines vs HotC
// (latency vs wasted container-seconds), and full vs subset runtime keys
// (the paper's §VII partial-key future work).
#include <iostream>

#include "common.hpp"
#include "core/rng.hpp"

using namespace hotc;

namespace {

workload::ArrivalList mixed_workload(Rng& rng, std::size_t configs) {
  // A bursty Poisson mix over `configs` runtime types for 20 minutes.
  return workload::poisson(1.2, minutes(20), rng, configs, 1.0);
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: pool policies, keep-alive baselines, key granularity",
      "Shared workload: Poisson(1.2/s) over 20 min, Zipf across 12 runtime\n"
      "types.");

  const auto mix = workload::ConfigMix::qr_web_service(12);
  Rng rng(4242);
  const auto arrivals = mixed_workload(rng, 12);

  // ---- eviction policies under a tight cap ---------------------------------
  Table evict({"eviction policy", "mean latency", "cold starts",
               "evictions"});
  for (const auto policy :
       {pool::EvictionPolicy::kOldestFirst, pool::EvictionPolicy::kLru,
        pool::EvictionPolicy::kRandom}) {
    faas::PlatformOptions opt;
    opt.policy = faas::PolicyKind::kHotC;
    opt.hotc.limits.max_live = 6;  // tight: forces constant eviction churn
    opt.hotc.eviction = policy;
    faas::FaasPlatform platform(opt);
    const auto recorder = platform.run(arrivals, mix);
    const auto s = recorder.summary();
    evict.add_row({pool::to_string(policy), bench::ms(s.mean_ms),
                   std::to_string(s.cold_count),
                   std::to_string(
                       platform.hotc_controller()->stats().evicted)});
  }
  std::cout << "(1) eviction policy under max_live = 6\n" << evict.to_string()
            << "(paper default: oldest-first)\n\n";

  // ---- keep-alive baselines vs HotC ----------------------------------------
  Table policies({"policy", "mean latency", "p99", "cold starts",
                  "idle container-seconds"});
  {
    const auto def =
        bench::run_policy(faas::PolicyKind::kColdAlways, arrivals, mix);
    const auto s = def.recorder.summary();
    policies.add_row({"cold-always", bench::ms(s.mean_ms),
                      bench::ms(s.p99_ms), std::to_string(s.cold_count),
                      "0"});
  }
  for (const auto ka : {minutes(1), minutes(5), minutes(15)}) {
    faas::PlatformOptions opt;
    opt.policy = faas::PolicyKind::kKeepAlive;
    opt.keep_alive = ka;
    faas::FaasPlatform platform(opt);
    const auto recorder = platform.run(arrivals, mix);
    const auto s = recorder.summary();
    auto* backend =
        dynamic_cast<faas::KeepAliveBackend*>(&platform.backend());
    policies.add_row(
        {"keep-alive " + format_duration(ka), bench::ms(s.mean_ms),
         bench::ms(s.p99_ms), std::to_string(s.cold_count),
         Table::num(backend->idle_container_seconds(), 0)});
  }
  {
    faas::PlatformOptions opt;
    opt.policy = faas::PolicyKind::kHotC;
    faas::FaasPlatform platform(opt);
    const auto recorder = platform.run(arrivals, mix);
    const auto s = recorder.summary();
    policies.add_row(
        {"HotC (adaptive)", bench::ms(s.mean_ms), bench::ms(s.p99_ms),
         std::to_string(s.cold_count),
         Table::num(platform.hotc_controller()->stats().idle_container_seconds,
                    0)});
  }
  std::cout << "(2) fixed keep-alive vs HotC: latency vs wasted idle time\n"
            << policies.to_string()
            << "(the paper's critique: fixed keep-alive either wastes\n"
               " container-seconds or re-pays cold starts; HotC sizes the\n"
               " pool to predicted demand)\n\n";

  // ---- key granularity -------------------------------------------------------
  // 12 variants of the SAME python function differing only in env vars:
  // the full key sees 12 runtime types, the subset key sees one.
  std::vector<workload::ConfigEntry> env_entries;
  for (int i = 0; i < 12; ++i) {
    workload::ConfigEntry e;
    e.spec.image = spec::ImageRef{"python", "3.8"};
    e.spec.network = spec::NetworkMode::kBridge;
    e.spec.env["TENANT"] = std::to_string(i);
    e.app = engine::apps::qr_encoder();
    env_entries.push_back(std::move(e));
  }
  const workload::ConfigMix env_mix(std::move(env_entries));
  Rng rng2(4242);
  const auto env_arrivals = mixed_workload(rng2, 12);

  Table keys({"key granularity", "mean latency", "cold starts", "reuses"});
  for (const bool subset : {false, true}) {
    faas::PlatformOptions opt;
    opt.policy = faas::PolicyKind::kHotC;
    opt.hotc.use_subset_key = subset;
    faas::FaasPlatform platform(opt);
    const auto recorder = platform.run(env_arrivals, env_mix);
    const auto s = recorder.summary();
    keys.add_row({subset ? "subset (env/volumes re-applied)" : "full",
                  bench::ms(s.mean_ms), std::to_string(s.cold_count),
                  std::to_string(platform.hotc_controller()->stats().reuses)});
  }
  std::cout << "(3) full vs subset runtime key (paper SVII future work)\n"
            << keys.to_string()
            << "(the 12 variants differ only in env vars, so the subset\n"
               " key collapses them into one hot runtime type and avoids\n"
               " the per-variant first-request cold starts)\n\n";

  // ---- pause extension --------------------------------------------------
  // Sparse traffic: 60 runtime types hit rarely, so pooled containers sit
  // idle for long stretches — exactly where freezing pays.
  Table pausing({"idle handling", "mean latency", "live (end)",
                 "peak memory", "restores/thaws"});
  Rng rng3(777);
  const auto sparse_mix = workload::ConfigMix::qr_web_service(60);
  const auto sparse = workload::poisson(0.25, minutes(40), rng3, 60, 0.3);
  enum class IdleMode { kKeepHot, kPause, kCheckpoint };
  for (const auto mode :
       {IdleMode::kKeepHot, IdleMode::kPause, IdleMode::kCheckpoint}) {
    faas::PlatformOptions opt;
    opt.policy = faas::PolicyKind::kHotC;
    opt.hotc.enable_retire = false;  // idle handling is the only variable
    if (mode == IdleMode::kPause) opt.hotc.pause_idle_after = minutes(2);
    if (mode == IdleMode::kCheckpoint) {
      opt.hotc.tiering.enabled = true;
      opt.hotc.idle_cap = minutes(2);  // retire (to disk) at 2 min idle
    }
    faas::FaasPlatform platform(opt);
    const auto recorder = platform.run(sparse, sparse_mix);
    const auto s = recorder.summary();
    const auto* ctl = platform.hotc_controller();
    const char* label = mode == IdleMode::kKeepHot ? "keep hot"
                        : mode == IdleMode::kPause
                            ? "freeze after 2 min idle"
                            : "retire + checkpoint/restore";
    pausing.add_row(
        {label, bench::ms(s.mean_ms),
         std::to_string(platform.engine().live_count()),
         format_bytes(platform.engine().memory_high_watermark()),
         std::to_string(mode == IdleMode::kPause
                            ? ctl->runtime_pool().paused_count()
                            : static_cast<std::size_t>(
                                  ctl->stats().restores))});
  }
  std::cout << "(4) idle handling: keep hot vs freeze vs checkpoint/restore\n"
            << pausing.to_string()
            << "(freezing pages out ~80% of the idle footprint for a thaw\n"
               " cost; checkpoint/restore frees the container entirely and\n"
               " replaces later cold boots with warm restores — the\n"
               " Replayable-Execution [34] trade-off next to HotC's pool)\n";
  return 0;
}
