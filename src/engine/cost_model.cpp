#include "engine/cost_model.hpp"

namespace hotc::engine {

Duration CostModel::pull_time(Bytes compressed) const {
  if (compressed <= 0) return kZeroDuration;
  const double seconds =
      to_mib(compressed) / host_.net_bandwidth_mib_s;
  // Registry round-trips add a fixed manifest negotiation cost.
  return seconds_f(seconds) + milliseconds(120);
}

Duration CostModel::extract_time(Bytes compressed) const {
  if (compressed <= 0) return kZeroDuration;
  // ~90 MiB/s decompression+write on the reference server disk.
  const double seconds = to_mib(compressed) / 90.0 * host_.io_factor;
  return seconds_f(seconds);
}

Duration CostModel::rootfs_time(const Image& image) const {
  // Union-mount snapshot: mostly metadata, scales weakly with layer count.
  const auto layers = static_cast<std::int64_t>(image.layers.size());
  return scale(milliseconds(60) + milliseconds(8) * layers,
               host_.io_factor);
}

Duration CostModel::namespace_time(const spec::RunSpec& spec) const {
  Duration d = milliseconds(22);  // mount + UTS + net ns clone cost
  if (spec.ipc == spec::NamespaceMode::kPrivate) d += milliseconds(4);
  if (spec.pid == spec::NamespaceMode::kPrivate) d += milliseconds(4);
  if (spec.uts == spec::NamespaceMode::kPrivate) d += milliseconds(2);
  return scale(d, host_.syscall_factor);
}

Duration CostModel::cgroup_time(const spec::RunSpec& spec) const {
  Duration d = milliseconds(18);
  if (spec.memory_limit > 0) d += milliseconds(3);
  if (spec.cpu_limit > 0.0) d += milliseconds(3);
  return scale(d, host_.syscall_factor);
}

Duration CostModel::network_time(spec::NetworkMode mode,
                                 bool create_network) const {
  using spec::NetworkMode;
  switch (mode) {
    case NetworkMode::kNone:
      return scale(milliseconds(4), host_.syscall_factor);
    case NetworkMode::kHost:
      return scale(milliseconds(12), host_.syscall_factor);  // bind only
    case NetworkMode::kBridge:
      return scale(milliseconds(36), host_.syscall_factor);  // veth + NAT
    case NetworkMode::kContainer:
      // Join an existing namespace (proxy attach).
      return scale(milliseconds(9), host_.syscall_factor);
    case NetworkMode::kOverlay:
      if (create_network) {
        // VXLAN fabric + distributed KV registration + route programming.
        // The coordination part (5.7 s) is cluster-bound, not host-bound;
        // calibrated so a fresh overlay launch is ~23x a host-mode launch
        // on the reference server.
        return milliseconds(5'700) +
               scale(milliseconds(180), host_.syscall_factor);
      }
      return milliseconds(160) +
             scale(milliseconds(80), host_.syscall_factor);
    case NetworkMode::kRouting:
      if (create_network) {
        return milliseconds(3'300) +
               scale(milliseconds(140), host_.syscall_factor);
      }
      return milliseconds(110) +
             scale(milliseconds(60), host_.syscall_factor);
  }
  return kZeroDuration;
}

Duration CostModel::volume_time(std::size_t volume_count) const {
  return scale(milliseconds(6) * static_cast<std::int64_t>(volume_count),
               host_.io_factor);
}

Duration CostModel::attach_time() const {
  // Daemon bookkeeping + watchdog process boot (tiny Go HTTP server).
  return scale(milliseconds(95), host_.cpu_factor * 0.4 +
                                     host_.syscall_factor * 0.6);
}

Duration CostModel::runtime_init_time(LanguageRuntime runtime) const {
  Duration d = kZeroDuration;
  switch (runtime) {
    case LanguageRuntime::kNative:
      d = milliseconds(8);  // ELF load only
      break;
    case LanguageRuntime::kPython:
      d = milliseconds(240);  // interpreter + site-packages import
      break;
    case LanguageRuntime::kNode:
      d = milliseconds(170);
      break;
    case LanguageRuntime::kJvm:
      d = milliseconds(950);  // JVM boot + class loading + JIT warm-up
      break;
    case LanguageRuntime::kRuby:
      d = milliseconds(210);
      break;
    case LanguageRuntime::kPhp:
      d = milliseconds(90);
      break;
  }
  return scale(d, host_.cpu_factor);
}

StartupBreakdown CostModel::startup(const spec::RunSpec& spec,
                                    const Image& image, Bytes bytes_to_pull,
                                    bool create_network) const {
  StartupBreakdown b;
  b.pull = pull_time(bytes_to_pull);
  b.extract = extract_time(bytes_to_pull);
  if (shares_sandbox(spec.network)) {
    // Container mode joins an existing sandbox: no fresh rootfs snapshot
    // for the network proxy, shared namespaces, no cgroup re-creation for
    // shared controllers.  The paper measures total launch at about half
    // the standalone case.
    b.rootfs = scale(rootfs_time(image), 0.5);
    b.namespaces = scale(namespace_time(spec), 0.3);
    b.cgroups = cgroup_time(spec);
    b.network = network_time(spec.network, create_network);
    b.attach = scale(attach_time(), 0.45);
  } else {
    b.rootfs = rootfs_time(image);
    b.namespaces = namespace_time(spec);
    b.cgroups = cgroup_time(spec);
    b.network = network_time(spec.network, create_network);
    b.attach = attach_time();
  }
  b.volume = volume_time(spec.volumes.size() + 1);  // +1: HotC data volume
  b.runtime_init = runtime_init_time(image.runtime);
  return b;
}

Duration CostModel::compute_time(double work_seconds) const {
  return seconds_f(work_seconds * host_.cpu_factor);
}

Duration CostModel::cleanup_time(Bytes dirty_bytes) const {
  // Delete files in the old volume + mount a fresh one (Algorithm 2).
  const double wipe_seconds = to_mib(dirty_bytes) / 400.0 * host_.io_factor;
  return seconds_f(wipe_seconds) + scale(milliseconds(7), host_.io_factor);
}

Duration CostModel::stop_time() const {
  return scale(milliseconds(30), host_.syscall_factor);
}

Duration CostModel::remove_time() const {
  return scale(milliseconds(40), host_.io_factor);
}

Duration CostModel::pause_time() const {
  return scale(milliseconds(3), host_.syscall_factor);
}

Duration CostModel::reconfigure_time(const spec::RunSpec& container,
                                     const spec::RunSpec& request) const {
  // Count env vars whose value must change (set, overwrite or unset).
  std::size_t env_changes = 0;
  for (const auto& [k, v] : request.env) {
    const auto it = container.env.find(k);
    if (it == container.env.end() || it->second != v) ++env_changes;
  }
  for (const auto& [k, v] : container.env) {
    (void)v;
    if (request.env.find(k) == request.env.end()) ++env_changes;
  }
  std::size_t volume_changes = 0;
  if (container.volumes != request.volumes) {
    volume_changes =
        std::max(container.volumes.size(), request.volumes.size());
  }
  const Duration env_cost =
      scale(microseconds(400) * static_cast<std::int64_t>(env_changes),
            host_.syscall_factor);
  return env_cost + volume_time(volume_changes);
}

Duration CostModel::resume_time(Bytes swapped_out) const {
  // Thaw plus major faults at ~250 MiB/s swap-in on the reference disk.
  const double fault_seconds = to_mib(swapped_out) / 250.0 * host_.io_factor;
  return scale(milliseconds(5), host_.syscall_factor) +
         seconds_f(fault_seconds);
}

Duration CostModel::checkpoint_time(Bytes resident) const {
  // Freeze + page dump at ~300 MiB/s to the reference disk.
  const double dump_seconds = to_mib(resident) / 300.0 * host_.io_factor;
  return scale(milliseconds(20), host_.syscall_factor) +
         seconds_f(dump_seconds);
}

Duration CostModel::restore_time(Bytes image_size,
                                 const spec::RunSpec& spec) const {
  // Read the image back, recreate namespaces/cgroups, re-attach the
  // network (attach path — the fabric exists), map pages.
  const double read_seconds = to_mib(image_size) / 350.0 * host_.io_factor;
  return seconds_f(read_seconds) + namespace_time(spec) + cgroup_time(spec) +
         network_time(spec.network, /*create_network=*/false) +
         scale(milliseconds(25), host_.syscall_factor);
}

CheckpointEstimate CostModel::checkpoint_estimate(
    Bytes resident, const spec::RunSpec& spec) const {
  CheckpointEstimate est;
  est.image_size = resident + mib(2);  // page dump + metadata
  est.restore = restore_time(est.image_size, spec);
  return est;
}

}  // namespace hotc::engine
