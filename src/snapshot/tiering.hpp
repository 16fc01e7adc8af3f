// Tiering policy knobs and the economic gate (DESIGN.md §16).
//
// A retired or evicted runtime is worth checkpointing only when the
// modelled restore is decisively cheaper than the cold start it would
// replace — otherwise the disk budget is better spent on other keys.  The
// gate is restore_estimate ≤ α × cold_estimate with α ∈ (0, 1]; the paper's
// CRIU measurements put restore well under half a cold start for the
// workloads studied, so α = 0.5 demotes exactly the runtimes whose
// snapshots pay for themselves on the first hit.
#pragma once

#include "snapshot/checkpoint_store.hpp"
#include "spec/runspec.hpp"

namespace hotc::snapshot {

struct TieringOptions {
  /// Master switch; the demote/restore branches are inert when false.
  bool enabled = false;
  /// Economic gate: demote only when restore_estimate ≤ alpha × cold_estimate.
  double alpha = 0.5;
  /// Disk budget and quotas for the checkpoint store.
  CheckpointStore::Options store;
};

/// Tenant attribution for quota accounting: the image family *is* the
/// tenant in this corpus (sibling functions share a base image), so the
/// interned image name hashes to a stable tenant id without adding a
/// tenant field to RunSpec.
inline std::uint64_t tenant_of(const spec::RunSpec& spec) {
  return spec::fnv1a(spec.image.name);
}

/// The demotion decision, defined once for the simulated controller and
/// RealHotC: demote only when the modelled restore is decisively cheaper
/// than the cold start it would replace (restore ≤ α × cold) and the image
/// could ever fit the store's disk budget.  `meta` carries the estimates
/// (bytes, restore_estimate_s, cold_estimate_s).
inline bool worth_demoting(const SnapshotMeta& meta,
                           const TieringOptions& tiering) {
  return meta.cold_estimate_s > 0.0 &&
         meta.restore_estimate_s <= tiering.alpha * meta.cold_estimate_s &&
         meta.bytes <= tiering.store.capacity_bytes;
}

}  // namespace hotc::snapshot
