// Checkpoint/restore tests (engine + controller) on the one checkpoint
// mechanism: demote() dumps an Idle runtime, restore_container() revives it
// warm, discard_checkpointed() drops the dump, and the controller reaches
// them through the snapshot tier (DESIGN.md §16).
#include <gtest/gtest.h>

#include <optional>

#include "engine/app.hpp"
#include "hotc/controller.hpp"
#include "predict/baselines.hpp"

namespace hotc {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

class CheckpointEngineTest : public ::testing::Test {
 protected:
  CheckpointEngineTest() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  engine::ContainerId launch_and_warm(const engine::AppModel& app) {
    engine::ContainerId id = 0;
    engine_.launch(python_spec(), [&](Result<engine::LaunchReport> r) {
      id = r.value().container;
      engine_.exec(id, app, [](Result<engine::ExecReport>) {});
    });
    sim_.run();
    return id;
  }

  void demote(engine::ContainerId id) {
    bool ok = false;
    engine_.demote(id, [&](Result<engine::ContainerEngine::DemoteReport> r) {
      ok = r.ok();
    });
    sim_.run();
    ASSERT_TRUE(ok);
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
};

TEST_F(CheckpointEngineTest, CheckpointAndRestoreKeepsWarmState) {
  const auto app = engine::apps::v3_app();
  const auto id = launch_and_warm(app);

  demote(id);
  EXPECT_EQ(engine_.checkpointed_count(), 1u);
  EXPECT_GT(engine_.checkpointed_disk_used(), 0);
  EXPECT_EQ(engine_.live_count(), 0u);

  // Restore: the container comes back Idle, already warm for the app.
  std::optional<engine::LaunchReport> restored;
  engine_.restore_container(id, [&](Result<engine::LaunchReport> r) {
    restored = r.value();
  });
  sim_.run();
  ASSERT_TRUE(restored.has_value());
  const engine::Container* c = engine_.find(restored->container);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, engine::ContainerState::kIdle);
  EXPECT_EQ(c->warm_app, app.name);

  std::optional<engine::ExecReport> exec;
  engine_.exec(restored->container, app,
               [&](Result<engine::ExecReport> r) { exec = r.value(); });
  sim_.run();
  ASSERT_TRUE(exec.has_value());
  EXPECT_TRUE(exec->app_was_warm);  // no model reload after restore
}

TEST_F(CheckpointEngineTest, RestoreFasterThanColdSlowerThanNothing) {
  const auto app = engine::apps::v3_app();
  const auto id = launch_and_warm(app);
  demote(id);

  const TimePoint t0 = sim_.now();
  engine_.restore_container(id, [](Result<engine::LaunchReport>) {});
  sim_.run();
  const Duration restore_cost = sim_.now() - t0;
  const Duration cold_cost =
      engine_.estimate_startup(python_spec()).total() +
      engine::CostModel(engine::HostProfile::server())
          .compute_time(app.app_init_seconds);
  EXPECT_GT(restore_cost, kZeroDuration);
  EXPECT_LT(restore_cost, cold_cost);
}

TEST_F(CheckpointEngineTest, CannotCheckpointBusyContainer) {
  engine::ContainerId id = 0;
  engine_.launch(python_spec(), [&](Result<engine::LaunchReport> r) {
    id = r.value().container;
  });
  sim_.run();
  engine_.exec(id, engine::apps::v3_app(), [](Result<engine::ExecReport>) {});
  bool failed = false;
  engine_.demote(id, [&](Result<engine::ContainerEngine::DemoteReport> r) {
    failed = !r.ok();
    EXPECT_EQ(r.error().code, "engine.not_checkpointable");
  });
  EXPECT_TRUE(failed);
  sim_.run();
}

TEST_F(CheckpointEngineTest, RestoreUnknownCheckpointFails) {
  bool failed = false;
  engine_.restore_container(42, [&](Result<engine::LaunchReport> r) {
    failed = !r.ok();
    EXPECT_EQ(r.error().code, "engine.unknown_container");
  });
  EXPECT_TRUE(failed);
}

TEST_F(CheckpointEngineTest, DropCheckpointFreesDisk) {
  const auto id = launch_and_warm(engine::apps::qr_encoder());
  demote(id);
  ASSERT_GT(engine_.checkpointed_disk_used(), 0);

  std::optional<bool> dropped;
  engine_.discard_checkpointed(id, [&](Result<bool> r) {
    dropped = r.ok() && r.value();
  });
  sim_.run();
  EXPECT_EQ(dropped, true);
  // A second drop of the same dump fails: it is gone, not re-dropped.
  bool failed = false;
  engine_.discard_checkpointed(id, [&](Result<bool> r) { failed = !r.ok(); });
  sim_.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(engine_.checkpointed_disk_used(), 0);
}

// ---------------------------------------------------------------------------

class CheckpointControllerTest : public ::testing::Test {
 protected:
  CheckpointControllerTest() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  static ControllerOptions retiring_options() {
    ControllerOptions opt;
    // Forecast 0 so the adaptive tick retires the pooled runtime.
    opt.predictor_factory = [] {
      return std::make_unique<predict::ConstantPredictor>(0.0);
    };
    return opt;
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
};

TEST_F(CheckpointControllerTest, RetireDumpsAndMissRestores) {
  ControllerOptions opt = retiring_options();
  opt.tiering.enabled = true;
  HotCController ctl(engine_, opt);
  const auto app = engine::apps::v3_app();

  std::optional<RequestOutcome> first;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { first = r.value(); });
  sim_.run();
  ctl.adaptive_tick();  // retires -> checkpoints first
  sim_.run();
  EXPECT_EQ(engine_.live_count(), 0u);
  EXPECT_EQ(ctl.stats().checkpoints, 1u);
  EXPECT_EQ(engine_.checkpointed_count(), 1u);

  std::optional<RequestOutcome> second;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { second = r.value(); });
  sim_.run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->restored);
  EXPECT_FALSE(second->reused);
  EXPECT_EQ(ctl.stats().restores, 1u);
  // Restore beats the cold start it replaced.
  EXPECT_LT(second->total, first->total);
  // And skips the app re-init: exec portion is warm-sized.
  EXPECT_LT(second->exec_total, seconds_f(app.exec_seconds + 0.1));
}

TEST_F(CheckpointControllerTest, DisabledByDefault) {
  HotCController ctl(engine_, retiring_options());
  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();
  sim_.run();
  EXPECT_EQ(engine_.checkpointed_count(), 0u);
  EXPECT_EQ(ctl.stats().checkpoints, 0u);
}

}  // namespace
}  // namespace hotc
