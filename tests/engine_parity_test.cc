/**
 * @file
 * Engine parity tests: event-queue ordering under the pooled
 * allocator, and scalar vs SoA engine agreement. The two engines are
 * physically equivalent, not bit-identical: the SoA engine sums rack
 * power benign-first and accounts throughput per rack, so
 * floating-point folds reorder by design; the tests assert the
 * physical invariants instead (SoC bounds, SoC / shed trajectories
 * within tight tolerance, survival-time and throughput agreement
 * within tolerance). Byte-identical figure outputs across both
 * engines are pinned by the golden_* bench tests.
 *
 * Backends are selected through the explicit Experiment::backend
 * field.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "engine/backend.h"
#include "runner/experiment.h"
#include "sim/event_queue.h"

using namespace pad;

namespace {

// ---------------------------------------------------------------------
// EventQueue: ordering through the pooled allocator
// ---------------------------------------------------------------------

TEST(EngineParity, EventQueueOrderingStableUnderPooling)
{
    // One deterministic schedule/cancel/reschedule script; same-tick
    // events carry distinct ids so the order exposes any instability.
    sim::EventQueue q;
    std::vector<int> fired;
    std::vector<sim::EventHandle> handles;

    // A burst of same-timestamp events across priorities.
    for (int i = 0; i < 40; ++i)
        handles.push_back(q.schedule(
            10, [&fired, i] { fired.push_back(i); },
            static_cast<sim::EventPriority>(i % 4)));
    // Cancel a few mid-burst (forces pooled entries back to the free
    // list before anything fires).
    q.cancel(handles[3]);
    q.cancel(handles[17]);
    q.cancel(handles[36]);
    // Reschedule on the same tick: pooled mode recycles the freed
    // entries; order must still be insertion order within priority.
    for (int i = 100; i < 106; ++i)
        q.schedule(10, [&fired, i] { fired.push_back(i); });
    // Self-rescheduling callback, exercising allocation while firing.
    q.schedule(5, [&] {
        q.schedule(10, [&fired] { fired.push_back(-1); });
    });
    q.runUntil(20);
    EXPECT_TRUE(q.empty());

    // Everything fires at tick 10 (the tick-5 callback only
    // schedules), by priority class and then insertion order; the
    // cancelled ids 3, 17 and 36 never fire, and the Control class
    // ends with the rescheduled ids and the id scheduled while firing.
    const std::vector<int> expected{
        0,  4,  8,  12, 16, 20, 24, 28, 32,                // Physical
        1,  5,  9,  13, 21, 25, 29, 33, 37,                // Control
        100, 101, 102, 103, 104, 105, -1,                  //
        2,  6,  10, 14, 18, 22, 26, 30, 34, 38,            // Observe
        7,  11, 15, 19, 23, 27, 31, 35, 39};               // Cleanup
    EXPECT_EQ(fired, expected);
}

TEST(EngineParity, EventQueueReserveAndBoundsSurviveReuse)
{
    sim::EventQueue q;
    q.reserve(4096);
    int sink = 0;
    // Several generations through the free list, far past one block.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 2000; ++i)
            q.schedule(q.now() + 1 + i % 7,
                       [&sink] { ++sink; });
        q.runUntil(q.now() + 10);
        EXPECT_TRUE(q.empty());
    }
    EXPECT_EQ(sink, 8000);
    EXPECT_EQ(q.executed(), 8000u);
}

// ---------------------------------------------------------------------
// DataCenter: scalar vs SoA physical-invariant parity
// ---------------------------------------------------------------------

class DataCenterParity : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = new runner::ClusterWorkload(
            runner::makeClusterWorkload(2.0));
    }

    static void
    TearDownTestSuite()
    {
        delete workload_;
        workload_ = nullptr;
    }

    static runner::ClusterWorkload *workload_;
};

runner::ClusterWorkload *DataCenterParity::workload_ = nullptr;

/** Run one experiment on an explicit backend. */
runner::ExperimentResult
runOn(runner::Experiment e, engine::BackendKind backend)
{
    e.backend = backend;
    return runner::runExperiment(e);
}

TEST_F(DataCenterParity, SoaCoarseTrajectoriesMatchScalar)
{
    runner::ClusterCoarseSpec spec;
    spec.untilHours = 8.0;
    spec.recordHistory = true;
    const runner::Experiment e =
        runner::Experiment::clusterCoarse(spec, *workload_);

    const runner::ExperimentResult scalar =
        runOn(e, engine::BackendKind::Optimized);
    const runner::ExperimentResult soa =
        runOn(e, engine::BackendKind::Soa);

    // SoC stays physical everywhere.
    for (const double soc : soa.telemetry.socs) {
        EXPECT_GE(soc, 0.0);
        EXPECT_LE(soc, 1.0 + 1e-12);
    }

    // The SoA engine walks the same physics with reordered rack
    // sums, so coarse SOC/shed trajectories track the scalar ones to
    // floating-point noise, step by step.
    ASSERT_EQ(soa.telemetry.socHistory.size(),
              scalar.telemetry.socHistory.size());
    for (std::size_t step = 0;
         step < scalar.telemetry.socHistory.size(); ++step) {
        const auto &a = soa.telemetry.socHistory[step];
        const auto &b = scalar.telemetry.socHistory[step];
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t r = 0; r < a.size(); ++r)
            EXPECT_NEAR(a[r], b[r], 1e-6)
                << "step " << step << " rack " << r;
    }
    ASSERT_EQ(soa.telemetry.shedHistory.size(),
              scalar.telemetry.shedHistory.size());
    for (std::size_t step = 0;
         step < scalar.telemetry.shedHistory.size(); ++step)
        EXPECT_NEAR(soa.telemetry.shedHistory[step],
                    scalar.telemetry.shedHistory[step], 1e-6)
            << "step " << step;
}

TEST_F(DataCenterParity, SoaAttackOutcomePhysicallyEquivalent)
{
    runner::ClusterAttackSpec spec;
    spec.durationSec = 240.0;
    const runner::Experiment e =
        runner::Experiment::clusterAttack(spec, *workload_);

    const runner::ExperimentResult scalar =
        runOn(e, engine::BackendKind::Optimized);
    const runner::ExperimentResult soa =
        runOn(e, engine::BackendKind::Soa);

    // SoC bounds after the attack window.
    ASSERT_EQ(soa.telemetry.socs.size(),
              scalar.telemetry.socs.size());
    for (const double soc : soa.telemetry.socs) {
        EXPECT_GE(soc, 0.0);
        EXPECT_LE(soc, 1.0 + 1e-12);
    }

    // The attack schedule is attacker-side state, independent of the
    // engine's floating-point fold order.
    EXPECT_EQ(soa.attackOutcome.spikesLaunched,
              scalar.attackOutcome.spikesLaunched);
    EXPECT_EQ(soa.attackOutcome.spikeWindows,
              scalar.attackOutcome.spikeWindows);
    EXPECT_EQ(soa.attackOutcome.phaseTwoStartSec,
              scalar.attackOutcome.phaseTwoStartSec);

    // Survival and throughput agree within tolerance: the reordered
    // sums can shift a threshold crossing by a tick or two, not by
    // whole phases.
    const double window = spec.durationSec;
    EXPECT_NEAR(soa.attackOutcome.survivalSec,
                scalar.attackOutcome.survivalSec, 0.05 * window);
    EXPECT_NEAR(soa.attackOutcome.throughput,
                scalar.attackOutcome.throughput, 0.02);
    EXPECT_NEAR(soa.attackOutcome.maxShedRatio,
                scalar.attackOutcome.maxShedRatio, 0.02);

    // Per-rack end state tracks the scalar engine tightly.
    for (std::size_t r = 0; r < soa.telemetry.socs.size(); ++r)
        EXPECT_NEAR(soa.telemetry.socs[r], scalar.telemetry.socs[r],
                    1e-3)
            << "rack " << r;
}

TEST_F(DataCenterParity, SoaWearMatchesScalarPerRack)
{
    runner::ClusterAttackSpec spec;
    spec.durationSec = 240.0;
    const runner::Experiment e =
        runner::Experiment::clusterAttack(spec, *workload_);

    const runner::ExperimentResult scalar =
        runOn(e, engine::BackendKind::Optimized);
    const runner::ExperimentResult soa =
        runOn(e, engine::BackendKind::Soa);

    const auto wearOf = [](const runner::ExperimentResult &r) {
        std::vector<double> wear;
        r.stats->forEachVector(
            [&](const std::string &name,
                const std::vector<double> &values, const std::string &) {
                if (name == "deb.wear")
                    wear = values;
            });
        return wear;
    };
    const std::vector<double> a = wearOf(scalar);
    const std::vector<double> b = wearOf(soa);

    // The SoA engine replicates the scalar AgingModel arithmetic per
    // rack (it has no BatteryUnit objects), so deb.wear must agree
    // to floating-point noise — and must not be the all-zero vector
    // the SoA backend exported before aging was wired in.
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    double totalWear = 0.0;
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_NEAR(b[r], a[r], 1e-6) << "rack " << r;
        totalWear += b[r];
    }
    EXPECT_GT(totalWear, 0.0);
}

} // namespace
