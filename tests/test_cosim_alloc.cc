/**
 * @file
 * Allocation budget of the co-simulator's window loop.
 *
 * The per-window co-sim code -- demand emission, routing, delivery
 * pricing, gate advance and window close -- allocates nothing: what a
 * run allocates is its setup (mesh, placement, per-gate tables) and
 * amortized growth of reused scratch. This binary replaces the global
 * operator new with a counter and holds ProgramCoSimulator::run() on the
 * determinism gate's noisy and CQLA-split sweeps to a budget linear in
 * the gate count, far below one allocation per gate-window. It is its
 * own test binary because the replacement is process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/qcla.h"
#include "apps/toffoli.h"
#include "network/cosim.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace qla;
using namespace qla::network;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** Runs every point of @p sweep over the gate's Toffoli-network and
 *  QCLA workloads and checks each run's allocations against the
 *  budget: a fixed setup allowance plus a few per gate. */
void
expectAllocationsPerGate(const CoSimSweepConfig &sweep)
{
    std::vector<ProgramWorkload> workloads;
    workloads.emplace_back(apps::toffoliNetworkCircuit(15, 12));
    workloads.emplace_back(apps::qclaAdderCircuit(16));
    for (const CoSimSweepPoint &point :
         enumerateCoSimSweep(workloads.size(), sweep)) {
        const ProgramWorkload &program = workloads[point.workload];
        ProgramCoSimulator simulator(program, sweep.pointConfig(point));
        const std::uint64_t before = g_allocations.load();
        const CoSimReport report = simulator.run();
        const std::uint64_t allocations = g_allocations.load() - before;

        const std::uint64_t gates = program.gates().size();
        const std::uint64_t budget = 2 * gates + 256;
        ASSERT_TRUE(report.completed);
        EXPECT_LE(allocations, budget)
            << "workload " << point.workload << " bw " << point.bandwidth
            << " fault " << point.faultRate << " level "
            << point.purificationLevel << " fidelity "
            << point.linkFidelity << " compute " << point.computeFraction
            << ": " << allocations << " allocations over " << gates
            << " gates, " << report.windows << " windows, "
            << report.interactions << " interactions";
        // The budget means something only if per-window allocation
        // would have blown it.
        EXPECT_GT(report.interactions, budget);
    }
}

} // namespace

TEST(CoSimAllocations, NoisySweepAllocatesPerGateNotPerWindow)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer runtimes allocate on their own";
    // The determinism gate's $NOISY configuration.
    CoSimSweepConfig sweep;
    sweep.base.placement = PlacementStrategy::Random;
    sweep.bandwidths = {2, 4};
    sweep.seeds = {1};
    sweep.faultRates = {0.0, 0.05};
    sweep.purificationLevels = {0, 2};
    sweep.linkFidelities = {1.0, 0.96};
    sweep.base.fidelity.opError = 1e-4;
    sweep.base.fidelity.deliveryThreshold = 0.88;
    sweep.base.fidelity.retryBudget = 2;
    expectAllocationsPerGate(sweep);
}

TEST(CoSimAllocations, CqlaSweepAllocatesPerGateNotPerWindow)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer runtimes allocate on their own";
    // The determinism gate's $HIER configuration: uniform and split.
    CoSimSweepConfig sweep;
    sweep.base.placement = PlacementStrategy::Random;
    sweep.bandwidths = {2, 4};
    sweep.seeds = {1};
    sweep.computeFractions = {1.0, 0.2};
    sweep.memoryCodeLevels = {1};
    expectAllocationsPerGate(sweep);
}
