/**
 * @file
 * The functional prime (tag walk + state-only bus replay) must leave
 * exactly the warm state a fully timed priming pass leaves once
 * resetTiming() has discarded the latter's timing.  Each test builds
 * the timed side itself — readBatch of the sweep, drain(), then
 * resetTiming() — replays the kernel's measured phase on that state,
 * and requires the kernel (which primes functionally) to report the
 * same measured ticks, accesses and bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "kernels/kernels.hh"
#include "kernels/remote_kernels.hh"
#include "machine/configs.hh"
#include "machine/machine.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;

/** Timed prime: the sweep through the full timing model. */
void
primeThroughTiming(mem::MemoryHierarchy &h, const mem::StridedSweep &sweep)
{
    mem::forEachBlock(sweep, [&h](const Addr *a, std::size_t n) {
        h.readBatch(a, n);
    });
    h.drain();
}

/** What the timed side measured. */
struct Measured
{
    Tick elapsed = 0;
    std::uint64_t accesses = 0;
    std::uint64_t bytes = 0;
};

void
expectSameResult(const Measured &timed,
                 const kernels::KernelResult &functional)
{
    EXPECT_EQ(timed.elapsed, functional.elapsed);
    EXPECT_EQ(timed.accesses, functional.accesses);
    EXPECT_EQ(timed.bytes, functional.bytes);
}

class PrimeEquivalence
    : public ::testing::TestWithParam<machine::SystemKind>
{
  protected:
    static constexpr std::uint64_t kWorkingSets[] = {2_KiB, 8_KiB,
                                                     32_KiB};
    static constexpr std::uint64_t kStrides[] = {1, 3, 8};

    /**
     * @p timed runs the timed-prime oracle, @p functional the kernel,
     * each on a fresh machine or hierarchy.
     */
    template <typename Timed, typename Functional>
    void
    compareOverGrid(Timed &&timed, Functional &&functional)
    {
        for (const std::uint64_t ws : kWorkingSets) {
            for (const std::uint64_t stride : kStrides) {
                kernels::KernelParams p;
                p.wsBytes = ws;
                p.stride = stride;
                p.capBytes = 1_MiB;
                SCOPED_TRACE("ws=" + std::to_string(ws) +
                             " stride=" + std::to_string(stride));
                expectSameResult(timed(p), functional(p));
            }
        }
    }

    machine::SystemConfig
    system() const
    {
        machine::SystemConfig sys;
        sys.kind = GetParam();
        return sys;
    }

    mem::StridedSweep
    sweepOf(const kernels::KernelParams &p, Addr base = 0) const
    {
        return mem::StridedSweep(base + p.base, p.wsBytes / wordBytes,
                                 p.stride);
    }
};

TEST_P(PrimeEquivalence, MachineLoadSweep)
{
    compareOverGrid(
        [&](const kernels::KernelParams &p) {
            machine::Machine m(system());
            mem::MemoryHierarchy &h = m.node(0);
            const mem::StridedSweep sweep = sweepOf(p);
            m.resetAll();
            primeThroughTiming(h, sweep);
            m.resetTiming();
            mem::forEachBlock(sweep,
                              [&h](const Addr *a, std::size_t n) {
                                  h.readBatch(a, n);
                              });
            return Measured{h.drain(), sweep.size(), p.wsBytes};
        },
        [&](const kernels::KernelParams &p) {
            machine::Machine m(system());
            return kernels::loadSumOn(m, 0, p);
        });
}

TEST_P(PrimeEquivalence, MachineLoadedSweep)
{
    compareOverGrid(
        [&](const kernels::KernelParams &p) {
            machine::Machine m(system());
            const int n = m.numNodes();
            std::vector<mem::StridedSweep> sweeps;
            for (NodeId id = 0; id < n; ++id)
                sweeps.push_back(sweepOf(p, kernels::nodeRegion(id)));
            m.resetAll();
            for (NodeId id = 0; id < n; ++id)
                primeThroughTiming(m.node(id), sweeps[id]);
            m.resetTiming();
            for (std::uint64_t i = 0; i < sweeps[0].size(); ++i)
                for (NodeId id = 0; id < n; ++id)
                    m.node(id).read(sweeps[id][i]);
            Tick slowest = 0;
            for (NodeId id = 0; id < n; ++id)
                slowest = std::max(slowest, m.node(id).drain());
            return Measured{slowest, sweeps[0].size() * n, p.wsBytes};
        },
        [&](const kernels::KernelParams &p) {
            machine::Machine m(system());
            return kernels::loadSumLoaded(m, p);
        });
}

TEST_P(PrimeEquivalence, NodeLoadAndStoreSweeps)
{
    // The node-level driver on a standalone hierarchy, measuring
    // batched loads and then batched stores.
    for (const bool loads : {true, false}) {
        SCOPED_TRACE(loads ? "loadSum" : "storeConstant");
        compareOverGrid(
            [&](const kernels::KernelParams &p) {
                mem::MemoryHierarchy h(
                    machine::nodeConfig(GetParam(), "prime_eq"));
                const mem::StridedSweep sweep = sweepOf(p);
                h.resetAll();
                primeThroughTiming(h, sweep);
                h.resetTiming();
                mem::forEachBlock(
                    sweep, [&h, loads](const Addr *a, std::size_t n) {
                        if (loads)
                            h.readBatch(a, n);
                        else
                            h.writeBatch(a, n);
                    });
                return Measured{h.drain(), sweep.size(), p.wsBytes};
            },
            [&](const kernels::KernelParams &p) {
                mem::MemoryHierarchy h(
                    machine::nodeConfig(GetParam(), "prime_eq"));
                return loads ? kernels::loadSum(h, p)
                             : kernels::storeConstant(h, p);
            });
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, PrimeEquivalence,
    ::testing::Values(machine::SystemKind::Dec8400,
                      machine::SystemKind::CrayT3D,
                      machine::SystemKind::CrayT3E),
    [](const ::testing::TestParamInfo<machine::SystemKind> &info) {
        switch (info.param) {
          case machine::SystemKind::Dec8400: return "Dec8400";
          case machine::SystemKind::CrayT3D: return "CrayT3D";
          case machine::SystemKind::CrayT3E: return "CrayT3E";
        }
        return "Unknown";
    });

/**
 * The 8400-specific piece of the functional prime: priming a line
 * that is dirty in another processor's caches must replay the
 * intervention's directory and cache-state updates (owner cleaned,
 * ownership returned to memory, both nodes recorded as sharers).
 * Runs the same dirty-then-prime scenario through the timed and
 * functional passes and requires identical post-reset timing for
 * reads AND writes — the latter are sensitive to the sharer sets.
 */
TEST(PrimeEquivalence8400, InterventionStateIsReplayed)
{
    constexpr int kLines = 64;
    const auto run = [](bool timed) {
        machine::SystemConfig sys;
        sys.kind = machine::SystemKind::Dec8400;
        machine::Machine m(sys);
        EXPECT_GE(m.numNodes(), 2);
        m.resetAll();
        std::vector<Addr> lines;
        for (int i = 0; i < kLines; ++i)
            lines.push_back(0x40000 + static_cast<Addr>(i) * 64);
        // Node 1 dirties the lines through the bus.
        for (const Addr a : lines)
            m.node(1).write(a);
        m.node(1).drain();
        // Node 0 primes them: timed reads or the functional walk.
        if (timed) {
            for (const Addr a : lines)
                m.node(0).read(a);
            m.node(0).drain();
        } else {
            m.node(0).primeBatch(lines.data(), lines.size());
        }
        m.resetTiming();
        // Measured phase over the warmed state.
        for (const Addr a : lines)
            m.node(0).read(a);
        for (const Addr a : lines)
            m.node(1).read(a);
        const Tick reads =
            std::max(m.node(0).drain(), m.node(1).drain());
        for (const Addr a : lines)
            m.node(1).write(a);
        const Tick writes = m.node(1).drain();
        return std::pair<Tick, Tick>(reads, writes);
    };
    const auto timed = run(true);
    const auto functional = run(false);
    EXPECT_EQ(timed.first, functional.first);
    EXPECT_EQ(timed.second, functional.second);
}

} // namespace
