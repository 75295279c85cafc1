/**
 * @file
 * Unit tests for the DEC 8400 shared memory + snooping bus model.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bus/dec8400_memory.hh"
#include "machine/configs.hh"
#include "machine/machine.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;
using namespace gasnub::bus;

struct TwoNodeSmp
{
    TwoNodeSmp()
        : cfg0(machine::dec8400Node("n0")),
          cfg1(machine::dec8400Node("n1")),
          n0(cfg0), n1(cfg1),
          shared(machine::dec8400BusConfig(), sharedDram())
    {
        shared.attach(0, &n0);
        shared.attach(1, &n1);
    }

    static mem::DramConfig
    sharedDram()
    {
        mem::DramConfig d = machine::dec8400Node("s").dram;
        d.name = "shared";
        return d;
    }

    mem::HierarchyConfig cfg0, cfg1;
    mem::MemoryHierarchy n0, n1;
    Dec8400Memory shared;
};

TEST(Dec8400Memory, ProducerWriteConsumerReadIntervenes)
{
    TwoNodeSmp smp;
    // Producer dirties a line.
    smp.n1.write(0x1000);
    smp.n1.drain();
    EXPECT_EQ(smp.shared.interventions(), 0u);
    // Consumer read pulls it cache-to-cache.
    smp.n0.read(0x1000);
    EXPECT_EQ(smp.shared.interventions(), 1u);
    // Owner's copy is now clean: a second consumer read of the same
    // line hits the consumer cache (no new transaction).
    const auto before =
        static_cast<std::uint64_t>(smp.shared.interventions());
    smp.n0.read(0x1008);
    EXPECT_EQ(smp.shared.interventions(), before);
}

TEST(Dec8400Memory, ReadExclusiveInvalidatesSharers)
{
    TwoNodeSmp smp;
    smp.n0.read(0x2000);
    smp.n1.read(0x2000);
    EXPECT_TRUE(smp.n0.level(0).contains(0x2000));
    // Now node 1 writes: node 0's copies must be invalidated.
    smp.n1.write(0x2000);
    EXPECT_FALSE(smp.n0.level(0).contains(0x2000));
    EXPECT_FALSE(smp.n0.level(1).contains(0x2000));
    EXPECT_FALSE(smp.n0.level(2).contains(0x2000));
    EXPECT_GE(smp.shared.invalidations(), 1u);
}

TEST(Dec8400Memory, WritebackReturnsOwnershipToMemory)
{
    TwoNodeSmp smp;
    smp.n1.write(0x3000);
    // Force the dirty line out of every level of node 1: 4 MiB-apart
    // addresses conflict in the direct-mapped L3 and in the 3-way L2
    // set, so the dirty data cascades L2 -> L3 -> shared memory.
    for (Addr k = 1; k <= 5; ++k)
        smp.n1.read(0x3000 + k * 4_MiB);
    // Consumer read must now be served by memory, not intervention.
    const auto iv =
        static_cast<std::uint64_t>(smp.shared.interventions());
    smp.n0.read(0x3000);
    EXPECT_EQ(smp.shared.interventions(), iv);
}

TEST(Dec8400Memory, SharedLinePenaltyAppliesToOtherReaders)
{
    TwoNodeSmp smp;
    // Producer writes, evicts (writeback), then the consumer and the
    // producer itself re-read from memory.
    smp.n1.write(0x4000);
    for (Addr k = 1; k <= 5; ++k)
        smp.n1.read(0x4000 + k * 4_MiB);

    smp.n0.resetTiming();
    smp.n1.resetTiming();
    smp.shared.resetTiming();
    const Tick consumer = smp.n0.read(0x4000);

    smp.n0.resetTiming();
    smp.n1.resetTiming();
    smp.shared.resetTiming();
    const Tick producer = smp.n1.read(0x4000);
    EXPECT_GT(consumer, producer);
}

TEST(Dec8400Memory, InterventionFasterThanMemoryRead)
{
    // Figure 2: working sets that fit the producer's SRAM caches pull
    // faster than ones served by the slower DRAM.
    TwoNodeSmp smp;
    smp.n1.write(0x5000);

    smp.n0.resetTiming();
    smp.shared.resetTiming();
    const Tick dirty_pull = smp.n0.read(0x5000);

    TwoNodeSmp fresh;
    const Tick clean_read = fresh.n0.read(0x5000);
    EXPECT_LT(dirty_pull, clean_read);
}

TEST(Dec8400Memory, ResetAllForgetsDirectory)
{
    TwoNodeSmp smp;
    smp.n1.write(0x6000);
    smp.shared.resetAll();
    smp.n0.resetTiming();
    const auto iv =
        static_cast<std::uint64_t>(smp.shared.interventions());
    // Note: node caches still hold the line functionally, but the
    // directory forgot ownership — a consumer read goes to memory.
    smp.n0.read(0x6000);
    EXPECT_EQ(smp.shared.interventions(), iv);
}

/** Four processors on one bus, with a configurable bus. */
struct FourNodeSmp
{
    explicit FourNodeSmp(BusConfig bus = machine::dec8400BusConfig())
        : shared(bus, TwoNodeSmp::sharedDram())
    {
        for (int n = 0; n < 4; ++n) {
            std::string name = "n";
            name += std::to_string(n);
            cfgs.push_back(machine::dec8400Node(name));
        }
        for (int n = 0; n < 4; ++n) {
            nodes.push_back(std::make_unique<mem::MemoryHierarchy>(
                cfgs[n]));
            shared.attach(n, nodes[n].get());
        }
    }

    mem::MemoryHierarchy &node(int n) { return *nodes[n]; }

    /** Interventions caused by node @p n reading @p addr. */
    std::uint64_t
    pulls(int n, Addr addr)
    {
        const std::uint64_t before = shared.interventions();
        node(n).read(addr);
        return shared.interventions() - before;
    }

    std::vector<mem::HierarchyConfig> cfgs;
    std::vector<std::unique_ptr<mem::MemoryHierarchy>> nodes;
    Dec8400Memory shared;
};

TEST(Dec8400Memory, RegionsFarApartKeepTheirOwnLines)
{
    // The copy kernels' source and destination regions sit 1 << 33
    // apart and the remote kernels' nodes 1 << 34 apart: the same
    // offset in each is a different line.  Each line is dirtied by a
    // different owner, so no owner's caches evict another's.
    FourNodeSmp smp;
    const Addr base = 0x12340;
    const Addr lines[] = {base, base + (Addr{1} << 33),
                          base + (Addr{1} << 34), base + (Addr{2} << 34),
                          base + (Addr{3} << 34) + (Addr{1} << 33)};
    smp.node(1).write(lines[0]);
    // Untouched lines at the same offset stay clean.
    for (std::size_t i = 1; i < std::size(lines); ++i)
        EXPECT_EQ(smp.pulls(0, lines[i]), 0u) << i;
    EXPECT_EQ(smp.pulls(0, lines[0]), 1u);

    // Interleaved owners across three regions: the directory must
    // keep switching pages without mixing them up.
    for (int k = 0; k < 8; ++k) {
        for (int r = 0; r < 3; ++r) {
            const Addr a = (Addr{static_cast<unsigned>(r)} << 33) +
                           r * 8_KiB + k * 64;
            smp.node(r + 1).write(a);
        }
    }
    for (int k = 0; k < 8; ++k) {
        for (int r = 0; r < 3; ++r) {
            const Addr a = (Addr{static_cast<unsigned>(r)} << 33) +
                           r * 8_KiB + k * 64;
            EXPECT_EQ(smp.pulls(0, a), 1u) << "region " << r << " line "
                                           << k;
        }
    }
}

TEST(Dec8400Memory, NeighboursAcrossAPageBoundary)
{
    // A directory page holds 4096 lines: 256 KiB of 64 B lines.
    FourNodeSmp smp;
    const Addr edge = 5 * 256_KiB;
    const Addr last = edge - 64; // last line of a page
    smp.node(1).write(last);
    // No other line shares its entry: not its neighbours on either
    // side of the boundary, nor lines a power of two of lines away.
    for (int k = 0; k <= 14; ++k) {
        EXPECT_EQ(smp.pulls(0, last - (Addr{64} << k)), 0u) << k;
        EXPECT_EQ(smp.pulls(0, last + (Addr{64} << k)), 0u) << k;
    }
    smp.node(2).write(edge);
    EXPECT_EQ(smp.pulls(3, last), 1u);
    EXPECT_EQ(smp.pulls(3, edge), 1u);
    // The owners' copies are clean now: a second pull finds nothing.
    EXPECT_EQ(smp.pulls(0, last), 0u);
    EXPECT_EQ(smp.pulls(0, edge), 0u);
}

TEST(Dec8400Memory, ResetAllReadsDefaultsOnEveryTouchedPage)
{
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    Dec8400Memory &shared = *m.sharedMemory();
    const Addr lines[] = {0x40, 256_KiB + 0x40, (Addr{1} << 33) + 0x40,
                          (Addr{2} << 34) + 0x40};
    Tick clean = 0;
    for (int round = 0; round < 3; ++round) {
        m.resetAll();
        for (const Addr a : lines)
            m.node(1).write(a);
        m.resetAll();
        // Forgotten: no owner to pull from (newest page first, so
        // the pages the directory used last are looked up first) ...
        const std::uint64_t iv = shared.interventions();
        for (std::size_t i = std::size(lines); i-- > 0;)
            m.node(0).read(lines[i]);
        EXPECT_EQ(shared.interventions(), iv) << "round " << round;
        // ... and no last writer either: a fresh read costs what the
        // same read costs on a directory that never saw a write.
        m.resetAll();
        const Tick t = m.node(2).read(lines[3]);
        if (round == 0)
            clean = t;
        EXPECT_EQ(t, clean) << "round " << round;
    }
    machine::Machine fresh(machine::SystemKind::Dec8400, 4);
    EXPECT_EQ(fresh.node(2).read(lines[3]), clean);
}

TEST(Dec8400Memory, WiderBusLines)
{
    // 128 B coherence lines: two 64 B cache lines share an entry, and
    // a directory page spans 512 KiB.
    BusConfig bus = machine::dec8400BusConfig();
    bus.lineBytes = 128;
    FourNodeSmp smp(bus);
    smp.node(1).write(0x1040);
    EXPECT_EQ(smp.pulls(0, 0x1000), 1u);

    const Addr edge = 3 * 512_KiB;
    smp.node(2).write(edge - 64);
    EXPECT_EQ(smp.pulls(0, edge), 0u);
    EXPECT_EQ(smp.pulls(0, edge - 128), 1u);
    smp.node(3).write(edge + (Addr{1} << 33));
    EXPECT_EQ(smp.pulls(0, edge + (Addr{1} << 33) + 64), 1u);
}

TEST(Dec8400Memory, MachineFactoryWiresHooks)
{
    machine::Machine m(machine::SystemKind::Dec8400, 4);
    ASSERT_NE(m.sharedMemory(), nullptr);
    EXPECT_EQ(m.torus(), nullptr);
    m.node(1).write(0x7000);
    m.node(0).read(0x7000);
    EXPECT_GE(m.sharedMemory()->interventions(), 1u);
}

} // namespace
