/**
 * @file
 * Unit tests for the 3D torus interconnect.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "machine/machine.hh"
#include "noc/torus.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

namespace {

using namespace gasnub;
using namespace gasnub::noc;

TorusConfig
smallTorus()
{
    TorusConfig t;
    t.dimX = 4;
    t.dimY = 2;
    t.dimZ = 1;
    t.linkMBs = 100; // 10 ns per byte
    t.hopNs = 10;
    t.nicNs = 20;
    t.headerBytes = 8;
    t.procsPerNic = 1;
    t.partnerSwitchNs = 100;
    return t;
}

TEST(Torus, CoordinatesRoundTrip)
{
    Torus t(smallTorus());
    EXPECT_EQ(t.numNodes(), 8);
    auto c = t.coordOf(5); // router 5: x=1, y=1, z=0
    EXPECT_EQ(c.x, 1);
    EXPECT_EQ(c.y, 1);
    EXPECT_EQ(c.z, 0);
}

TEST(Torus, HopCountUsesShortestRingDirection)
{
    Torus t(smallTorus());
    EXPECT_EQ(t.hopCount(0, 0), 0);
    EXPECT_EQ(t.hopCount(0, 1), 1);
    EXPECT_EQ(t.hopCount(0, 3), 1); // wraparound on the 4-ring
    EXPECT_EQ(t.hopCount(0, 2), 2);
    EXPECT_EQ(t.hopCount(0, 4), 1); // one Y hop
    EXPECT_EQ(t.hopCount(0, 6), 3); // 2 in X + 1 in Y
}

TEST(Torus, PacketLatencyGrowsWithDistance)
{
    Torus t(smallTorus());
    const Tick near = t.send(0, 1, 64, 0).arrived;
    t.reset();
    const Tick far = t.send(0, 2, 64, 0).arrived;
    EXPECT_GT(far, near);
}

TEST(Torus, BandwidthBoundedByLink)
{
    Torus t(smallTorus());
    // 100 packets of 64 B payload (72 B wire = 720 ns each).
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = t.send(0, 1, 64, 0).arrived;
    const double mbs = 100.0 * 64 * 1e6 / static_cast<double>(last);
    // Effective rate approaches payload/wire x link = 88.9 MB/s.
    EXPECT_GT(mbs, 80);
    EXPECT_LT(mbs, 90);
}

TEST(Torus, PartnerSwitchCharged)
{
    // On an idle NIC a packet to the same partner injects on request;
    // switching partners costs the per-message overhead (100 ns).
    Torus t(smallTorus());
    t.send(0, 1, 8, 0);
    const Tick same = t.send(0, 1, 8, 1000000).injected;
    t.reset();
    t.send(0, 1, 8, 0);
    const Tick switched = t.send(0, 2, 8, 1000000).injected;
    EXPECT_EQ(same, 1000000u);
    EXPECT_EQ(switched, 1100000u);
}

TEST(Torus, SharedNicSerializesPairedProcessors)
{
    TorusConfig cfg = smallTorus();
    cfg.procsPerNic = 2;
    Torus t(cfg);
    EXPECT_EQ(t.numNodes(), 16);
    // Nodes 0 and 1 share NIC 0.
    const Tick a = t.send(0, 4, 64, 0).injected;
    const Tick b = t.send(1, 6, 64, 0).injected;
    EXPECT_GT(b, a); // second injection waits for the shared NIC
}

TEST(Torus, DisjointRoutesDoNotInterfere)
{
    Torus t(smallTorus());
    const Tick a = t.send(0, 1, 64, 0).injected;
    const Tick b = t.send(2, 3, 64, 0).injected;
    EXPECT_EQ(a, b); // different NICs, different links
}

TEST(Torus, ResetRestoresIdleState)
{
    Torus t(smallTorus());
    t.send(0, 1, 64, 0);
    const std::uint64_t packets = t.packets();
    t.reset();
    const Tick after = t.send(0, 1, 64, 0).injected;
    EXPECT_EQ(after, 0u);
    EXPECT_EQ(t.packets(), packets + 1);
}

TEST(Torus, MachineFactoriesMatchPaperTopology)
{
    // The T3D pairs two PEs per network node; the T3E does not.
    auto t3d = machine::t3dTorusConfig(4);
    EXPECT_EQ(t3d.procsPerNic, 2);
    EXPECT_EQ(t3d.dimX * t3d.dimY * t3d.dimZ, 2);
    auto t3e = machine::t3eTorusConfig(4);
    EXPECT_EQ(t3e.procsPerNic, 1);
    EXPECT_EQ(t3e.dimX * t3e.dimY * t3e.dimZ, 4);
    // 512-processor machines factor into an 8x8x8-ish torus.
    auto big = machine::t3eTorusConfig(512);
    EXPECT_EQ(big.dimX * big.dimY * big.dimZ, 512);
    EXPECT_LE(big.dimX, 16);
}

class TorusRouting : public ::testing::TestWithParam<int>
{
};

TEST_P(TorusRouting, AllPairsDeliverWithBoundedHops)
{
    TorusConfig cfg = smallTorus();
    cfg.dimX = GetParam();
    cfg.dimY = 2;
    Torus t(cfg);
    const int diameter = cfg.dimX / 2 + cfg.dimY / 2 + cfg.dimZ / 2;
    for (int s = 0; s < t.numNodes(); ++s) {
        for (int d = 0; d < t.numNodes(); ++d) {
            t.reset();
            auto r = t.send(s, d, 8, 0);
            EXPECT_LE(r.hops, diameter);
            EXPECT_EQ(r.hops, t.hopCount(s, d));
            EXPECT_GE(r.arrived, r.injected);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, TorusRouting,
                         ::testing::Values(2, 3, 4, 8));

double
faultStat(Torus &t, const std::string &leaf)
{
    const stats::StatBase *s =
        t.statsGroup().find("torus.faults." + leaf);
    return s ? static_cast<const stats::Scalar *>(s)->value() : -1.0;
}

TEST(TorusFaults, DetourRoutesAroundASeveredLink)
{
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("link-down:router=0,dir=+x");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    // 0 -> 1 prefers one +x hop; with that link cut the packet takes
    // the other ring direction, 3 hops the long way round.
    const PacketResult r = t.send(0, 1, 64, 0);
    EXPECT_EQ(r.hops, 3);
    EXPECT_EQ(faultStat(t, "detours"), 1.0);
    // hopCount() advertises topology distance, not the detour.
    EXPECT_EQ(t.hopCount(0, 1), 1);
    // Traffic not crossing the cut link is untouched.
    Torus healthy(smallTorus());
    EXPECT_EQ(t.send(1, 2, 64, 0).arrived,
              healthy.send(1, 2, 64, 0).arrived);
}

TEST(TorusFaults, SeveredRingThrowsButOtherDimensionsWork)
{
    const sim::FaultPlan plan = sim::FaultPlan::parse(
        "link-down:router=0,dir=+x;link-down:router=0,dir=-x");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    EXPECT_THROW(t.send(0, 1, 64, 0), sim::FaultError);
    // The y ring out of router 0 is intact: 0 -> 4 still delivers.
    EXPECT_NO_THROW(t.send(0, 4, 64, 0));
}

TEST(TorusFaults, SlowLinkStretchesWireOccupancy)
{
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("link-slow:router=0,dir=+x,factor=4");
    sim::FaultDomain dom(plan);
    Torus slow(smallTorus());
    slow.setFaults(&dom);
    Torus healthy(smallTorus());
    // The slow factor stretches how long each packet occupies the
    // wire, so the first packet lands on time but a back-to-back
    // second packet queues behind the longer occupancy.
    const PacketResult a1 = slow.send(0, 1, 4096, 0);
    const PacketResult a2 = slow.send(0, 1, 4096, 0);
    const PacketResult b1 = healthy.send(0, 1, 4096, 0);
    const PacketResult b2 = healthy.send(0, 1, 4096, 0);
    EXPECT_GT(a2.arrived - a1.arrived, b2.arrived - b1.arrived);
    EXPECT_GT(faultStat(slow, "slowTicks"), 0.0);
    EXPECT_EQ(a1.hops, b1.hops); // slow, not severed: no detour
}

TEST(TorusFaults, NicBackpressureDelaysInjection)
{
    const sim::FaultPlan plan = sim::FaultPlan::parse(
        "nic-backpressure:router=0,prob=1,extra=500");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    Torus healthy(smallTorus());
    const PacketResult a = t.send(0, 1, 64, 0);
    const PacketResult b = healthy.send(0, 1, 64, 0);
    const Tick extra = 500000; // 500 ns in picosecond ticks
    EXPECT_EQ(a.injected, b.injected + extra);
    EXPECT_EQ(faultStat(t, "nicStalls"), 1.0);
    EXPECT_EQ(faultStat(t, "nicStallTicks"),
              static_cast<double>(extra));
}

/** Every stat of @p t, as the human-readable dump. */
std::string
statsDump(Torus &t)
{
    std::ostringstream os;
    t.statsGroup().dump(os);
    return os.str();
}

/**
 * Send one seeded stream of request/reply packet pairs (each pair
 * reversing direction, the pattern of a fetch) through @p cached,
 * which keeps its route table, and through @p fresh, whose table is
 * dropped by re-installing @p domain before every packet, so every
 * packet is routed from scratch.  Both must agree packet by packet
 * and in every stat.
 */
void
expectTableMatchesFreshRoutes(sim::FaultDomain *domain)
{
    Torus cached(smallTorus());
    Torus fresh(smallTorus());
    cached.setFaults(domain);
    sim::Rng rng(11);
    Tick t = 0;
    for (int i = 0; i < 2000; ++i) {
        const NodeId a = static_cast<NodeId>(rng.below(8));
        NodeId b = static_cast<NodeId>(rng.below(8));
        if (a == b)
            b = (b + 1) % 8;
        // A few pairs repeat often enough to hit the table hot.
        const NodeId src = i % 3 == 0 ? 0 : a;
        const NodeId dst = i % 3 == 0 ? 5 : b;
        t += rng.below(200000);
        for (const auto &[s, d] : {std::pair{src, dst}, {dst, src}}) {
            fresh.setFaults(domain);
            const PacketResult want = fresh.send(s, d, 64, t);
            const PacketResult got = cached.send(s, d, 64, t);
            ASSERT_EQ(got.injected, want.injected) << "packet " << i;
            ASSERT_EQ(got.arrived, want.arrived) << "packet " << i;
            ASSERT_EQ(got.hops, want.hops) << "packet " << i;
        }
    }
    EXPECT_EQ(statsDump(cached), statsDump(fresh));
}

TEST(TorusRouteTable, AlternatingDirectionsMatchFreshRoutes)
{
    expectTableMatchesFreshRoutes(nullptr);
}

TEST(TorusRouteTable, DetoursCountedPerSendFromTheTable)
{
    const sim::FaultPlan plan = sim::FaultPlan::parse(
        "link-down:router=0,dir=+x;link-slow:router=5,dir=-y,factor=3");
    sim::FaultDomain dom(plan);
    expectTableMatchesFreshRoutes(&dom);
}

TEST(TorusRouteTable, SetFaultsReroutesAKnownPair)
{
    Torus t(smallTorus());
    EXPECT_EQ(t.send(0, 1, 64, 0).hops, 1);
    // Cutting the link the stored 0 -> 1 route uses must reroute it.
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("link-down:router=0,dir=+x");
    sim::FaultDomain dom(plan);
    t.setFaults(&dom);
    EXPECT_EQ(t.send(0, 1, 64, 0).hops, 3);
    EXPECT_EQ(t.send(0, 1, 64, 0).hops, 3);
    EXPECT_EQ(faultStat(t, "detours"), 2.0);
    // Clearing the faults restores the shortest route.
    t.setFaults(nullptr);
    EXPECT_EQ(t.send(0, 1, 64, 0).hops, 1);
    EXPECT_EQ(faultStat(t, "detours"), 2.0);
}

TEST(TorusRouteTable, UnroutablePairThrowsEverySendWithoutPoisoning)
{
    const sim::FaultPlan plan = sim::FaultPlan::parse(
        "link-down:router=0,dir=+x;link-down:router=0,dir=-x");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    Torus fresh(smallTorus()); // routes every packet from scratch
    t.setFaults(&dom);
    for (int round = 0; round < 3; ++round) {
        const Tick at = static_cast<Tick>(round) * 1000000;
        // The failed lookup leaves no entry: every send throws again.
        fresh.setFaults(&dom);
        EXPECT_THROW(fresh.send(0, 1, 64, at), sim::FaultError);
        EXPECT_THROW(t.send(0, 1, 64, at), sim::FaultError);
        // Pairs that do route are unaffected: the y ring out of
        // router 0, x traffic into router 0, and an unrelated ring.
        for (const auto &[s, d] : {std::pair{0, 4}, {1, 0}, {2, 3}}) {
            fresh.setFaults(&dom);
            const PacketResult want = fresh.send(s, d, 64, at);
            const PacketResult got = t.send(s, d, 64, at);
            EXPECT_EQ(got.arrived, want.arrived);
            EXPECT_EQ(got.hops, want.hops);
        }
    }
    EXPECT_EQ(statsDump(t), statsDump(fresh));
}

TEST(TorusFaults, UnrelatedPlanPerturbsNothing)
{
    // A plan with no link or NIC specs must leave the torus on its
    // fault-free fast path.
    const sim::FaultPlan plan =
        sim::FaultPlan::parse("dram-stall:prob=1,extra=100");
    sim::FaultDomain dom(plan);
    Torus t(smallTorus());
    t.setFaults(&dom);
    Torus healthy(smallTorus());
    for (int dst = 1; dst < t.numNodes(); ++dst)
        EXPECT_EQ(t.send(0, dst, 256, 0).arrived,
                  healthy.send(0, dst, 256, 0).arrived);
    EXPECT_EQ(faultStat(t, "detours"), 0.0);
    EXPECT_EQ(faultStat(t, "slowTicks"), 0.0);
}

} // namespace
