/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: host-side
 * throughput of the core components (cache probes, hierarchy
 * accesses, the backfill calendar, torus packets, event queue).  These guard
 * against performance regressions in the simulation engine — the
 * figure benches sweep hundreds of grid points and depend on them.
 */

#include <benchmark/benchmark.h>

#include "fft/fft1d.hh"
#include "machine/configs.hh"
#include "machine/machine.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/resource.hh"
#include "noc/torus.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/units.hh"

namespace {

using namespace gasnub;

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = 96_KiB;
    cfg.lineBytes = 64;
    cfg.assoc = 3;
    cfg.writePolicy = mem::WritePolicy::WriteBack;
    cfg.allocPolicy = mem::AllocPolicy::ReadWriteAllocate;
    mem::Cache cache(cfg);
    sim::Rng rng(1);
    for (auto _ : state) {
        const Addr a = rng.below(1_MiB) & ~7ull;
        benchmark::DoNotOptimize(
            cache.access(a, mem::AccessType::Read));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyReadStream(benchmark::State &state)
{
    mem::MemoryHierarchy m(machine::crayT3eNode("bm"));
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.read(a));
        a += 8;
        if (a >= 32_MiB) {
            a = 0;
            m.resetTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyReadStream);

void
BM_HierarchyStridedReads(benchmark::State &state)
{
    mem::MemoryHierarchy m(machine::dec8400Node("bm"));
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.read(a));
        a += 8 * 32;
        if (a >= 32_MiB) {
            a = 0;
            m.resetTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyStridedReads);

void
BM_ResourceBackfill(benchmark::State &state)
{
    // Two interleaved flows on one backfill calendar at the default
    // horizon, the pattern of a t3d fetch: the request flow runs ahead
    // and leaves idle gaps, the reply flow trails it by a few thousand
    // gaps and claims time inside them, splitting a gap deep in the
    // calendar on every call.
    mem::Resource r;
    r.enableBackfill();
    sim::Rng rng(3);
    const Tick lag = 200000;
    Tick request = lag;
    Tick reply = 0;
    for (auto _ : state) {
        request += 40 + rng.below(40);
        benchmark::DoNotOptimize(r.acquire(request, 20));
        const Tick trail = request - lag + rng.below(1000);
        reply = trail > reply ? trail : reply;
        benchmark::DoNotOptimize(r.acquire(reply, 10));
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ResourceBackfill);

void
BM_TorusPacket(benchmark::State &state)
{
    noc::Torus torus(machine::t3eTorusConfig(64));
    sim::Rng rng(2);
    Tick t = 0;
    for (auto _ : state) {
        const NodeId src = static_cast<NodeId>(rng.below(64));
        NodeId dst = static_cast<NodeId>(rng.below(64));
        if (dst == src)
            dst = (dst + 1) % 64;
        benchmark::DoNotOptimize(torus.send(src, dst, 64, t));
        t += 10000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TorusPacket);

void
BM_EventQueue(benchmark::State &state)
{
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(q.now() + 1 + (i * 7) % 32,
                       [&sink] { ++sink; });
        q.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueue);

void
BM_RemoteDepositBlock(benchmark::State &state)
{
    machine::Machine m(machine::SystemKind::CrayT3E, 4);
    remote::TransferRequest req;
    req.src = 0;
    req.dst = 1;
    req.srcAddr = 0;
    req.dstAddr = 1ull << 33;
    req.words = 512;
    Tick t = 0;
    for (auto _ : state) {
        t = m.remote().transfer(req, remote::TransferMethod::Deposit,
                                t);
        if (t > 1ull << 40) {
            m.resetTiming();
            t = 0;
        }
    }
    state.SetItemsProcessed(state.iterations() * req.words);
}
BENCHMARK(BM_RemoteDepositBlock);

void
BM_Fft1d(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<fft::Complex> data(n, fft::Complex(1.0, -0.5));
    for (auto _ : state) {
        fft::fft(data.data(), n, false);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft1d)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
