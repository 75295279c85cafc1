#include "kernels/kernels.hh"

#include <algorithm>

#include "mem/access.hh"
#include "sim/logging.hh"
#include "sim/units.hh"

namespace gasnub::kernels {

namespace {

/** Sum of all cache capacities in the hierarchy. */
std::uint64_t
totalCacheBytes(const mem::HierarchyConfig &config)
{
    std::uint64_t total = 0;
    for (const auto &lc : config.levels)
        total += lc.cache.sizeBytes;
    return total;
}

/** Round @p v down to a multiple of @p m (at least m). */
std::uint64_t
roundDown(std::uint64_t v, std::uint64_t m)
{
    const std::uint64_t r = v / m * m;
    return r == 0 ? m : r;
}

} // namespace

std::uint64_t
effectiveWorkingSet(const mem::MemoryHierarchy &mem,
                    const KernelParams &p)
{
    GASNUB_ASSERT(p.wsBytes >= wordBytes, "working set too small");
    const std::uint64_t caches = totalCacheBytes(mem.config());
    std::uint64_t cap = p.capBytes;
    if (cap == 0)
        cap = std::max<std::uint64_t>(4 * caches, 4_MiB);
    // Only truncate deep in the capacity-miss regime, where behaviour
    // is stride-pattern periodic and independent of the set size.
    if (p.wsBytes > cap && p.wsBytes > 4 * caches)
        return roundDown(cap, p.stride * wordBytes);
    return p.wsBytes;
}

void
primeSweep(mem::MemoryHierarchy &mem, const KernelParams &p,
           const mem::StridedSweep &sweep)
{
    if (!p.prime ||
        effectiveWorkingSet(mem, p) > 2 * totalCacheBytes(mem.config()))
        return;
    mem::forEachBlock(sweep, [&mem](const Addr *a, std::size_t n) {
        mem.primeBatch(a, n);
    });
}

void
copySweeps(mem::MemoryHierarchy &mem, const mem::StridedSweep &loads,
           const mem::StridedSweep &stores)
{
    // A copy pairs one load with one store per element, so each batch
    // holds half a batch of each.
    constexpr std::size_t kPairWords = mem::AccessBatch::kCapacity / 2;
    mem::StridedSweep::Cursor sc(stores);
    mem::forEachBlock(
        loads,
        [&mem, &sc](const Addr *lbuf, std::size_t n) {
            Addr sbuf[kPairWords];
            const std::size_t m = sc.fill(sbuf, n);
            GASNUB_ASSERT(m == n, "copy sweeps out of step");
            mem::AccessBatch ab;
            for (std::size_t k = 0; k < n; ++k) {
                ab.push(lbuf[k], mem::AccessType::Read);
                ab.push(sbuf[k], mem::AccessType::Write);
            }
            mem.processBatch(ab);
        },
        kPairWords);
}

namespace {

/**
 * Shared driver: reset, prime, then time @p measure over the strided
 * sweep of @p p up to the final drain.
 */
template <typename Measure>
KernelResult
runSweep(mem::MemoryHierarchy &mem, const KernelParams &p,
         Measure &&measure)
{
    const std::uint64_t words = effectiveWorkingSet(mem, p) / wordBytes;
    const mem::StridedSweep sweep(p.base, words, p.stride);

    mem.resetAll();
    primeSweep(mem, p, sweep);
    mem.resetTiming();

    measure(sweep);
    const Tick elapsed = mem.drain();

    KernelResult res;
    res.accesses = words;
    res.bytes = words * wordBytes;
    res.elapsed = elapsed;
    res.mbs = bandwidthMBs(res.bytes, std::max<Tick>(elapsed, 1));
    return res;
}

} // namespace

KernelResult
loadSum(mem::MemoryHierarchy &mem, const KernelParams &p)
{
    return runSweep(mem, p, [&mem](const mem::StridedSweep &sweep) {
        mem::forEachBlock(sweep, [&mem](const Addr *a, std::size_t n) {
            mem.readBatch(a, n);
        });
    });
}

KernelResult
storeConstant(mem::MemoryHierarchy &mem, const KernelParams &p)
{
    // Stores do not benefit from a read-primed cache; prime anyway for
    // symmetry (the paper's stores confirmed write-back behaviour).
    return runSweep(mem, p, [&mem](const mem::StridedSweep &sweep) {
        mem::forEachBlock(sweep, [&mem](const Addr *a, std::size_t n) {
            mem.writeBatch(a, n);
        });
    });
}

KernelResult
copy(mem::MemoryHierarchy &mem, const KernelParams &p,
     CopyVariant variant, Addr dst_base)
{
    const std::uint64_t ws = effectiveWorkingSet(mem, p);
    GASNUB_ASSERT(dst_base >= p.base + ws || p.base >= dst_base + ws,
                  "copy regions overlap");
    KernelParams q = p;
    // Copy transfers in the paper's Section 6 use the basic model:
    // large transfers, no temporal reuse, cold caches.
    q.prime = false;
    // Pin the (possibly capped) working set so the load and store
    // sweeps agree on the element count.
    q.wsBytes = ws;
    // The strided side visits its region in stride passes; the
    // contiguous side pairs its i-th word with the i-th strided one.
    q.stride = variant == CopyVariant::StridedLoads ? p.stride : 1;
    const mem::StridedSweep stores(
        dst_base, ws / wordBytes,
        variant == CopyVariant::StridedStores ? p.stride : 1);

    KernelResult res =
        runSweep(mem, q, [&mem, &stores](const mem::StridedSweep &loads) {
            copySweeps(mem, loads, stores);
        });
    res.accesses *= 2; // a load and a store per element
    return res;
}

} // namespace gasnub::kernels
