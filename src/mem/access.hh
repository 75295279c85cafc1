/**
 * @file
 * Memory access descriptors and the strided access-pattern generators
 * used by the paper's micro-benchmarks (Section 4.2).
 *
 * The benchmarks operate on 64-bit double words.  A "pattern" visits
 * every word of a working set exactly once: for a stride s, the region
 * is swept in s passes, pass o visiting words o, o+s, o+2s, ... This is
 * the classic strided-bandwidth loop nest and is what gives the
 * stride-axis slope in Figures 1-8 of the paper.
 */

#ifndef GASNUB_MEM_ACCESS_HH
#define GASNUB_MEM_ACCESS_HH

#include <array>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/** The kind of memory operation. */
enum class AccessType { Read, Write };

/** One 64-bit-word memory access. */
struct MemAccess
{
    Addr addr;
    AccessType type;
};

/**
 * A struct-of-arrays block of accesses, the unit the kernels hand to
 * MemoryHierarchy::processBatch().  Batching lets the hierarchy hoist
 * the per-access profiler zone and stats increments out of the loop
 * (doubles used as counters stay exact under a single `+= n` below
 * 2^53, so batched stats are bit-identical to per-access updates).
 */
struct AccessBatch
{
    static constexpr std::size_t kCapacity = 512;

    std::array<Addr, kCapacity> addrs;
    std::array<AccessType, kCapacity> kinds;
    std::array<std::uint8_t, kCapacity> sizes; ///< bytes per access
    std::size_t count = 0;

    bool full() const { return count == kCapacity; }
    bool empty() const { return count == 0; }
    void clear() { count = 0; }

    void
    push(Addr a, AccessType t,
         std::uint8_t bytes = static_cast<std::uint8_t>(wordBytes))
    {
        GASNUB_ASSERT(count < kCapacity, "AccessBatch overflow");
        addrs[count] = a;
        kinds[count] = t;
        sizes[count] = bytes;
        ++count;
    }
};

/**
 * Generator for the paper's strided sweep: all words of
 * [base, base + words*8) exactly once, in s passes of stride s.
 *
 * Iteration order (stride s, W words):
 *   pass 0: base+0, base+8s, base+16s, ...
 *   pass 1: base+8, base+8s+8, ...
 *   ...
 * Words beyond the last full stride multiple are still visited (the
 * per-pass trip count accounts for the region tail).
 */
class StridedSweep
{
  public:
    /**
     * @param base  Byte address of the first word (8-byte aligned).
     * @param words Number of 64-bit words in the working set (>= 1).
     * @param stride Stride in words between consecutive accesses (>=1).
     */
    StridedSweep(Addr base, std::uint64_t words, std::uint64_t stride)
        : _base(base), _words(words), _stride(stride)
    {
        GASNUB_ASSERT(base % wordBytes == 0, "unaligned base");
        GASNUB_ASSERT(words >= 1, "empty working set");
        GASNUB_ASSERT(stride >= 1, "stride must be >= 1");
        // The first `longPasses` passes have `perPassLong` elements,
        // the rest one fewer; precomputed once so neither operator[]
        // nor Cursor::fill divides per access.
        _perPassLong = (words + stride - 1) / stride;
        const std::uint64_t rem = words % stride;
        _longPasses = rem == 0 ? stride : rem;
        _longTotal = _longPasses * _perPassLong;
    }

    /** Total number of accesses the sweep generates (== words). */
    std::uint64_t size() const { return _words; }

    /** Stride in words. */
    std::uint64_t stride() const { return _stride; }

    /**
     * Address of the i-th access in sweep order.
     * @param i Access index in [0, size()).
     */
    Addr
    operator[](std::uint64_t i) const
    {
        std::uint64_t pass, idx;
        if (i < _longTotal) {
            pass = i / _perPassLong;
            idx = i % _perPassLong;
        } else {
            const std::uint64_t j = i - _longTotal;
            const std::uint64_t per_pass_short = _perPassLong - 1;
            pass = _longPasses + j / per_pass_short;
            idx = j % per_pass_short;
        }
        const std::uint64_t word = pass + idx * _stride;
        return _base + word * wordBytes;
    }

    /**
     * Forward-only iteration state emitting addresses in blocks.
     * fill() walks pass/index counters directly, so the per-access
     * divisions of operator[] disappear from the sweep inner loop —
     * the "sweep.localLoads;point" self-time named by --profile.
     */
    class Cursor
    {
      public:
        explicit Cursor(const StridedSweep &s) : _s(&s) {}

        /**
         * Append up to @p max addresses, in sweep order, to @p out.
         * @return the number written; 0 once the sweep is exhausted.
         */
        std::size_t
        fill(Addr *out, std::size_t max)
        {
            std::size_t n = 0;
            const Addr step = _s->_stride * wordBytes;
            while (n < max && _emitted < _s->_words) {
                const std::uint64_t len = _pass < _s->_longPasses
                                              ? _s->_perPassLong
                                              : _s->_perPassLong - 1;
                Addr a = _s->_base +
                         (_pass + _idx * _s->_stride) * wordBytes;
                while (n < max && _idx < len) {
                    out[n++] = a;
                    a += step;
                    ++_idx;
                    ++_emitted;
                }
                if (_idx == len) {
                    _idx = 0;
                    ++_pass;
                }
            }
            return n;
        }

        /** Accesses emitted so far. */
        std::uint64_t emitted() const { return _emitted; }

      private:
        const StridedSweep *_s;
        std::uint64_t _pass = 0;
        std::uint64_t _idx = 0;
        std::uint64_t _emitted = 0;
    };

  private:
    Addr _base;
    std::uint64_t _words;
    std::uint64_t _stride;
    std::uint64_t _perPassLong;
    std::uint64_t _longPasses;
    std::uint64_t _longTotal;
};

/**
 * Walk @p sweep in Cursor order, handing @p block (addrs, count) runs
 * of at most @p max_words addresses — the unit the batched
 * MemoryHierarchy calls consume.
 */
template <typename Block>
void
forEachBlock(const StridedSweep &sweep, Block &&block,
             std::size_t max_words = AccessBatch::kCapacity)
{
    GASNUB_ASSERT(max_words <= AccessBatch::kCapacity,
                  "block larger than a batch");
    StridedSweep::Cursor cur(sweep);
    Addr buf[AccessBatch::kCapacity];
    while (const std::size_t n = cur.fill(buf, max_words))
        block(buf, n);
}

} // namespace gasnub::mem

#endif // GASNUB_MEM_ACCESS_HH
