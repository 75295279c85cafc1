/**
 * @file
 * Timing primitives for the pipelined-cost memory model: a calendar
 * Resource (a port, a DRAM bank, a link) and a bounded
 * OutstandingWindow that models limited memory-level parallelism
 * (hit-under-miss / miss-under-miss capacity of the processor).
 *
 * A Resource is by default a simple busy-until timeline (requests
 * served in call order).  Resources shared by *concurrent flows* —
 * DRAM channels serving the local processor and the network engine,
 * torus links, NIC ports, the 8400 bus — enable backfill: the
 * calendar remembers recent idle gaps so a flow whose requests carry
 * earlier timestamps can claim time the other flow left unused,
 * instead of being falsely serialized behind it.
 */

#ifndef GASNUB_MEM_RESOURCE_HH
#define GASNUB_MEM_RESOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/**
 * A unit that can serve one request at a time, with optional
 * gap-backfill for concurrent flows.
 *
 * The backfill calendar is a blocked gap list: live gaps stay in time
 * order, packed into fixed blocks of kBlockGaps entries, and an ordered
 * index holds each block with the end of its last gap.  Gaps are
 * disjoint and appended after the busy tail, so their end times
 * increase along the list; the first gap that can hold a request is
 * found by a binary search over the index and one inside a block, and
 * a split or erase moves at most one block's entries.  Each block
 * keeps an upper bound on its longest gap, so a first-fit scan steps
 * over whole blocks that cannot hold the request.  Freed blocks are
 * reused, so the single-flow append path (one gap in, one oldest gap
 * out) is O(1) and allocation-free in steady state.
 */
class Resource
{
  public:
    /**
     * Enable backfill: keep up to @p max_gaps recent idle intervals
     * and allow later acquire() calls with earlier timestamps to use
     * them. Deterministic; single-flow callers are unaffected.
     */
    void
    enableBackfill(std::size_t max_gaps = 16384)
    {
        _maxGaps = max_gaps;
    }

    /**
     * Reserve the resource.
     * @param earliest Earliest tick the request may start.
     * @param occupancy How long the resource stays busy.
     * @return the tick at which service actually starts.
     */
    Tick
    acquire(Tick earliest, Tick occupancy)
    {
        // The last gap ends latest, so a window ending after it cannot
        // fit anywhere and a single flow never touches the calendar.
        if (earliest + occupancy <= _lastEnd && _live != 0) {
            Tick start;
            if (claimFirstFit(earliest, occupancy, start))
                return start;
        }

        const Tick start = earliest > _busyUntil ? earliest
                                                 : _busyUntil;
        if (_maxGaps != 0 && start > _busyUntil && _busyUntil > 0) {
            append(Gap{_busyUntil, start});
            // Drop exactly one oldest gap per append.  Splits may have
            // pushed the live count past the horizon; it then stays
            // there, which the calibrated surfaces depend on.
            if (_live > _maxGaps)
                popOldest();
        }
        _busyUntil = start + occupancy;
        return start;
    }

    /** Next tick at which the resource is free (calendar tail). */
    Tick freeAt() const { return _busyUntil; }

    /** Forget all reservations (between experiments). */
    void
    reset()
    {
        _busyUntil = 0;
        for (std::size_t k = _head; k < _order.size(); ++k)
            _free.push_back(_order[k].block);
        _order.clear();
        _head = 0;
        _live = 0;
        _lastEnd = 0;
    }

  private:
    struct Gap
    {
        Tick start;
        Tick end;
    };

    static constexpr std::uint32_t kBlockGaps = 64;

    /** Gaps gap[lo, hi) in time order; never empty while indexed. */
    struct Block
    {
        std::uint32_t lo;
        std::uint32_t hi;
        Tick maxLen; ///< upper bound on the gap lengths
        Gap gap[kBlockGaps];
    };

    /**
     * Index entry: a block and the end of its last gap.  The last
     * slot's end is not kept up to date (appends would pay for it);
     * _lastEnd holds it.
     */
    struct Slot
    {
        Tick end;
        Block *block;
    };

    Block *
    allocBlock()
    {
        Block *b;
        if (!_free.empty()) {
            b = _free.back();
            _free.pop_back();
        } else {
            _pool.push_back(std::make_unique<Block>());
            b = _pool.back().get();
        }
        b->lo = 0;
        b->hi = 0;
        b->maxLen = 0;
        return b;
    }

    /** Re-read slot k's end after its block's last gap changed. */
    void
    refreshEnd(std::size_t k)
    {
        const Block &b = *_order[k].block;
        _order[k].end = b.gap[b.hi - 1].end;
    }

    void
    append(const Gap &g)
    {
        Block *b = _tail;
        if (_live == 0 || b->hi == kBlockGaps) {
            if (_live != 0)
                _order.back().end = _lastEnd;
            b = allocBlock();
            if (_live == 0)
                _headBlock = b;
            _order.push_back(Slot{0, b});
            _tail = b;
        }
        b->gap[b->hi++] = g;
        if (g.end - g.start > b->maxLen)
            b->maxLen = g.end - g.start;
        _lastEnd = g.end;
        ++_live;
    }

    void
    popOldest()
    {
        Block &b = *_headBlock;
        if (++b.lo == b.hi)
            dropBlock(_head);
        --_live;
    }

    /**
     * Retire the emptied block at index k.  The first block goes by a
     * head-index bump, with the dead prefix compacted away once it
     * outgrows the live part, so the single-flow path stays amortized
     * O(1).
     */
    void
    dropBlock(std::size_t k)
    {
        _free.push_back(_order[k].block);
        if (k != _head) {
            _order.erase(_order.begin() + static_cast<long>(k));
            return;
        }
        ++_head;
        if (_head > _order.size() - _head) {
            _order.erase(_order.begin(),
                         _order.begin() + static_cast<long>(_head));
            _head = 0;
        }
        if (_head != _order.size())
            _headBlock = _order[_head].block;
    }

    /**
     * First fit: the first gap, in time order, in which
     * [max(earliest, gap.start), +occupancy) fits.  Claims that window
     * out of the gap and stores its start in @p start.
     * @pre the calendar is non-empty and earliest + occupancy is no
     *      later than the last gap's end.
     */
    bool
    claimFirstFit(Tick earliest, Tick occupancy, Tick &start)
    {
        const Tick need_end = earliest + occupancy;
        // Gaps ending before need_end cannot hold the window: find the
        // first block whose last gap ends at or after it (the last
        // block always does), then the first such gap inside it.
        std::size_t k = std::partition_point(
                            _order.begin() + static_cast<long>(_head),
                            _order.end() - 1,
                            [need_end](const Slot &s) {
                                return s.end < need_end;
                            }) -
                        _order.begin();
        const std::size_t first = k;
        const Block &fb = *_order[first].block;
        const std::uint32_t first_from = static_cast<std::uint32_t>(
            std::partition_point(fb.gap + fb.lo, fb.gap + fb.hi,
                                 [need_end](const Gap &g) {
                                     return g.end < need_end;
                                 }) -
            fb.gap);
        for (; k < _order.size(); ++k) {
            Block &b = *_order[k].block;
            // No gap longer than maxLen: nothing here can fit.
            if (b.maxLen < occupancy)
                continue;
            const std::uint32_t from = k == first ? first_from : b.lo;
            Tick longest = 0;
            for (std::uint32_t j = from; j < b.hi; ++j) {
                Gap &g = b.gap[j];
                start = earliest > g.start ? earliest : g.start;
                if (start + occupancy > g.end) {
                    if (g.end - g.start > longest)
                        longest = g.end - g.start;
                    continue;
                }
                claim(k, j, start, occupancy);
                if (_live != 0) {
                    _tail = _order.back().block;
                    _lastEnd = _tail->gap[_tail->hi - 1].end;
                }
                return true;
            }
            // A full pass over the block failed: its exact longest gap
            // retightens the bound for later scans.
            if (from == b.lo)
                b.maxLen = longest;
        }
        return false;
    }

    /** Claim [start, start + occupancy) out of gap j of block k. */
    void
    claim(std::size_t k, std::uint32_t j, Tick start, Tick occupancy)
    {
        Gap &g = _order[k].block->gap[j];
        const Tick tail_start = start + occupancy;
        const Tick tail_end = g.end;
        if (start > g.start) {
            g.end = start;
            if (tail_end > tail_start)
                insertAfter(k, j, Gap{tail_start, tail_end});
            else
                refreshEnd(k);
        } else if (tail_end > tail_start) {
            g.start = tail_start;
        } else {
            erase(k, j);
        }
    }

    /** Insert @p g right after gap j of block k. */
    void
    insertAfter(std::size_t k, std::uint32_t j, const Gap &g)
    {
        ++_live;
        Block *b = _order[k].block;
        std::uint32_t pos = j + 1;
        if (b->lo == 0 && b->hi == kBlockGaps) {
            // Full block: move its upper half into a fresh block.
            constexpr std::uint32_t half = kBlockGaps / 2;
            Block *n = allocBlock();
            std::copy(b->gap + half, b->gap + kBlockGaps, n->gap);
            n->hi = half;
            n->maxLen = b->maxLen;
            b->hi = half;
            _order.insert(_order.begin() + static_cast<long>(k) + 1,
                          Slot{0, n});
            if (pos > half) {
                b = n;
                pos -= half;
            }
            refreshEnd(k + 1);
        }
        if (b->hi < kBlockGaps) {
            std::copy_backward(b->gap + pos, b->gap + b->hi,
                               b->gap + b->hi + 1);
            ++b->hi;
        } else {
            std::copy(b->gap + b->lo, b->gap + pos, b->gap + b->lo - 1);
            --b->lo;
            --pos;
        }
        b->gap[pos] = g;
        refreshEnd(k);
        if (_order[k].block != b)
            refreshEnd(k + 1);
    }

    /** Erase gap j of block k, dropping the block if it empties. */
    void
    erase(std::size_t k, std::uint32_t j)
    {
        --_live;
        Block &b = *_order[k].block;
        if (j - b.lo < b.hi - 1 - j) {
            std::copy_backward(b.gap + b.lo, b.gap + j, b.gap + j + 1);
            ++b.lo;
        } else {
            std::copy(b.gap + j + 1, b.gap + b.hi, b.gap + j);
            --b.hi;
        }
        if (b.lo == b.hi)
            dropBlock(k);
        else
            refreshEnd(k);
    }

    Tick _busyUntil = 0;
    Tick _lastEnd = 0; ///< end of the last gap, the latest one
    Block *_headBlock = nullptr; ///< the first block, while _live != 0
    Block *_tail = nullptr;      ///< the last block, while _live != 0
    std::size_t _live = 0; ///< gaps in the calendar
    std::size_t _maxGaps = 0;
    /** Blocks holding live gaps, in time order: _order[_head, size). */
    std::vector<Slot> _order;
    std::size_t _head = 0;
    std::vector<Block *> _free; ///< emptied blocks, reused first
    std::vector<std::unique_ptr<Block>> _pool; ///< owns every block
};

/**
 * Bounded window of outstanding operations.
 *
 * Before issuing a new operation, call admit(): if the window is full,
 * the issue time is pushed back to the completion of the oldest
 * outstanding operation. This yields the classic steady state
 * throughput = max(occupancy, latency / depth) without simulating the
 * pipeline cycle by cycle.
 */
class OutstandingWindow
{
  public:
    /** @param depth Maximum operations in flight (>= 1). */
    explicit OutstandingWindow(std::size_t depth)
        : _depth(depth), _buf(depth + 1)
    {
        GASNUB_ASSERT(depth >= 1, "window depth must be >= 1");
    }

    /**
     * Admit a new operation that wants to issue at @p want.
     * @return the earliest tick the operation may actually issue.
     */
    Tick
    admit(Tick want)
    {
        if (_size < _depth)
            return want;
        const Tick oldest = _buf[_head];
        popFront();
        return want > oldest ? want : oldest;
    }

    /** Record the completion time of the operation just issued. */
    void
    complete(Tick when)
    {
        // Completions are monotone for in-order pipelines; keep the
        // ring sorted even if a caller violates that slightly.
        if (_size != 0) {
            const Tick back = _buf[wrap(_head + _size - 1)];
            if (when < back)
                when = back;
        }
        // Capacity is depth + 1, so one push can never overwrite the
        // live region before the trim below restores size <= depth.
        _buf[wrap(_head + _size)] = when;
        ++_size;
        while (_size > _depth)
            popFront();
    }

    /** Maximum in-flight operations. */
    std::size_t depth() const { return _depth; }

    /** Forget in-flight state (between experiments). */
    void
    reset()
    {
        _head = 0;
        _size = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= _buf.size() ? i - _buf.size() : i;
    }

    void
    popFront()
    {
        _head = wrap(_head + 1);
        --_size;
    }

    std::size_t _depth;
    // In-flight completion times, oldest first, as a fixed ring of
    // depth + 1 slots — admit/complete run once per windowed access.
    std::vector<Tick> _buf;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace gasnub::mem

#endif // GASNUB_MEM_RESOURCE_HH
