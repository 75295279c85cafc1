/**
 * @file
 * Stream detection / read-ahead logic.
 *
 * The Cray T3D has "external read-ahead logic that can be turned on/off
 * at program load time" (paper Section 3.2); the T3E replaces the L3
 * cache with stream buffers (Section 3.3); and the DEC 8400 memory has
 * "modest stream support for large contiguous transfers" (Section 3.1).
 *
 * This unit watches the line-fill address stream.  After `threshold`
 * sequential fills it declares a stream; fills covered by an active
 * stream are issued decoupled from the processor (latency hidden), so
 * their rate is bounded by DRAM/bus occupancy, not the round trip.
 */

#ifndef GASNUB_MEM_STREAM_HH
#define GASNUB_MEM_STREAM_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/** Static configuration of the stream/read-ahead unit. */
struct StreamConfig
{
    std::string name = "streams";
    bool enabled = true;
    std::uint32_t streams = 1;   ///< concurrent streams tracked
    std::uint32_t threshold = 2; ///< sequential fills before active
    /**
     * Entries in the allocation filter: a stream buffer is only
     * allocated after a fill sequentially follows a filter entry, so
     * isolated misses (write allocations, pointer chases) cannot
     * steal live stream slots.  At most 64; 0 acts as 1.
     */
    std::uint32_t filterEntries = 16;
};

/** What the detector says about one line fill. */
struct StreamHit
{
    bool covered = false; ///< fill is prefetched by an active stream
    std::uint32_t slot = 0;
};

/**
 * Sequential-stream detector with a small fully-associative table of
 * stream slots behind an allocation filter.
 *
 * The filter is a struct of arrays: entry i expects line
 * `_candNext[i]` while bit i of `_candValid` is set, and `_candOrder`
 * is a ring of the valid entries' indices in insertion order.  A fill
 * matches the lowest valid entry expecting it (one compare per entry
 * into a bitmask, then the lowest set bit — the first match in index
 * order, which matters because two entries can expect the same
 * line).  A new candidate replaces the lowest invalid entry, else the
 * ring's front: an entry's age is fixed when it is inserted, so
 * insertion order is LRU order.  `ReadAheadOracle`
 * (tests/mem/test_stream_wbq.cc) checks every fill against a table
 * that scans its entries in index order.
 */
class ReadAhead
{
  public:
    /**
     * @param config Detector parameters.
     * @param parent Stats group to register under (may be null).
     */
    explicit ReadAhead(const StreamConfig &config,
                       stats::Group *parent = nullptr);

    /**
     * Observe a demand line fill.
     *
     * @param line_addr Aligned address of the line being filled.
     * @param line_bytes Line size (stride of a sequential stream).
     * @return whether the fill was covered and by which slot.
     */
    StreamHit note(Addr line_addr, std::uint32_t line_bytes);

    /**
     * Timestamp bookkeeping for the decoupled pipeline: the start time
     * of the previous fill in @p slot, used by the hierarchy as the
     * earliest issue time of the next prefetched fill.
     */
    Tick lastStart(std::uint32_t slot) const;
    void setLastStart(std::uint32_t slot, Tick t);

    bool enabled() const { return _config.enabled; }

    /** Enable/disable at "program load time" as on the T3D. */
    void setEnabled(bool on) { _config.enabled = on; }

    /** Forget all streams (between experiments / at sync points). */
    void reset();

    stats::Group &statsGroup() { return _stats; }

    std::uint64_t coveredFills() const
    {
        return static_cast<std::uint64_t>(_covered.value());
    }

  private:
    struct Slot
    {
        Addr nextLine = 0;
        std::uint32_t run = 0;
        std::uint64_t lru = 0;
        Tick lastStart = 0;
        bool valid = false;
    };

    /** Remove filter entry @p entry from the insertion-order ring. */
    void dropFromOrder(std::uint32_t entry);

    StreamConfig _config;
    std::vector<Slot> _slots;

    // Allocation filter (potential streams); see the class comment.
    // Entries past _candEntries are never valid.
    static constexpr std::uint32_t kMaxFilterEntries = 64;
    std::uint32_t _candEntries = 0;
    std::array<Addr, kMaxFilterEntries> _candNext{};
    /** Ring of the valid entries, oldest at _orderHead. */
    std::array<std::uint8_t, kMaxFilterEntries> _candOrder{};
    std::uint64_t _candValid = 0; ///< bit i: entry i is valid
    std::uint64_t _candAll = 0;   ///< one bit per entry
    std::uint32_t _orderHead = 0;
    std::uint32_t _orderSize = 0;
    std::uint64_t _lruClock = 0; ///< stamps the stream slots' LRU age

    stats::Group _stats;
    stats::Scalar _fills;
    stats::Scalar _covered;
    stats::Formula _coverage;
};

} // namespace gasnub::mem

#endif // GASNUB_MEM_STREAM_HH
