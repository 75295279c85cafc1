/**
 * @file
 * The shared memory subsystem of the DEC 8400: interleaved DRAM behind
 * a 256-bit, 75 MHz split-transaction snooping bus with a coherency
 * protocol close to sequential consistency (paper Sections 2 and 3.1).
 *
 * A line-granular directory (functionally equivalent to bus snooping
 * with free broadcast) tracks which processor holds a line dirty.
 * Reads of a line dirty in another processor's caches are served by a
 * cache-to-cache intervention; read-exclusive fills invalidate other
 * copies; writebacks return ownership to memory.  "The DEC 8400 does
 * not have support for pushing data into memory or caches of a remote
 * processor" — all communication is pulling, through this path.
 */

#ifndef GASNUB_BUS_DEC8400_MEMORY_HH
#define GASNUB_BUS_DEC8400_MEMORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/resource.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace gasnub::bus {

/** Static configuration of the 8400 system bus. */
struct BusConfig
{
    std::string name = "bus";
    double arbNs = 40;          ///< arbitration + address phase
    double snoopNs = 45;        ///< snoop window before data phase
    /**
     * Extra cost of a cache-to-cache intervention: the owning board's
     * L3 must be read and the data driven onto the bus.
     */
    double interventionNs = 180;
    /**
     * Extra latency when reading a line most recently written by a
     * different processor (coherence bookkeeping on shared data even
     * after the dirty copy was written back).
     */
    double sharedLineNs = 75;
    std::uint32_t lineBytes = 64; ///< coherence granularity
};

/**
 * Shared DRAM + snooping bus + coherence directory for one 8400 box.
 *
 * Attach the per-processor hierarchies with attach(); this installs a
 * memory-side hook so every off-chip fill of every processor is routed
 * through the bus and directory.
 */
class Dec8400Memory
{
  public:
    /**
     * @param bus_config  Bus timing.
     * @param dram_config Shared-memory timing (split-transaction).
     * @param parent      Stats group to register under (may be null).
     */
    Dec8400Memory(const BusConfig &bus_config,
                  const mem::DramConfig &dram_config,
                  stats::Group *parent = nullptr);

    /**
     * Attach processor @p id; installs the DRAM hook on @p h.
     * @param id Node id (0-based, dense).
     * @param h  The processor's memory hierarchy; must outlive this.
     */
    void attach(NodeId id, mem::MemoryHierarchy *h);

    /** The shared DRAM (for tests and the loaded-machine bench). */
    mem::Dram &dram() { return _dram; }

    /**
     * Attach the machine's time account; address-phase occupancy
     * charges @p addrBus (the shared DRAM behind the bus is wired
     * separately, under the "bus.dram.*" resource classes).
     */
    void
    setTimeAccount(sim::TimeAccount *acct,
                   sim::TimeAccount::ResId addrBus)
    {
        _acct = acct;
        _addrRes = addrBus;
    }

    /** Reset bus/DRAM timing state (between experiments). */
    void resetTiming();

    /** Also forget all coherence state. */
    void resetAll();

    const BusConfig &config() const { return _config; }

    stats::Group &statsGroup() { return _stats; }

    std::uint64_t interventions() const
    {
        return static_cast<std::uint64_t>(_interventions.value());
    }
    std::uint64_t invalidations() const
    {
        return static_cast<std::uint64_t>(_invalidationsSent.value());
    }

  private:
    /** One bus transaction on behalf of @p requester. */
    mem::DramResult access(NodeId requester, Addr addr,
                           mem::FetchIntent intent, Tick earliest,
                           std::uint32_t bytes);

    /**
     * State-only replay of a priming read fill for @p requester: the
     * directory/ownership updates of the Read intent of access(),
     * with no bus or DRAM time charged and no transactions counted
     * (MemoryHierarchy::primeBatch calls this through the prime hook).
     */
    void primeFill(NodeId requester, Addr addr);

    /** Per-line directory entry. */
    struct LineState
    {
        std::uint32_t sharers = 0; ///< bitmask of nodes with a copy
        NodeId dirtyOwner = invalidNode;
        NodeId lastWriter = invalidNode;
    };

    /**
     * Paged, direct-indexed line directory.  Lines live in dense
     * pages of 2^12 LineStates (a line's page is its address shifted
     * by log2(lineBytes) + 12); a small open-addressing table maps
     * page numbers to pages, behind a two-entry cache of the last
     * pages used — a copy alternates between a source and a
     * destination region, so one entry would miss on every line.
     * clear() is O(1): it bumps an epoch, and a page from an older
     * epoch is reset to LineState{} the first time it is touched
     * again.  An absent line reads as LineState{}, and nothing
     * iterates or counts the entries, so the directory's layout can
     * never show in the model's results.
     */
    class LineDir
    {
      public:
        /** @param line_bytes Coherence granularity (a power of two). */
        explicit LineDir(std::uint32_t line_bytes);

        /** The entry for aligned address @p line. */
        LineState &operator[](Addr line)
        {
            const Addr index = line >> _lineShift;
            const Addr page = index >> kPageBits;
            const std::size_t offset =
                static_cast<std::size_t>(index & (kPageLines - 1));
            if (_recent[0].page == page)
                return _recent[0].lines[offset];
            if (_recent[1].page == page)
                return _recent[1].lines[offset];
            return pageFor(page)[offset];
        }

        /** Forget all coherence state (pages are retained). */
        void clear();

      private:
        static constexpr unsigned kPageBits = 12;
        static constexpr std::size_t kPageLines = std::size_t{1}
                                                  << kPageBits;
        static constexpr std::size_t kInitialTableSlots = 64;
        /** Page number no address maps to: marks empty slots. */
        static constexpr Addr kNoPage = ~Addr{0};

        struct Page
        {
            std::uint64_t epoch = 0;
            LineState lines[kPageLines];
        };

        struct TableSlot
        {
            Addr page = kNoPage;
            Page *data = nullptr;
        };

        struct Recent
        {
            Addr page = kNoPage;
            LineState *lines = nullptr;
        };

        /** Slow path: find or create @p page, refresh it, cache it. */
        LineState *pageFor(Addr page);

        std::size_t slotOf(Addr page) const
        {
            // Fibonacci hashing: page numbers of one region are
            // consecutive, regions sit 2^33 bytes apart.
            return static_cast<std::size_t>(
                (page * 0x9e3779b97f4a7c15ULL) >> _tableShift);
        }

        void growTable();

        unsigned _lineShift;
        std::vector<std::unique_ptr<Page>> _pages;
        std::vector<TableSlot> _table;
        unsigned _tableShift; ///< 64 - log2(_table.size())
        std::uint64_t _epoch = 0;
        Recent _recent[2];
        unsigned _recentVictim = 0; ///< next _recent entry to replace
    };

    Addr lineOf(Addr addr) const
    {
        return addr & ~static_cast<Addr>(_config.lineBytes - 1);
    }

    BusConfig _config;
    Tick _arbTicks;
    Tick _snoopTicks;
    Tick _interventionTicks;
    Tick _sharedLineTicks;

    mem::Dram _dram;
    mem::Resource _addressBus;
    sim::TimeAccount *_acct = nullptr;
    sim::TimeAccount::ResId _addrRes = 0;
    std::vector<mem::MemoryHierarchy *> _nodes;
    LineDir _dir;

    stats::Group _stats;
    stats::Scalar _transactions;
    stats::Scalar _interventions;
    stats::Scalar _invalidationsSent;
    stats::Scalar _memoryReads;
    stats::Scalar _memoryWrites;
    stats::IntervalBandwidth _bandwidth;
    trace::TrackId _traceTrack;
};

} // namespace gasnub::bus

#endif // GASNUB_BUS_DEC8400_MEMORY_HH
