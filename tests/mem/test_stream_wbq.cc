/**
 * @file
 * Unit tests for the read-ahead / stream detector and the coalescing
 * write-back queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "mem/stream.hh"
#include "mem/wbq.hh"
#include "sim/logging.hh"

namespace {

using namespace gasnub;
using namespace gasnub::mem;

/**
 * Test-only oracle: the original scanned read-ahead unit, verbatim —
 * an array of filter candidates with valid flags and LRU stamps,
 * matched by a scan in index order and replaced by a second scan that
 * takes the first invalid entry, else the oldest stamp.  mem::ReadAhead
 * must return the same StreamHit for every fill, keep the same
 * lastStart per slot, and count the same stats.
 */
class ReferenceReadAhead
{
  public:
    explicit ReferenceReadAhead(const StreamConfig &config,
                                stats::Group *parent = nullptr);

    StreamHit note(Addr line_addr, std::uint32_t line_bytes);

    Tick lastStart(std::uint32_t slot) const;
    void setLastStart(std::uint32_t slot, Tick t);

    void setEnabled(bool on) { _config.enabled = on; }

    void reset();

    stats::Group &statsGroup() { return _stats; }

  private:
    struct Slot
    {
        Addr nextLine = 0;
        std::uint32_t run = 0;
        std::uint64_t lru = 0;
        Tick lastStart = 0;
        bool valid = false;
    };

    /** Allocation-filter entry: a potential stream. */
    struct Candidate
    {
        Addr nextLine = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    StreamConfig _config;
    std::vector<Slot> _slots;
    std::vector<Candidate> _filter;
    std::uint64_t _lruClock = 0;

    stats::Group _stats;
    stats::Scalar _fills;
    stats::Scalar _covered;
    stats::Formula _coverage;
};

ReferenceReadAhead::ReferenceReadAhead(const StreamConfig &config,
                                       stats::Group *parent)
    : _config(config),
      _slots(config.streams),
      _filter(std::max<std::uint32_t>(config.filterEntries, 1)),
      _stats(config.name),
      _fills(&_stats, config.name + ".fills", "line fills observed"),
      _covered(&_stats, config.name + ".covered",
               "fills covered by an active stream"),
      _coverage(&_stats, config.name + ".coverage",
                "fraction of fills covered by a stream",
                [this] {
                    const double n = _fills.value();
                    return n > 0 ? _covered.value() / n : 0.0;
                })
{
    GASNUB_ASSERT(config.streams >= 1, "need at least one stream slot");
    GASNUB_ASSERT(config.threshold >= 1, "threshold must be >= 1");
    if (parent)
        parent->addChild(&_stats);
}

StreamHit
ReferenceReadAhead::note(Addr line_addr, std::uint32_t line_bytes)
{
    StreamHit hit;
    if (!_config.enabled)
        return hit;
    ++_fills;

    // Look for a slot expecting exactly this line.
    for (std::uint32_t i = 0; i < _slots.size(); ++i) {
        Slot &s = _slots[i];
        if (s.valid && s.nextLine == line_addr) {
            s.nextLine = line_addr + line_bytes;
            s.run += 1;
            s.lru = ++_lruClock;
            if (s.run >= _config.threshold) {
                hit.covered = true;
                hit.slot = i;
                ++_covered;
            }
            return hit;
        }
    }

    // Allocation filter: promote to a stream slot only when this
    // fill sequentially follows a previous one, so isolated misses
    // (write allocations, gathers) cannot steal live streams.  The
    // replacement victim for the no-match case is tracked in the same
    // pass (invalid entry first, else LRU) — non-sequential access
    // patterns hit this path on every single fill, so the filter is
    // scanned exactly once instead of twice.
    Candidate *cv = &_filter[0];
    bool cv_invalid = !cv->valid;
    for (Candidate &c : _filter) {
        if (c.valid && c.nextLine == line_addr) {
            c.valid = false;
            Slot *victim = &_slots[0];
            for (Slot &s : _slots) {
                if (!s.valid) {
                    victim = &s;
                    break;
                }
                if (s.lru < victim->lru)
                    victim = &s;
            }
            victim->valid = true;
            victim->nextLine = line_addr + line_bytes;
            victim->run = 2;
            victim->lru = ++_lruClock;
            victim->lastStart = 0;
            if (victim->run >= _config.threshold) {
                hit.covered = true;
                hit.slot = static_cast<std::uint32_t>(
                    victim - _slots.data());
                ++_covered;
            }
            return hit;
        }
        if (!cv_invalid) {
            if (!c.valid) {
                cv = &c;
                cv_invalid = true;
            } else if (c.lru < cv->lru) {
                cv = &c;
            }
        }
    }

    // New candidate in the filter.
    cv->valid = true;
    cv->nextLine = line_addr + line_bytes;
    cv->lru = ++_lruClock;
    return hit;
}

Tick
ReferenceReadAhead::lastStart(std::uint32_t slot) const
{
    GASNUB_ASSERT(slot < _slots.size(), "bad stream slot");
    return _slots[slot].lastStart;
}

void
ReferenceReadAhead::setLastStart(std::uint32_t slot, Tick t)
{
    GASNUB_ASSERT(slot < _slots.size(), "bad stream slot");
    _slots[slot].lastStart = t;
}

void
ReferenceReadAhead::reset()
{
    for (Slot &s : _slots)
        s = Slot{};
    for (Candidate &c : _filter)
        c = Candidate{};
    _lruClock = 0;
}

std::string
statsJson(stats::Group &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

/** What one oracle run exercised, for the "not vacuous" checks. */
struct OracleCounts
{
    std::size_t fills = 0;
    std::size_t covered = 0;
};

/**
 * Feed one seeded fill stream to a ReadAhead and the reference and
 * compare every StreamHit, every slot's lastStart and the stats.
 *
 * The stream interleaves @p streams cursors, each with its own stride
 * (one line, a few lines, or a random jump); some fills repeat the
 * previous line of their cursor, which leaves two filter entries
 * expecting the same next line, some restart a cursor elsewhere, and
 * a few reset() the unit or toggle it off and on.
 */
OracleCounts
runOracle(std::uint64_t seed, const StreamConfig &cfg, int streams,
          int steps)
{
    const std::uint32_t line = 64;
    std::mt19937_64 rng(seed);
    ReadAhead ra(cfg);
    ReferenceReadAhead ref(cfg);
    struct Cursor
    {
        Addr at;
        Addr stride;
    };
    auto fresh = [&]() {
        const Addr strides[] = {line, line, line, 2 * line, 5 * line};
        return Cursor{(rng() % 4096) * line, strides[rng() % 5]};
    };
    std::vector<Cursor> cursors;
    for (int s = 0; s < streams; ++s)
        cursors.push_back(fresh());

    OracleCounts counts;
    bool enabled = cfg.enabled;
    for (int n = 0; n < steps; ++n) {
        const std::uint64_t r = rng() % 1000;
        if (r == 0) {
            ra.reset();
            ref.reset();
            continue;
        }
        if (r == 1) {
            enabled = !enabled;
            ra.setEnabled(enabled);
            ref.setEnabled(enabled);
            continue;
        }
        Cursor &c = cursors[rng() % cursors.size()];
        const std::uint64_t move = rng() % 16;
        if (move == 0)
            c = fresh();                  // restart elsewhere
        else if (move == 1)
            c.at += (rng() % 64) * line;  // isolated jump
        else if (move > 3)
            c.at += c.stride;             // 2, 3: repeat the line
        const StreamHit want = ref.note(c.at, line);
        const StreamHit got = ra.note(c.at, line);
        if (got.covered != want.covered || got.slot != want.slot) {
            ADD_FAILURE() << "seed " << seed << " streams " << streams
                          << " step " << n << ": note(" << c.at
                          << ") = {" << got.covered << ", " << got.slot
                          << "}, reference {" << want.covered << ", "
                          << want.slot << "}";
            return counts;
        }
        if (enabled)
            ++counts.fills;
        if (want.covered) {
            ++counts.covered;
            // The hierarchy's pipeline bookkeeping on a covered fill.
            const Tick t = ref.lastStart(want.slot) + rng() % 1000;
            ref.setLastStart(want.slot, t);
            ra.setLastStart(want.slot, t);
        }
        for (std::uint32_t s = 0; s < cfg.streams; ++s) {
            if (ra.lastStart(s) != ref.lastStart(s)) {
                ADD_FAILURE() << "seed " << seed << " step " << n
                              << ": lastStart(" << s << ") = "
                              << ra.lastStart(s) << ", reference "
                              << ref.lastStart(s);
                return counts;
            }
        }
    }
    EXPECT_EQ(statsJson(ra.statsGroup()), statsJson(ref.statsGroup()))
        << "seed " << seed;
    return counts;
}

TEST(ReadAhead, DetectsSequentialStreamAfterThreshold)
{
    StreamConfig cfg;
    cfg.streams = 1;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    EXPECT_FALSE(ra.note(0, 64).covered);    // first touch
    EXPECT_TRUE(ra.note(64, 64).covered);    // run of 2 >= threshold
    EXPECT_TRUE(ra.note(128, 64).covered);
    EXPECT_EQ(ra.coveredFills(), 2u);
}

TEST(ReadAhead, NonSequentialFillsNeverCovered)
{
    StreamConfig cfg;
    cfg.streams = 2;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    for (Addr a = 0; a < 64 * 100; a += 256)
        EXPECT_FALSE(ra.note(a, 64).covered);
}

TEST(ReadAhead, TracksMultipleStreams)
{
    StreamConfig cfg;
    cfg.streams = 2;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    ra.note(1 << 20, 64);
    EXPECT_TRUE(ra.note(64, 64).covered);
    EXPECT_TRUE(ra.note((1 << 20) + 64, 64).covered);
}

TEST(ReadAhead, IsolatedMissesDoNotStealLiveStreams)
{
    // The allocation filter: a single non-sequential fill (a write
    // allocation, a pointer chase) must not evict an active stream.
    StreamConfig cfg;
    cfg.streams = 1;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    ra.note(64, 64); // stream established
    ra.note(1 << 20, 64); // isolated miss -> filter only
    EXPECT_TRUE(ra.note(128, 64).covered); // stream survives
}

TEST(ReadAhead, CompetingStreamsEvictViaTheFilter)
{
    // Two alternating sequential streams with one slot: the second
    // stream promotes through the filter and steals the slot.
    StreamConfig cfg;
    cfg.streams = 1;
    cfg.threshold = 2;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    ra.note(64, 64); // stream A active
    ra.note(1 << 20, 64);
    ra.note((1 << 20) + 64, 64); // stream B promotes, evicts A
    EXPECT_FALSE(ra.note(128, 64).covered); // A gone
}

TEST(ReadAhead, DisabledNeverCovers)
{
    StreamConfig cfg;
    cfg.enabled = false;
    ReadAhead ra(cfg);
    for (Addr a = 0; a < 64 * 10; a += 64)
        EXPECT_FALSE(ra.note(a, 64).covered);
    ra.setEnabled(true);
    ra.note(640, 64);
    EXPECT_TRUE(ra.note(704, 64).covered);
}

TEST(ReadAhead, LastStartBookkeeping)
{
    StreamConfig cfg;
    ReadAhead ra(cfg);
    ra.note(0, 64);
    auto hit = ra.note(64, 64);
    ASSERT_TRUE(hit.covered);
    ra.setLastStart(hit.slot, 12345);
    EXPECT_EQ(ra.lastStart(hit.slot), 12345u);
    ra.reset();
    EXPECT_FALSE(ra.note(128, 64).covered); // streams forgotten
}

TEST(ReadAheadOracle, MatchesReferenceAcrossConfigs)
{
    for (const std::uint32_t slots : {1u, 2u, 6u}) {
        for (const std::uint32_t threshold : {2u, 3u}) {
            for (const std::uint32_t entries : {1u, 2u, 16u, 64u}) {
                for (const bool enabled : {true, false}) {
                    StreamConfig cfg;
                    cfg.streams = slots;
                    cfg.threshold = threshold;
                    cfg.filterEntries = entries;
                    cfg.enabled = enabled;
                    OracleCounts total;
                    for (int streams = 1; streams <= 8; ++streams) {
                        const std::uint64_t seed =
                            slots * 100000 + threshold * 10000 +
                            entries * 100 + streams * 2 + enabled;
                        const OracleCounts c =
                            runOracle(seed, cfg, streams, 4000);
                        total.fills += c.fills;
                        total.covered += c.covered;
                    }
                    // Both the covered and the filter paths must run.
                    EXPECT_GT(total.covered, 1000u)
                        << slots << " slots, threshold " << threshold
                        << ", " << entries << " entries";
                    EXPECT_GT(total.fills, total.covered + 1000);
                }
            }
        }
    }
}

TEST(ReadAheadOracle, MatchesReferenceOnLongStreams)
{
    // The machines' own shape (16 filter entries) over long streams.
    StreamConfig cfg;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        cfg.streams = static_cast<std::uint32_t>(seed % 3 == 0 ? 6 : seed);
        runOracle(seed, cfg, static_cast<int>(2 * seed), 200000);
    }
}

TEST(ReadAheadOracle, DuplicateCandidatesMatchTheLowestEntry)
{
    // Two filter entries expect line 64 (entries 0 and 2, inserted
    // first and third).  Line 64 takes entry 0, the older one, so the
    // newer copy outlives the candidate inserted between them and
    // still promotes line 64 after two more insertions.
    StreamConfig cfg;
    cfg.streams = 1;
    cfg.threshold = 2;
    cfg.filterEntries = 3;
    ReadAhead ra(cfg);
    ReferenceReadAhead ref(cfg);
    const Addr fills[] = {0, 1 << 20, 0, 64, 2 << 20, 3 << 20, 64};
    const bool covered[] = {false, false, false, true, false, false, true};
    for (std::size_t i = 0; i < std::size(fills); ++i) {
        EXPECT_EQ(ra.note(fills[i], 64).covered, covered[i]) << i;
        EXPECT_EQ(ref.note(fills[i], 64).covered, covered[i]) << i;
    }
}

TEST(ReadAheadDeath, MoreThan64FilterEntriesIsFatal)
{
    StreamConfig cfg;
    cfg.filterEntries = 65;
    EXPECT_DEATH(ReadAhead ra(cfg), "64");
}

// --------------------------------------------------------------------

struct DrainRecord
{
    Addr chunk;
    std::uint32_t bytes;
    Tick start;
};

TEST(WriteBackQueue, CoalescesContiguousStores)
{
    WbqConfig cfg;
    cfg.depth = 4;
    cfg.chunkBytes = 32;
    std::vector<DrainRecord> drains;
    WriteBackQueue q(cfg,
                     [&](Addr c, std::uint32_t b, Tick t) {
                         drains.push_back({c, b, t});
                         return t + 100000; // 100 ns drain
                     });
    // Four contiguous words coalesce into one 32-byte entity.
    for (Addr a = 0; a < 32; a += 8)
        q.store(a, 0);
    q.store(64, 0); // new chunk closes the old entry
    ASSERT_EQ(drains.size(), 1u);
    EXPECT_EQ(drains[0].chunk, 0u);
    EXPECT_EQ(drains[0].bytes, 32u);
    EXPECT_EQ(q.coalescedStores(), 3u);
}

TEST(WriteBackQueue, StridedStoresDoNotCoalesce)
{
    WbqConfig cfg;
    cfg.depth = 16;
    cfg.chunkBytes = 32;
    std::vector<DrainRecord> drains;
    WriteBackQueue q(cfg,
                     [&](Addr c, std::uint32_t b, Tick t) {
                         drains.push_back({c, b, t});
                         return t + 1;
                     });
    for (Addr a = 0; a < 8 * 64; a += 64)
        q.store(a, 0);
    q.drainAll(0);
    EXPECT_EQ(drains.size(), 8u);
    for (const auto &d : drains)
        EXPECT_EQ(d.bytes, 8u);
    EXPECT_EQ(q.coalescedStores(), 0u);
}

TEST(WriteBackQueue, NonContiguousSameChunkDoesNotCoalesce)
{
    WbqConfig cfg;
    cfg.chunkBytes = 32;
    std::vector<DrainRecord> drains;
    WriteBackQueue q(cfg,
                     [&](Addr c, std::uint32_t b, Tick t) {
                         drains.push_back({c, b, t});
                         return t + 1;
                     });
    q.store(0, 0);
    q.store(16, 0); // same chunk but not contiguous with addr 8
    q.drainAll(0);
    EXPECT_EQ(drains.size(), 2u);
}

TEST(WriteBackQueue, FullQueueStallsStores)
{
    WbqConfig cfg;
    cfg.depth = 2;
    cfg.chunkBytes = 8; // every store its own entry
    WriteBackQueue q(cfg,
                     [&](Addr, std::uint32_t, Tick t) {
                         return t + 1000000; // 1 us drain
                     });
    EXPECT_EQ(q.store(0, 0), 0u);   // opens entry A
    EXPECT_EQ(q.store(64, 0), 0u);  // closes A, opens B
    // Closing B fills the queue (depth 2): the store stalls until the
    // oldest drain completes.
    const Tick proceed = q.store(128, 0);
    EXPECT_GE(proceed, 1000000u);
    EXPECT_GE(q.fullStalls(), 1u);
}

TEST(WriteBackQueue, DrainAllReturnsCompletionOfLastEntry)
{
    WbqConfig cfg;
    cfg.chunkBytes = 32;
    WriteBackQueue q(cfg, [&](Addr, std::uint32_t, Tick t) {
        return t + 500000;
    });
    q.store(0, 100);
    // The open entry drains no earlier than the flush point (200).
    const Tick done = q.drainAll(200);
    EXPECT_EQ(done, 500200u);
    // Idempotent when empty.
    EXPECT_EQ(q.drainAll(done), done);
}

} // namespace
