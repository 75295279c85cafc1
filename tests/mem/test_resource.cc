/**
 * @file
 * Unit tests for the calendar Resource and the OutstandingWindow.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "mem/resource.hh"

namespace {

using namespace gasnub;
using gasnub::mem::OutstandingWindow;
using gasnub::mem::Resource;

/**
 * Test-only oracle: the original flat-vector backfill calendar,
 * verbatim — linear first fit over a time-ordered gap vector with a
 * binary-searched start, mid-vector inserts and erases, the stale
 * maxGapEnd/maxGapLen scan guards retightened after a failed scan, and
 * one oldest gap dropped per append past the horizon.  The blocked
 * calendar in mem::Resource must return the same start tick for every
 * request.
 */
class ReferenceResource
{
  public:
    void enableBackfill(std::size_t max_gaps) { _maxGaps = max_gaps; }

    Tick
    acquire(Tick earliest, Tick occupancy)
    {
        if (_maxGaps != 0 && _head != _gaps.size() &&
            earliest + occupancy <= _maxGapEnd &&
            occupancy <= _maxGapLen) {
            bool fit = false;
            Tick start = 0;
            std::size_t lo = _head;
            std::size_t hi = _gaps.size();
            const Tick need_end = earliest + occupancy;
            while (lo < hi) {
                const std::size_t mid = (lo + hi) / 2;
                if (_gaps[mid].end < need_end)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            for (std::size_t i = lo; i < _gaps.size(); ++i) {
                Gap &g = _gaps[i];
                start = earliest > g.start ? earliest : g.start;
                if (start + occupancy > g.end)
                    continue;
                const Tick tail_start = start + occupancy;
                const Tick tail_end = g.end;
                if (start > g.start) {
                    g.end = start;
                    if (tail_end > tail_start) {
                        _gaps.insert(_gaps.begin() +
                                         static_cast<long>(i) + 1,
                                     Gap{tail_start, tail_end});
                    }
                } else if (tail_end > tail_start) {
                    g.start = tail_start;
                } else {
                    _gaps.erase(_gaps.begin() + static_cast<long>(i));
                }
                fit = true;
                break;
            }
            if (fit)
                return start;
            recomputeGapBounds();
        }

        const Tick start = earliest > _busyUntil ? earliest
                                                 : _busyUntil;
        if (_maxGaps != 0 && start > _busyUntil && _busyUntil > 0) {
            _gaps.push_back(Gap{_busyUntil, start});
            if (start > _maxGapEnd)
                _maxGapEnd = start;
            if (start - _busyUntil > _maxGapLen)
                _maxGapLen = start - _busyUntil;
            if (_gaps.size() - _head > _maxGaps)
                ++_head;
            if (_head >= _maxGaps) {
                _gaps.erase(_gaps.begin(),
                            _gaps.begin() + static_cast<long>(_head));
                _head = 0;
            }
        }
        _busyUntil = start + occupancy;
        return start;
    }

    Tick freeAt() const { return _busyUntil; }

    void
    reset()
    {
        _busyUntil = 0;
        _gaps.clear();
        _head = 0;
        _maxGapEnd = 0;
        _maxGapLen = 0;
    }

  private:
    struct Gap
    {
        Tick start;
        Tick end;
    };

    void
    recomputeGapBounds()
    {
        _maxGapEnd = 0;
        _maxGapLen = 0;
        for (std::size_t i = _head; i < _gaps.size(); ++i) {
            const Gap &g = _gaps[i];
            if (g.end > _maxGapEnd)
                _maxGapEnd = g.end;
            if (g.end - g.start > _maxGapLen)
                _maxGapLen = g.end - g.start;
        }
    }

    Tick _busyUntil = 0;
    Tick _maxGapEnd = 0;
    Tick _maxGapLen = 0;
    std::size_t _maxGaps = 0;
    std::size_t _head = 0;
    std::vector<Gap> _gaps;
};

/**
 * Drive a Resource and the reference with one seeded stream of
 * @p steps requests from @p flows interleaved flows (timestamps
 * monotone per flow), resetting both at @p reset_at.  Every timestamp
 * and occupancy is a multiple of @p quantum; coarse quanta make
 * requests that exactly fill a gap (and so erase it) common.  Returns
 * the number of requests served before freeAt() (backfilled).
 */
std::size_t
runOracle(std::uint64_t seed, std::size_t horizon, int flows,
          std::size_t steps, std::size_t reset_at, Tick quantum = 1)
{
    std::mt19937_64 rng(seed);
    Resource cal;
    ReferenceResource ref;
    cal.enableBackfill(horizon);
    ref.enableBackfill(horizon);

    struct Flow
    {
        Tick t;
        Tick occ;  ///< fixed occupancy of this flow's requests
        Tick step; ///< bound on the per-request timestamp advance
    };
    std::vector<Flow> fs;
    for (int f = 0; f < flows; ++f)
        fs.push_back(Flow{rng() % 1000 * quantum,
                          (1 + rng() % 40) * quantum,
                          1 + rng() % 120});

    std::size_t backfilled = 0;
    for (std::size_t n = 0; n < steps; ++n) {
        if (n == reset_at) {
            cal.reset();
            ref.reset();
            for (Flow &f : fs)
                f.t = rng() % 1000 * quantum;
        }
        Flow &f = fs[rng() % fs.size()];
        f.t += rng() % f.step * quantum;
        // Mixed fixed and random occupancies, including empty ones.
        const Tick occ =
            rng() % 4 == 0 ? rng() % 90 * quantum : f.occ;
        const Tick tail = ref.freeAt();
        const Tick want = ref.acquire(f.t, occ);
        const Tick got = cal.acquire(f.t, occ);
        if (got != want || cal.freeAt() != ref.freeAt()) {
            ADD_FAILURE() << "seed " << seed << " horizon " << horizon
                          << " flows " << flows << " step " << n
                          << ": acquire(" << f.t << ", " << occ
                          << ") = " << got << ", reference " << want
                          << "; freeAt " << cal.freeAt()
                          << ", reference " << ref.freeAt();
            return backfilled;
        }
        if (want < tail)
            ++backfilled;
        // Some requests follow their own service (a pipelined flow),
        // the rest keep their issue-time clock.
        if (rng() % 3 == 0 && want > f.t)
            f.t = want;
    }
    return backfilled;
}

TEST(Resource, ServesImmediatelyWhenFree)
{
    Resource r;
    EXPECT_EQ(r.acquire(100, 50), 100u);
    EXPECT_EQ(r.freeAt(), 150u);
}

TEST(Resource, QueuesBehindEarlierReservation)
{
    Resource r;
    r.acquire(0, 100);
    EXPECT_EQ(r.acquire(10, 5), 100u);
    EXPECT_EQ(r.freeAt(), 105u);
}

TEST(Resource, WithoutBackfillLateCallsCannotUseGaps)
{
    Resource r;
    r.acquire(0, 10);
    r.acquire(100, 10); // leaves gap [10, 100)
    // A request that could fit in the gap still queues at the end.
    EXPECT_EQ(r.acquire(20, 10), 110u);
}

TEST(Resource, BackfillUsesGaps)
{
    Resource r;
    r.enableBackfill();
    r.acquire(0, 10);
    r.acquire(100, 10); // gap [10, 100)
    EXPECT_EQ(r.acquire(20, 10), 20u);  // fits inside the gap
    EXPECT_EQ(r.acquire(20, 10), 30u);  // remaining gap piece
    EXPECT_EQ(r.acquire(0, 10), 10u);   // head piece
    // Gap now [40, 100): a request too long for it queues at the end.
    EXPECT_EQ(r.acquire(50, 70), 110u);
}

TEST(Resource, BackfillSplitKeepsBothPieces)
{
    Resource r;
    r.enableBackfill();
    r.acquire(0, 10);
    r.acquire(1000, 10); // gap [10, 1000)
    EXPECT_EQ(r.acquire(500, 10), 500u); // splits the gap
    EXPECT_EQ(r.acquire(0, 10), 10u);    // head piece still there
    EXPECT_EQ(r.acquire(600, 10), 600u); // tail piece still there
}

TEST(Resource, BackfillPreservesSingleFlowBehaviour)
{
    Resource plain, calendar;
    calendar.enableBackfill();
    Tick t = 0;
    for (int i = 0; i < 1000; ++i) {
        // Monotone single flow with irregular spacing.
        t += (i * 7) % 90;
        EXPECT_EQ(plain.acquire(t, 13), calendar.acquire(t, 13));
    }
}

TEST(Resource, ResetClearsEverything)
{
    Resource r;
    r.enableBackfill();
    r.acquire(0, 10);
    r.acquire(100, 10);
    r.reset();
    EXPECT_EQ(r.freeAt(), 0u);
    EXPECT_EQ(r.acquire(0, 5), 0u);
}

TEST(ResourceOracle, MatchesReferenceAcrossHorizons)
{
    for (const std::size_t horizon : {1u, 2u, 3u, 64u, 16384u}) {
        for (int flows = 2; flows <= 4; ++flows) {
            for (const Tick quantum : {1u, 10u}) {
                const std::uint64_t seed =
                    horizon * 64 + flows * 16 + quantum;
                const std::size_t backfilled = runOracle(
                    seed, horizon, flows, 20000, 7000, quantum);
                // The streams must exercise the calendar, not bypass
                // it.
                EXPECT_GT(backfilled, 100u)
                    << "horizon " << horizon << " flows " << flows
                    << " quantum " << quantum;
            }
        }
    }
}

TEST(ResourceOracle, MatchesReferenceOnLongStreams)
{
    // Long enough to fill the default horizon, split full blocks and
    // drop the oldest gaps for a while.
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runOracle(seed, 16384, 2 + static_cast<int>(seed % 3), 120000,
                  90000, seed % 2 == 0 ? 10 : 1);
}

TEST(ResourceOracle, SplitsMayHoldTheCalendarPastItsHorizon)
{
    // Horizon 2: one split brings the calendar to three gaps, and an
    // append then drops only the oldest, so the head piece of the
    // split gap is gone but both later gaps stay claimable.
    Resource r;
    ReferenceResource ref;
    r.enableBackfill(2);
    ref.enableBackfill(2);
    // {earliest, occupancy, expected start}
    const Tick reqs[][3] = {
        {0, 10, 0},
        {100, 10, 100}, // gap [10, 100)
        {200, 10, 200}, // gap [110, 200): at the horizon
        {50, 10, 50},   // split [10, 100): three gaps
        {300, 10, 300}, // append [210, 300), drop [10, 50): three
        {20, 5, 60},    // [10, 50) is gone; first fit is [60, 100)
        {70, 5, 70},
        {150, 5, 150},
    };
    for (const auto &q : reqs) {
        EXPECT_EQ(r.acquire(q[0], q[1]), q[2]);
        EXPECT_EQ(ref.acquire(q[0], q[1]), q[2]);
    }
    EXPECT_EQ(r.freeAt(), ref.freeAt());
}

TEST(OutstandingWindow, DepthOneSerializesOnCompletion)
{
    OutstandingWindow w(1);
    EXPECT_EQ(w.admit(0), 0u);
    w.complete(100);
    EXPECT_EQ(w.admit(10), 100u); // waits for the outstanding op
    w.complete(200);
    EXPECT_EQ(w.admit(300), 300u); // already retired
}

TEST(OutstandingWindow, DeeperWindowAllowsOverlap)
{
    OutstandingWindow w(2);
    EXPECT_EQ(w.admit(0), 0u);
    w.complete(100);
    EXPECT_EQ(w.admit(10), 10u); // one slot still free
    w.complete(110);
    EXPECT_EQ(w.admit(20), 100u); // oldest must retire first
}

TEST(OutstandingWindow, SteadyStateThroughputIsLatencyOverDepth)
{
    // latency 400, depth 4 -> average steady interval 100.
    OutstandingWindow w(4);
    Tick want = 0;
    Tick first = 0;
    Tick last = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        const Tick issue = w.admit(want);
        w.complete(issue + 400);
        if (i == 0)
            first = issue;
        last = issue;
        want = issue; // back-to-back issue attempts
    }
    const double avg =
        static_cast<double>(last - first) / (n - 1);
    EXPECT_NEAR(avg, 100.0, 2.0);
}

TEST(OutstandingWindow, ResetForgetsInflight)
{
    OutstandingWindow w(1);
    w.admit(0);
    w.complete(1000);
    w.reset();
    EXPECT_EQ(w.admit(5), 5u);
}

} // namespace
