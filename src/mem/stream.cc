#include "mem/stream.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gasnub::mem {

ReadAhead::ReadAhead(const StreamConfig &config, stats::Group *parent)
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
ReadAhead::note(Addr line_addr, std::uint32_t line_bytes)
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
ReadAhead::lastStart(std::uint32_t slot) const
{
    GASNUB_ASSERT(slot < _slots.size(), "bad stream slot");
    return _slots[slot].lastStart;
}

void
ReadAhead::setLastStart(std::uint32_t slot, Tick t)
{
    GASNUB_ASSERT(slot < _slots.size(), "bad stream slot");
    _slots[slot].lastStart = t;
}

void
ReadAhead::reset()
{
    for (Slot &s : _slots)
        s = Slot{};
    for (Candidate &c : _filter)
        c = Candidate{};
    _lruClock = 0;
}

} // namespace gasnub::mem
