#include "mem/stream.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace gasnub::mem {

ReadAhead::ReadAhead(const StreamConfig &config, stats::Group *parent)
    : _config(config),
      _slots(config.streams),
      _candEntries(std::max<std::uint32_t>(config.filterEntries, 1)),
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
    GASNUB_ASSERT(config.filterEntries <= kMaxFilterEntries,
                  "at most 64 allocation-filter entries");
    _candAll = ~std::uint64_t{0} >> (64 - _candEntries);
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
    // (write allocations, gathers) cannot steal live streams.
    // Compare in fours (the arrays are sized for it; entries past the
    // filter's end are masked off by _candValid).
    const std::uint32_t entries = _candEntries;
    std::uint64_t equal = 0;
    for (std::uint32_t i = 0; i < entries; i += 4) {
        const std::uint64_t quad =
            std::uint64_t{_candNext[i] == line_addr} |
            std::uint64_t{_candNext[i + 1] == line_addr} << 1 |
            std::uint64_t{_candNext[i + 2] == line_addr} << 2 |
            std::uint64_t{_candNext[i + 3] == line_addr} << 3;
        equal |= quad << i;
    }
    if (const std::uint64_t match = equal & _candValid) {
        const auto c = static_cast<std::uint32_t>(std::countr_zero(match));
        _candValid &= ~(std::uint64_t{1} << c);
        dropFromOrder(c);
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
            hit.slot = static_cast<std::uint32_t>(victim - _slots.data());
            ++_covered;
        }
        return hit;
    }

    // New candidate: the lowest invalid entry, else the oldest.
    std::uint32_t c;
    if (const std::uint64_t free = _candAll & ~_candValid) {
        c = static_cast<std::uint32_t>(std::countr_zero(free));
    } else {
        c = _candOrder[_orderHead];
        _orderHead = _orderHead + 1 == entries ? 0 : _orderHead + 1;
        --_orderSize;
    }
    _candNext[c] = line_addr + line_bytes;
    _candValid |= std::uint64_t{1} << c;
    std::uint32_t tail = _orderHead + _orderSize;
    if (tail >= entries)
        tail -= entries;
    _candOrder[tail] = static_cast<std::uint8_t>(c);
    ++_orderSize;
    return hit;
}

void
ReadAhead::dropFromOrder(std::uint32_t entry)
{
    // A match can take any entry, so close the gap it leaves in the
    // ring; the filter holds at most 64 entries and matches are rare
    // next to insertions (one per stream start).
    const std::uint32_t entries = _candEntries;
    auto at = [&](std::uint32_t k) -> std::uint8_t & {
        const std::uint32_t i = _orderHead + k;
        return _candOrder[i >= entries ? i - entries : i];
    };
    std::uint32_t k = 0;
    while (at(k) != entry)
        ++k;
    for (; k + 1 < _orderSize; ++k)
        at(k) = at(k + 1);
    --_orderSize;
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
    _candValid = 0;
    _orderHead = 0;
    _orderSize = 0;
    _lruClock = 0;
}

} // namespace gasnub::mem
