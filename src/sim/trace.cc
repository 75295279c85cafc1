#include "sim/trace.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace gasnub::trace {

namespace detail {
thread_local std::uint32_t activeMask = 0;
} // namespace detail

namespace {
/** Per-thread override of Tracer::instance(); null = global tracer. */
thread_local Tracer *threadTracer = nullptr;
} // namespace

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::Mem: return "mem";
      case Category::Noc: return "noc";
      case Category::Remote: return "remote";
      case Category::Kernel: return "kernel";
      case Category::Sim: return "sim";
    }
    GASNUB_PANIC("bad trace Category");
}

std::uint32_t
parseCategories(const std::string &list)
{
    if (list.empty() || list == "all")
        return allCategories;
    std::uint32_t mask = 0;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        if (item == "mem")
            mask |= static_cast<std::uint32_t>(Category::Mem);
        else if (item == "noc")
            mask |= static_cast<std::uint32_t>(Category::Noc);
        else if (item == "remote")
            mask |= static_cast<std::uint32_t>(Category::Remote);
        else if (item == "kernel")
            mask |= static_cast<std::uint32_t>(Category::Kernel);
        else if (item == "sim")
            mask |= static_cast<std::uint32_t>(Category::Sim);
        else if (item == "all")
            mask |= allCategories;
        else
            GASNUB_FATAL("unknown trace category '", item,
                         "' (expected mem, noc, remote, kernel, sim, "
                         "or all)");
    }
    return mask;
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return threadTracer ? *threadTracer : tracer;
}

ScopedThreadTracer::ScopedThreadTracer(Tracer &tracer,
                                       std::uint32_t mask)
    : _prev(threadTracer), _prevMask(detail::activeMask)
{
    threadTracer = &tracer;
    detail::activeMask = mask & allCategories;
}

ScopedThreadTracer::~ScopedThreadTracer()
{
    threadTracer = _prev;
    detail::activeMask = _prevMask;
}

void
Tracer::setMask(std::uint32_t mask)
{
    detail::activeMask = mask & allCategories;
}

void
Tracer::setCapacity(std::size_t cap)
{
    _capacity = cap;
    if (_events.size() > cap) {
        _dropped += _events.size() - cap;
        _events.resize(cap);
    }
}

TrackId
Tracer::track(const std::string &name)
{
    for (std::size_t i = 0; i < _tracks.size(); ++i)
        if (_tracks[i] == name)
            return static_cast<TrackId>(i);
    GASNUB_ASSERT(_tracks.size() < 0xffff, "too many trace tracks");
    _tracks.push_back(name);
    return static_cast<TrackId>(_tracks.size() - 1);
}

const std::string &
Tracer::trackName(TrackId id) const
{
    GASNUB_ASSERT(id < _tracks.size(), "bad track id ", id);
    return _tracks[id];
}

void
Tracer::record(Category cat, TrackId track, const char *name,
               Tick start, Tick end)
{
    record(cat, track, name, start, end, nullptr, 0, nullptr, 0);
}

void
Tracer::record(Category cat, TrackId track, const char *name,
               Tick start, Tick end, const char *key0,
               std::uint64_t val0)
{
    record(cat, track, name, start, end, key0, val0, nullptr, 0);
}

void
Tracer::record(Category cat, TrackId track, const char *name,
               Tick start, Tick end, const char *key0,
               std::uint64_t val0, const char *key1,
               std::uint64_t val1)
{
    if (!enabled(cat))
        return;
    if (_events.size() >= _capacity) {
        ++_dropped;
        return;
    }
    GASNUB_ASSERT(end >= start, "trace event ends before it starts: ",
                  name);
    Event e;
    e.start = start;
    e.dur = end - start;
    e.name = name;
    e.key0 = key0;
    e.key1 = key1;
    e.val0 = val0;
    e.val1 = val1;
    e.track = track;
    e.cat = cat;
    _events.push_back(e);
}

void
Tracer::clear()
{
    _events.clear();
    _dropped = 0;
}

std::vector<std::size_t>
Tracer::sortedOrder() const
{
    std::vector<std::size_t> order(_events.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return _events[a].start < _events[b].start;
                     });
    return order;
}

namespace {

/**
 * Print @p ticks (picoseconds) as microseconds with six fractional
 * digits, using integer arithmetic only (byte-deterministic).
 */
void
printMicros(std::ostream &os, Tick ticks)
{
    const Tick us = ticks / 1'000'000;
    const Tick frac = ticks % 1'000'000;
    os << us << '.';
    // Six zero-padded fractional digits.
    Tick div = 100'000;
    for (int i = 0; i < 6; ++i) {
        os << static_cast<char>('0' + (frac / div) % 10);
        div /= 10;
    }
}

} // namespace

void
Tracer::exportChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;

    // Thread-name metadata for every track referenced by an event.
    std::vector<bool> used(_tracks.size(), false);
    for (const Event &e : _events)
        if (e.track < used.size())
            used[e.track] = true;
    for (std::size_t t = 0; t < _tracks.size(); ++t) {
        if (!used[t])
            continue;
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        stats::jsonEscape(os, _tracks[t].c_str());
        os << "\"}}";
    }

    for (const std::size_t i : sortedOrder()) {
        const Event &e = _events[i];
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << e.track
           << ",\"cat\":\"" << categoryName(e.cat) << "\",\"name\":\"";
        stats::jsonEscape(os, e.name);
        os << "\",\"ts\":";
        printMicros(os, e.start);
        os << ",\"dur\":";
        printMicros(os, e.dur);
        os << ",\"args\":{";
        if (e.key0) {
            os << "\"";
            stats::jsonEscape(os, e.key0);
            os << "\":" << e.val0;
            if (e.key1) {
                os << ",\"";
                stats::jsonEscape(os, e.key1);
                os << "\":" << e.val1;
            }
        }
        os << "}}";
    }
    os << "\n]}\n";
}

void
Tracer::exportCsv(std::ostream &os) const
{
    os << "category,track,event,start_ticks,dur_ticks,"
          "arg0,value0,arg1,value1\n";
    for (const std::size_t i : sortedOrder()) {
        const Event &e = _events[i];
        os << categoryName(e.cat) << ','
           << (e.track < _tracks.size() ? _tracks[e.track] : "") << ','
           << e.name << ',' << e.start << ',' << e.dur << ','
           << (e.key0 ? e.key0 : "") << ',';
        if (e.key0)
            os << e.val0;
        os << ',' << (e.key1 ? e.key1 : "") << ',';
        if (e.key1)
            os << e.val1;
        os << '\n';
    }
}

} // namespace gasnub::trace
