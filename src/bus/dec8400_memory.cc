#include "bus/dec8400_memory.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "sim/logging.hh"
#include "sim/units.hh"

namespace gasnub::bus {

namespace {

Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * 1000.0 + 0.5);
}

} // namespace

Dec8400Memory::LineDir::LineDir(std::uint32_t line_bytes)
    : _lineShift(static_cast<unsigned>(
          std::countr_zero(std::uint64_t{line_bytes}))),
      _table(kInitialTableSlots),
      _tableShift(64 - std::countr_zero(kInitialTableSlots))
{
    GASNUB_ASSERT(std::has_single_bit(line_bytes),
                  "bus line size must be a power of two");
}

Dec8400Memory::LineState *
Dec8400Memory::LineDir::pageFor(Addr page)
{
    const std::size_t mask = _table.size() - 1;
    std::size_t i = slotOf(page);
    while (_table[i].page != kNoPage && _table[i].page != page)
        i = (i + 1) & mask;
    Page *p = _table[i].data;
    if (_table[i].page == kNoPage) {
        _pages.push_back(std::make_unique<Page>());
        p = _pages.back().get();
        p->epoch = _epoch;
        _table[i] = TableSlot{page, p};
        // Grow at 50% occupancy so probe chains stay short.
        if (_pages.size() * 2 > _table.size())
            growTable();
    } else if (p->epoch != _epoch) {
        std::fill(std::begin(p->lines), std::end(p->lines),
                  LineState{});
        p->epoch = _epoch;
    }
    Recent &r = _recent[_recentVictim];
    _recentVictim ^= 1;
    r.page = page;
    r.lines = p->lines;
    return p->lines;
}

void
Dec8400Memory::LineDir::growTable()
{
    const std::vector<TableSlot> old = std::move(_table);
    _table.assign(old.size() * 2, TableSlot{});
    --_tableShift;
    const std::size_t mask = _table.size() - 1;
    for (const TableSlot &s : old) {
        if (s.page == kNoPage)
            continue;
        std::size_t i = slotOf(s.page);
        while (_table[i].page != kNoPage)
            i = (i + 1) & mask;
        _table[i] = s;
    }
}

void
Dec8400Memory::LineDir::clear()
{
    ++_epoch;
    _recent[0] = Recent{};
    _recent[1] = Recent{};
}

Dec8400Memory::Dec8400Memory(const BusConfig &bus_config,
                             const mem::DramConfig &dram_config,
                             stats::Group *parent)
    : _config(bus_config),
      _arbTicks(nsToTicks(bus_config.arbNs)),
      _snoopTicks(nsToTicks(bus_config.snoopNs)),
      _interventionTicks(nsToTicks(bus_config.interventionNs)),
      _sharedLineTicks(nsToTicks(bus_config.sharedLineNs)),
      _dram(dram_config),
      _dir(bus_config.lineBytes),
      _stats(bus_config.name),
      _transactions(&_stats, bus_config.name + ".transactions",
                    "bus transactions"),
      _interventions(&_stats, bus_config.name + ".interventions",
                     "cache-to-cache transfers"),
      _invalidationsSent(&_stats, bus_config.name + ".invalidations",
                         "sharer copies invalidated"),
      _memoryReads(&_stats, bus_config.name + ".memoryReads",
                   "lines served from shared DRAM"),
      _memoryWrites(&_stats, bus_config.name + ".memoryWrites",
                    "writes to shared DRAM"),
      _bandwidth(&_stats, bus_config.name + ".bandwidth",
                 "bytes over the system bus per time bucket"),
      _traceTrack(trace::Tracer::instance().track(bus_config.name))
{
    GASNUB_ASSERT(dram_config.splitTransactionChannel,
                  "the 8400 bus expects a split-transaction DRAM");
    _addressBus.enableBackfill();
    _stats.addChild(&_dram.statsGroup());
    if (parent)
        parent->addChild(&_stats);
}

void
Dec8400Memory::attach(NodeId id, mem::MemoryHierarchy *h)
{
    GASNUB_ASSERT(h != nullptr, "null hierarchy");
    GASNUB_ASSERT(id >= 0, "bad node id");
    if (static_cast<std::size_t>(id) >= _nodes.size())
        _nodes.resize(id + 1, nullptr);
    GASNUB_ASSERT(_nodes[id] == nullptr, "node ", id,
                  " attached twice");
    _nodes[id] = h;
    h->setDramHook([this, id](Addr addr, mem::FetchIntent intent,
                              Tick earliest, std::uint32_t bytes) {
        return access(id, addr, intent, earliest, bytes);
    });
    h->setPrimeHook([this, id](Addr addr) { primeFill(id, addr); });
}

void
Dec8400Memory::primeFill(NodeId requester, Addr addr)
{
    // Mirrors the directory updates of the Read branches of access()
    // exactly — priming reads are plain (non-exclusive) fills, so only
    // the intervention and memory-read cases can occur.  Timing,
    // stats, and trace events are deliberately omitted: resetTiming()
    // would discard the former and a priming pass is not part of the
    // measured experiment.
    const Addr line = lineOf(addr);
    LineState &st = _dir[line];
    const std::uint32_t me = 1u << requester;

    if (st.dirtyOwner != invalidNode && st.dirtyOwner != requester) {
        // Intervention: the owner's copy stays valid but is now
        // clean/shared; memory is (functionally) up to date.
        const NodeId owner = st.dirtyOwner;
        if (owner < static_cast<NodeId>(_nodes.size()) &&
            _nodes[owner]) {
            for (std::size_t l = 0; l < _nodes[owner]->numLevels();
                 ++l)
                _nodes[owner]->level(l).clean(line);
        }
        st.dirtyOwner = invalidNode;
        st.sharers |= me | (1u << owner);
        return;
    }
    st.sharers |= me;
}

mem::DramResult
Dec8400Memory::access(NodeId requester, Addr addr,
                      mem::FetchIntent intent, Tick earliest,
                      std::uint32_t bytes)
{
    const Addr line = lineOf(addr);
    LineState &st = _dir[line];
    const std::uint32_t me = 1u << requester;

    if (intent == mem::FetchIntent::Upgrade) {
        // Write hit on a clean line.  Exclusive ownership is silent
        // (MESI E); genuinely shared lines pay an address-only bus
        // transaction that invalidates the other copies.
        mem::DramResult res;
        res.start = earliest;
        res.dataReady = earliest;
        const bool exclusive =
            (st.sharers & ~me) == 0 &&
            (st.dirtyOwner == invalidNode ||
             st.dirtyOwner == requester);
        if (!exclusive) {
            ++_transactions;
            const Tick a = _addressBus.acquire(earliest, _arbTicks);
            if (_acct)
                _acct->charge(_addrRes, a, a + _arbTicks);
            res.dataReady = a + _arbTicks + _snoopTicks;
            for (NodeId n = 0;
                 n < static_cast<NodeId>(_nodes.size()); ++n) {
                if (n == requester || !_nodes[n])
                    continue;
                if (st.sharers & (1u << n)) {
                    _nodes[n]->invalidateLine(line);
                    ++_invalidationsSent;
                }
            }
        }
        st.sharers = me;
        st.dirtyOwner = requester;
        st.lastWriter = requester;
        return res;
    }

    ++_transactions;

    // Address phase: arbitration + snoop window.
    const Tick addr_start =
        _addressBus.acquire(earliest, _arbTicks);
    if (_acct)
        _acct->charge(_addrRes, addr_start, addr_start + _arbTicks);
    const Tick snooped = addr_start + _arbTicks + _snoopTicks;

    mem::DramResult res;

    if (intent == mem::FetchIntent::Write) {
        // Writeback (or uncached word write): memory is updated and
        // the requester gives up ownership.
        ++_memoryWrites;
        res = _dram.access(addr, mem::AccessType::Write, snooped,
                           bytes);
        if (st.dirtyOwner == requester)
            st.dirtyOwner = invalidNode;
        st.sharers &= ~me;
        st.lastWriter = requester;
        _bandwidth.addBytes(res.dataReady, bytes);
        GASNUB_TRACE(trace::Category::Mem, _traceTrack, "bus.write",
                     addr_start, res.dataReady, "node",
                     static_cast<std::uint64_t>(requester), "bytes",
                     bytes);
        return res;
    }

    if (st.dirtyOwner != invalidNode && st.dirtyOwner != requester) {
        // Intervention: the owning board sources the line; memory is
        // updated in the background.
        ++_interventions;
        const NodeId owner = st.dirtyOwner;
        const Tick data_ready = snooped + _interventionTicks;
        _dram.access(addr, mem::AccessType::Write, data_ready, bytes);
        if (owner < static_cast<NodeId>(_nodes.size()) &&
            _nodes[owner]) {
            // The owner's copy stays valid but is now clean/shared
            // (or gone, on a read-exclusive).
            if (intent == mem::FetchIntent::ReadExclusive)
                _nodes[owner]->invalidateLine(line);
            else
                for (std::size_t l = 0;
                     l < _nodes[owner]->numLevels(); ++l)
                    _nodes[owner]->level(l).clean(line);
        }
        st.dirtyOwner = invalidNode;
        st.sharers |= me | (1u << owner);
        res.start = addr_start;
        res.dataReady = data_ready;
        res.rowHit = false;
        _bandwidth.addBytes(data_ready, bytes);
        GASNUB_TRACE(trace::Category::Mem, _traceTrack,
                     "bus.intervention", addr_start, data_ready,
                     "node", static_cast<std::uint64_t>(requester),
                     "owner", static_cast<std::uint64_t>(owner));
    } else {
        // Served by shared memory.  The pipeline timestamp handed to
        // the requester's stream engine is the transaction start, so
        // the arbitration/snoop overhead is not compounded per line.
        ++_memoryReads;
        res = _dram.access(addr, mem::AccessType::Read, snooped, bytes);
        res.start = addr_start;
        if (st.lastWriter != invalidNode && st.lastWriter != requester)
            res.dataReady += _sharedLineTicks;
        st.sharers |= me;
        _bandwidth.addBytes(res.dataReady, bytes);
        GASNUB_TRACE(trace::Category::Mem, _traceTrack, "bus.read",
                     addr_start, res.dataReady, "node",
                     static_cast<std::uint64_t>(requester), "bytes",
                     bytes);
    }

    if (intent == mem::FetchIntent::ReadExclusive) {
        // Invalidate every other copy; the requester becomes owner.
        for (NodeId n = 0; n < static_cast<NodeId>(_nodes.size());
             ++n) {
            if (n == requester || !_nodes[n])
                continue;
            if (st.sharers & (1u << n)) {
                _nodes[n]->invalidateLine(line);
                ++_invalidationsSent;
            }
        }
        st.sharers = me;
        st.dirtyOwner = requester;
        st.lastWriter = requester;
    }
    return res;
}

void
Dec8400Memory::resetTiming()
{
    _dram.reset();
    _addressBus.reset();
}

void
Dec8400Memory::resetAll()
{
    resetTiming();
    _dir.clear();
}

} // namespace gasnub::bus
