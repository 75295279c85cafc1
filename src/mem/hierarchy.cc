#include "mem/hierarchy.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace gasnub::mem {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config,
                                 stats::Group *parent)
    : _config(config),
      _dram(config.dram),
      _readAhead(config.stream),
      _readWindow(std::max<std::uint32_t>(config.cpu.readWindow, 1)),
      _writeWindow(std::max<std::uint32_t>(config.cpu.writeWindow, 1)),
      _stats(config.name),
      _reads(&_stats, config.name + ".reads", "word loads issued"),
      _writes(&_stats, config.name + ".writes", "word stores issued"),
      _dramLineFills(&_stats, config.name + ".dramLineFills",
                     "cache lines filled from DRAM"),
      _fillBandwidth(&_stats, config.name + ".fillBandwidth",
                     "line-fill bytes per time bucket"),
      _traceTrack(trace::Tracer::instance().track(config.name))
{
    GASNUB_ASSERT(!config.levels.empty(),
                  "hierarchy needs at least one cache level");
    GASNUB_ASSERT(config.levels.size() <= kMaxLevels,
                  "too many cache levels");
    GASNUB_ASSERT(config.cpu.clockMhz > 0, "bad clock");
    _loadIssueTicks = cyclesToTicks(config.cpu.loadIssueCycles);
    _storeIssueTicks = cyclesToTicks(config.cpu.storeIssueCycles);
    _dramFrontTicks = nsTicks(config.dramFrontNs);
    _dramBackTicks = nsTicks(config.dramBackNs);
    _streamLineTicks =
        config.streamLineNs > 0 ? nsTicks(config.streamLineNs) : 0;
    for (const LevelConfig &lc : config.levels) {
        LevelTicks lt;
        lt.hit = nsTicks(lc.timing.hitNs);
        lt.hitOcc = nsTicks(lc.timing.hitOccupancyNs);
        lt.fillOcc = nsTicks(lc.timing.fillOccupancyNs);
        _levelTicks.push_back(lt);
    }
    _lastLineBytes = config.levels.back().cache.lineBytes;
    _lastLineMask = ~static_cast<Addr>(_lastLineBytes - 1);

    for (const LevelConfig &lc : config.levels)
        _caches.push_back(std::make_unique<Cache>(lc.cache, &_stats));
    _ports.resize(_caches.size());

    _stats.addChild(&_dram.statsGroup());
    _stats.addChild(&_readAhead.statsGroup());

    if (config.wbq) {
        _wbq = std::make_unique<WriteBackQueue>(
            *config.wbq,
            [this](Addr chunk, std::uint32_t bytes, Tick start) {
                return _dram
                    .access(chunk, AccessType::Write, start, bytes)
                    .dataReady;
            },
            &_stats);
    }

    if (parent)
        parent->addChild(&_stats);
}

Tick
MemoryHierarchy::cyclesToTicks(double cycles) const
{
    return static_cast<Tick>(cycles * 1e6 / _config.cpu.clockMhz + 0.5);
}

Tick
MemoryHierarchy::nsTicks(double ns) const
{
    return static_cast<Tick>(ns * 1000.0 + 0.5);
}

Cache &
MemoryHierarchy::level(std::size_t i)
{
    GASNUB_ASSERT(i < _caches.size(), "bad cache level ", i);
    return *_caches[i];
}

mem::DramResult
MemoryHierarchy::memorySide(Addr addr, FetchIntent intent, Tick earliest,
                            std::uint32_t bytes)
{
    if (_dramHook)
        return _dramHook(addr, intent, earliest, bytes);
    const AccessType t = intent == FetchIntent::Write
                             ? AccessType::Write
                             : AccessType::Read;
    return _dram.access(addr, t, earliest, bytes);
}

Tick
MemoryHierarchy::memoryFill(Addr line_addr, std::uint32_t line_bytes,
                            Tick issue, const StreamHit &sh,
                            bool exclusive)
{
    ++_dramLineFills;

    Tick earliest;
    if (sh.covered) {
        // Decoupled prefetch: the next fill issues one pipelined line
        // interval after the previous one, bounded by how far ahead of
        // the processor the stream engine may run.
        const Tick pipelined =
            _readAhead.lastStart(sh.slot) + _streamLineTicks;
        const Tick lookahead =
            static_cast<Tick>(_config.streamDepth) * _streamLineTicks;
        const Tick floor = issue > lookahead ? issue - lookahead : 0;
        earliest = std::max(pipelined, floor);
    } else {
        earliest = issue + _dramFrontTicks;
    }

    const DramResult dr = memorySide(
        line_addr,
        exclusive ? FetchIntent::ReadExclusive : FetchIntent::Read,
        earliest, line_bytes);
    if (sh.covered) {
        _readAhead.setLastStart(sh.slot, dr.start);
        // The decoupled stream engine is tied up for one pipelined
        // line interval per covered fill — the contiguous-ridge
        // bandwidth floor.
        if (_acct && _streamLineTicks > 0)
            _acct->charge(_streamRes, dr.start,
                          dr.start + _streamLineTicks);
    }

    Tick ready = dr.dataReady + _dramBackTicks;
    const Tick min_use = issue + cyclesToTicks(1);
    ready = std::max(ready, min_use);
    _fillBandwidth.addBytes(ready, line_bytes);
    GASNUB_TRACE(trace::Category::Mem, _traceTrack,
                 sh.covered ? "fill.stream" : "fill.demand", issue,
                 ready, "bytes",
                 static_cast<std::uint64_t>(line_bytes));
    return ready;
}

void
MemoryHierarchy::postWriteback(std::size_t from_level, Addr victim_line,
                               Tick earliest)
{
    const std::size_t target = from_level + 1;
    const std::uint32_t line_bytes =
        _config.levels[from_level].cache.lineBytes;
    if (target == _caches.size()) {
        // Last-level victim goes to DRAM; posted write, occupies the
        // bank and bus but never blocks the demand path directly.
        memorySide(victim_line, FetchIntent::Write, earliest,
                   line_bytes);
        return;
    }
    const CacheResult r = _caches[target]->install(victim_line);
    const Tick occ = _levelTicks[target].fillOcc;
    const Tick start = _ports[target].acquire(earliest, occ);
    if (_acct)
        _acct->charge(_cacheRes, start, start + occ);
    if (r.evictedDirty)
        postWriteback(target, r.victimAddr, earliest);
}

Tick
MemoryHierarchy::read(Addr addr)
{
    GASNUB_PROF_ZONE("mem.read");
    ++_reads;
    return readOne(addr);
}

void
MemoryHierarchy::probe(std::size_t from, Addr addr, Walk &w)
{
    // Allocation at an upper level never changes a deeper level's
    // probe, so one mutating top-down pass finds the serving level and
    // records each level's victim for the fill unwind.
    const std::size_t n = _caches.size();
    w.served = n;
    for (std::size_t k = from; k < n; ++k) {
        w.levels[k] = _caches[k]->access(addr, AccessType::Read);
        if (w.levels[k].hit) {
            w.served = k;
            return;
        }
    }
    // Nothing between here and the fill touches the stream detector,
    // so its verdict serves both window accounting and the fill.
    w.stream = _readAhead.note(addr & _lastLineMask, _lastLineBytes);
}

Tick
MemoryHierarchy::serveAndFill(std::size_t from, Addr addr, Tick issue,
                              const Walk &w, bool exclusive)
{
    Tick below;
    if (w.served == _caches.size()) {
        below = memoryFill(addr & _lastLineMask, _lastLineBytes, issue,
                           w.stream, exclusive);
    } else {
        const LevelTicks &t = _levelTicks[w.served];
        const Tick start = _ports[w.served].acquire(issue, t.hitOcc);
        if (_acct)
            _acct->charge(_cacheRes, start, start + t.hitOcc);
        below = std::max(start + t.hitOcc, issue + t.hit);
    }

    // Fill upward, deepest first: each level posts its dirty victim,
    // then passes the line on once its port is free.
    for (std::size_t j = w.served; j-- > from;) {
        if (w.levels[j].evictedDirty)
            postWriteback(j, w.levels[j].victimAddr, below);
        const Tick fill_occ = _levelTicks[j].fillOcc;
        const Tick start = _ports[j].acquire(below, fill_occ);
        if (_acct)
            _acct->charge(_cacheRes, start, start + fill_occ);
        below = start + fill_occ;
    }
    return below;
}

Tick
MemoryHierarchy::serveWrite(std::size_t level, Addr addr, Tick issue)
{
    const std::size_t n = _caches.size();
    if (level == n) {
        // Uncached word-granularity write to DRAM.
        const DramResult dr = memorySide(
            addr, FetchIntent::Write, issue + _dramFrontTicks,
            static_cast<std::uint32_t>(wordBytes));
        return dr.dataReady;
    }

    const LevelTicks &t = _levelTicks[level];
    const CacheResult r =
        _caches[level]->access(addr, AccessType::Write);
    if (r.hit) {
        const Tick occ = t.hitOcc;
        const Tick start = _ports[level].acquire(issue, occ);
        if (_acct)
            _acct->charge(_cacheRes, start, start + occ);
        Tick done = start + occ;
        if (_config.levels[level].cache.writePolicy ==
            WritePolicy::WriteThrough) {
            // Write-through: the word continues downstream.
            done = serveWrite(level + 1, addr, issue);
        } else if (!r.wasDirty && _dramHook) {
            // First write to a clean cached line: the coherence
            // protocol must gain ownership (invalidate other copies).
            const DramResult up =
                _dramHook(addr, FetchIntent::Upgrade, issue, 0);
            done = std::max(done, up.dataReady);
        }
        return done;
    }

    if (r.allocated) {
        // Write-allocate: this level's miss heads a read-for-ownership
        // walk that fetches the line from below, then writes it.
        Walk w;
        w.levels[level] = r;
        probe(level + 1, addr, w);
        return serveAndFill(level, addr, issue, w, true);
    }

    // No-write-allocate miss (write-through L1): forward downstream.
    return serveWrite(level + 1, addr, issue);
}

Tick
MemoryHierarchy::write(Addr addr)
{
    GASNUB_PROF_ZONE("mem.write");
    ++_writes;
    return writeOne(addr);
}

Tick
MemoryHierarchy::writeOne(Addr addr)
{
    const Tick want = _nextIssue;

    if (_wbq) {
        // T3D path: the write-through L1 updates its copy on a hit and
        // every store enters the coalescing write-back queue.
        _caches[0]->access(addr, AccessType::Write);
        const Tick proceed = _wbq->store(addr, want);
        _nextIssue = proceed + _storeIssueTicks;
        if (_acct)
            _acct->charge(_issueRes, proceed, _nextIssue);
        _lastComplete = std::max(_lastComplete, proceed);
        return proceed;
    }

    const Tick issue = std::max(want, _writeWindow.admit(want));
    _nextIssue = issue + _storeIssueTicks;
    if (_acct)
        _acct->charge(_issueRes, issue, _nextIssue);

    const Tick done = serveWrite(0, addr, issue);
    _writeWindow.complete(done);
    _lastComplete = std::max(_lastComplete, done);
    return done;
}

Tick
MemoryHierarchy::readOne(Addr addr)
{
    const Tick want = _nextIssue;
    Walk w;
    probe(0, addr, w);

    // Reads served at or below windowFromLevel hold a slot of the
    // bounded read window, unless the stream engine covers the fill.
    const bool uses_window =
        w.served >= _config.windowFromLevel && !w.stream.covered;
    const Tick issue = uses_window ? _readWindow.admit(want) : want;
    _nextIssue = issue + _loadIssueTicks;
    if (_acct)
        _acct->charge(_issueRes, issue, _nextIssue);

    const Tick ready = serveAndFill(0, addr, issue, w, false);
    if (uses_window) {
        _readWindow.complete(ready);
        if (_config.blockingOffchipReads)
            _nextIssue = std::max(_nextIssue, ready);
    }
    _lastComplete = std::max(_lastComplete, ready);
    return ready;
}

void
MemoryHierarchy::readBatch(const Addr *addrs, std::size_t n)
{
    GASNUB_PROF_ZONE("mem.readBatch");
    _reads += static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
        readOne(addrs[i]);
}

void
MemoryHierarchy::writeBatch(const Addr *addrs, std::size_t n)
{
    GASNUB_PROF_ZONE("mem.writeBatch");
    _writes += static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
        writeOne(addrs[i]);
}

void
MemoryHierarchy::processBatch(const AccessBatch &batch)
{
    GASNUB_PROF_ZONE("mem.batch");
    std::size_t reads = 0;
    for (std::size_t i = 0; i < batch.count; ++i)
        reads += batch.kinds[i] == AccessType::Read ? 1 : 0;
    _reads += static_cast<double>(reads);
    _writes += static_cast<double>(batch.count - reads);
    for (std::size_t i = 0; i < batch.count; ++i) {
        if (batch.kinds[i] == AccessType::Read)
            readOne(batch.addrs[i]);
        else
            writeOne(batch.addrs[i]);
    }
}

void
MemoryHierarchy::primeBatch(const Addr *addrs, std::size_t n)
{
    GASNUB_PROF_ZONE("mem.prime");
    const std::size_t levels = _caches.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = addrs[i];
        std::size_t k = 0;
        for (; k < levels; ++k) {
            const CacheResult r =
                _caches[k]->access(addr, AccessType::Read);
            // Priming reads on resetAll()-clean caches can only evict
            // clean lines; a dirty victim means the caller primed a
            // warm cache and the skipped writeback would diverge from
            // the timed oracle.
            GASNUB_ASSERT(!r.evictedDirty,
                          "functional prime evicted a dirty line");
            if (r.hit)
                break;
        }
        if (k == levels && _primeHook)
            _primeHook(addr & _lastLineMask);
    }
}

Tick
MemoryHierarchy::drain()
{
    Tick done = std::max(_nextIssue, _lastComplete);
    if (_wbq)
        done = std::max(done, _wbq->drainAll(done));
    _lastComplete = std::max(_lastComplete, done);
    return done;
}

void
MemoryHierarchy::resetTiming()
{
    for (Resource &p : _ports)
        p.reset();
    _dram.reset();
    _readAhead.reset();
    if (_wbq)
        _wbq->reset();
    _readWindow.reset();
    _writeWindow.reset();
    _nextIssue = 0;
    _lastComplete = 0;
}

void
MemoryHierarchy::resetAll()
{
    resetTiming();
    for (auto &c : _caches)
        c->invalidateAll();
}

Tick
MemoryHierarchy::engineAccess(Addr addr, AccessType type, Tick earliest,
                              std::uint32_t bytes)
{
    return _dram.access(addr, type, earliest, bytes).dataReady;
}

void
MemoryHierarchy::invalidateLine(Addr addr)
{
    for (auto &c : _caches)
        c->invalidate(addr);
}

} // namespace gasnub::mem
