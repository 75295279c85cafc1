#include "noc/torus.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/units.hh"

namespace gasnub::noc {

namespace {

Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * 1000.0 + 0.5);
}

} // namespace

Torus::Torus(const TorusConfig &config, stats::Group *parent)
    : _config(config),
      _numNodes(config.dimX * config.dimY * config.dimZ *
                config.procsPerNic),
      _nicCount(config.dimX * config.dimY * config.dimZ),
      _hopTicks(nsToTicks(config.hopNs)),
      _nicTicks(nsToTicks(config.nicNs)),
      _switchTicks(nsToTicks(config.partnerSwitchNs)),
      _stats(config.name),
      _packets(&_stats, config.name + ".packets", "packets sent"),
      _payloadBytes(&_stats, config.name + ".payloadBytes",
                    "payload bytes carried"),
      _partnerSwitches(&_stats, config.name + ".partnerSwitches",
                       "per-message partner switches"),
      _linkBusyTicks(&_stats, config.name + ".linkBusyTicks",
                     "occupancy in ticks per directed link",
                     static_cast<std::size_t>(config.dimX) *
                         config.dimY * config.dimZ * 6),
      _bandwidth(&_stats, config.name + ".bandwidth",
                 "payload bytes delivered per time bucket"),
      _packetLatency(&_stats, config.name + ".packetLatency",
                     "inject-to-arrival latency in ticks (log2 "
                     "buckets)"),
      _faultDetours(&_stats, config.name + ".faults.detours",
                    "rings routed the long way around a severed link"),
      _faultSlowTicks(&_stats, config.name + ".faults.slowTicks",
                      "extra link occupancy injected by slow links"),
      _faultNicStalls(&_stats, config.name + ".faults.nicStalls",
                      "injections delayed by NIC backpressure"),
      _faultNicStallTicks(&_stats,
                          config.name + ".faults.nicStallTicks",
                          "injection delay from NIC backpressure"),
      _traceTrack(trace::Tracer::instance().track(config.name))
{
    GASNUB_ASSERT(config.dimX >= 1 && config.dimY >= 1 &&
                      config.dimZ >= 1,
                  "torus dimensions must be >= 1");
    GASNUB_ASSERT(config.procsPerNic >= 1, "procsPerNic must be >= 1");
    GASNUB_ASSERT(config.linkMBs > 0, "link bandwidth must be > 0");
    // Six directed links (+x, -x, +y, -y, +z, -z) per router.
    _links.resize(static_cast<std::size_t>(_nicCount) * 6);
    _nicsOut.resize(_nicCount);
    _nicsIn.resize(_nicCount);
    _lastPartner.assign(_nicCount, invalidNode);
    for (auto &l : _links)
        l.enableBackfill();
    for (auto &p : _nicsOut)
        p.enableBackfill();
    for (auto &p : _nicsIn)
        p.enableBackfill();
    // Stable per-link subnames for the human dump: router index plus
    // outgoing direction ("r3.+x").
    static const char *const dir_names[6] = {"+x", "-x", "+y",
                                             "-y", "+z", "-z"};
    for (int r = 0; r < _nicCount; ++r) {
        std::string router(1, 'r');
        router += std::to_string(r);
        for (int d = 0; d < 6; ++d)
            _linkBusyTicks.subname(static_cast<std::size_t>(r) * 6 + d,
                                   router + dir_names[d]);
    }
    if (parent)
        parent->addChild(&_stats);
}

TorusCoord
Torus::coordOf(NodeId id) const
{
    GASNUB_ASSERT(id >= 0 && id < _numNodes, "bad node id ", id);
    const int router = id / _config.procsPerNic;
    TorusCoord c;
    c.x = router % _config.dimX;
    c.y = (router / _config.dimX) % _config.dimY;
    c.z = router / (_config.dimX * _config.dimY);
    return c;
}

namespace {

/** Hops along one ring taking the shorter direction; dir is +-1. */
int
ringHops(int from, int to, int size, int &dir)
{
    int fwd = (to - from + size) % size;
    int bwd = (from - to + size) % size;
    if (fwd <= bwd) {
        dir = 1;
        return fwd;
    }
    dir = -1;
    return bwd;
}

} // namespace

int
Torus::hopCount(NodeId src, NodeId dst) const
{
    const TorusCoord a = coordOf(src);
    const TorusCoord b = coordOf(dst);
    int dir = 0;
    return ringHops(a.x, b.x, _config.dimX, dir) +
           ringHops(a.y, b.y, _config.dimY, dir) +
           ringHops(a.z, b.z, _config.dimZ, dir);
}

std::size_t
Torus::linkIndex(int dim, int dir, int router,
                 const TorusCoord &) const
{
    // dim 0..2, dir 0 (positive) or 1 (negative).
    return static_cast<std::size_t>(router) * 6 + dim * 2 + dir;
}

void
Torus::route(NodeId src, NodeId dst, std::vector<std::size_t> &links,
             int &detours) const
{
    links.clear();
    TorusCoord at = coordOf(src);
    const TorusCoord to = coordOf(dst);
    const int dims[3] = {_config.dimX, _config.dimY, _config.dimZ};
    int *cur[3] = {&at.x, &at.y, &at.z};
    const int tgt[3] = {to.x, to.y, to.z};

    // Dimension-order (X, then Y, then Z) routing, shortest direction.
    for (int d = 0; d < 3; ++d) {
        int dir = 0;
        int hops = ringHops(*cur[d], tgt[d], dims[d], dir);
        if (hops == 0)
            continue;
        if (_anyLinkDown) {
            // Does the ring walk from the current coordinate along
            // dir_sign cross a severed link?
            const auto clear = [&](int dir_sign, int nhops) {
                int c = *cur[d];
                for (int h = 0; h < nhops; ++h) {
                    int xyz[3] = {at.x, at.y, at.z};
                    xyz[d] = c;
                    const int router =
                        xyz[0] +
                        _config.dimX * (xyz[1] + _config.dimY * xyz[2]);
                    const std::size_t l = linkIndex(
                        d, dir_sign > 0 ? 0 : 1, router, at);
                    if (_linkDownMap[l])
                        return false;
                    c = (c + dir_sign + dims[d]) % dims[d];
                }
                return true;
            };
            if (!clear(dir, hops)) {
                // Detour: take the ring the long way round, keeping
                // dimension order intact.
                const int other = dims[d] - hops;
                if (!clear(-dir, other))
                    throw sim::FaultError(
                        0, "no fault-free route from node " +
                               std::to_string(src) + " to node " +
                               std::to_string(dst) +
                               ": both directions of a ring are "
                               "severed");
                dir = -dir;
                hops = other;
                ++detours;
            }
        }
        for (int h = 0; h < hops; ++h) {
            const int router =
                at.x + _config.dimX * (at.y + _config.dimY * at.z);
            links.push_back(linkIndex(d, dir > 0 ? 0 : 1, router, at));
            *cur[d] = (*cur[d] + dir + dims[d]) % dims[d];
        }
    }
}

PacketResult
Torus::send(NodeId src, NodeId dst, std::uint32_t payload_bytes,
            Tick earliest)
{
    GASNUB_PROF_ZONE("noc.send");
    GASNUB_ASSERT(src >= 0 && src < _numNodes, "bad src node ", src);
    GASNUB_ASSERT(dst >= 0 && dst < _numNodes, "bad dst node ", dst);
    ++_packets;
    _payloadBytes += static_cast<double>(payload_bytes);

    const std::uint32_t wire_bytes = payload_bytes + _config.headerBytes;
    const Tick wire_ticks = ticksForBytes(wire_bytes, _config.linkMBs);

    const int src_nic = src / _config.procsPerNic;
    const int dst_nic = dst / _config.procsPerNic;

    // Per-message partner switch overhead at the source NIC.
    Tick inject_earliest = earliest;
    if (_lastPartner[src_nic] != dst) {
        if (_lastPartner[src_nic] != invalidNode) {
            ++_partnerSwitches;
            inject_earliest += _switchTicks;
        }
        _lastPartner[src_nic] = dst;
    }

    // Injected NIC backpressure at the source.
    if (!_nicFault.empty() && _nicFault[src_nic]) {
        const Tick delayed = _nicFault[src_nic]->nicDelay(
            inject_earliest);
        if (delayed != inject_earliest) {
            ++_faultNicStalls;
            _faultNicStallTicks +=
                static_cast<double>(delayed - inject_earliest);
            if (_acct)
                _acct->stall(_nicRes, delayed - inject_earliest);
            inject_earliest = delayed;
        }
    }

    // Source NIC injection port busy for the whole packet.
    const Tick injected = _nicsOut[src_nic].acquire(
        inject_earliest, _nicTicks + wire_ticks);
    if (_acct)
        _acct->charge(_nicRes, injected,
                      injected + _nicTicks + wire_ticks);

    PacketResult res;
    res.injected = injected;

    if (src_nic == dst_nic) {
        // Loopback: ejected through the shared NIC's input port.
        const Tick eject = _nicsIn[dst_nic].acquire(
            injected + _nicTicks + wire_ticks, _nicTicks);
        if (_acct)
            _acct->charge(_nicRes, eject, eject + _nicTicks);
        res.arrived = eject + _nicTicks;
        res.hops = 0;
        _bandwidth.addBytes(res.arrived, payload_bytes);
        _packetLatency.sample(res.arrived - res.injected);
        GASNUB_TRACE(trace::Category::Noc, _traceTrack, "packet",
                     res.injected, res.arrived, "dst",
                     static_cast<std::uint64_t>(dst), "bytes",
                     static_cast<std::uint64_t>(payload_bytes));
        return res;
    }

    if (src != _routeCacheSrc || dst != _routeCacheDst) {
        // Invalidate first: route() throws when every direction of a
        // ring is severed, and a half-written cache must not survive.
        _routeCacheSrc = invalidNode;
        _routeCacheDst = invalidNode;
        int detours = 0;
        route(src, dst, _routeCache, detours);
        _routeCacheDetours = detours;
        _routeCacheSrc = src;
        _routeCacheDst = dst;
    }
    if (_routeCacheDetours)
        _faultDetours += _routeCacheDetours;
    res.hops = static_cast<int>(_routeCache.size());

    // Cut-through: the head advances one hop latency per router; each
    // link is occupied for the full wire time of the packet.
    Tick head = injected + _nicTicks;
    for (const std::size_t l : _routeCache) {
        Tick occupy = wire_ticks;
        if (_anyLinkSlow && _linkSlow[l] != 1.0) {
            // A slow link carries the same bytes at a fraction of the
            // bandwidth: occupancy scales by the divisor.
            occupy = static_cast<Tick>(
                static_cast<double>(wire_ticks) * _linkSlow[l] + 0.5);
            _faultSlowTicks +=
                static_cast<double>(occupy - wire_ticks);
        }
        const Tick start = _links[l].acquire(head, occupy);
        _linkBusyTicks[l] += static_cast<double>(occupy);
        if (_acct)
            _acct->charge(_linkRes, start, start + occupy);
        head = start + _hopTicks;
    }
    // Tail arrives one wire time after the head clears the last link;
    // the destination NIC's eject port takes the packet.
    const Tick eject =
        _nicsIn[dst_nic].acquire(head + wire_ticks, _nicTicks);
    if (_acct)
        _acct->charge(_nicRes, eject, eject + _nicTicks);
    res.arrived = eject + _nicTicks;
    _bandwidth.addBytes(res.arrived, payload_bytes);
    _packetLatency.sample(res.arrived - res.injected);
    GASNUB_TRACE(trace::Category::Noc, _traceTrack, "packet",
                 res.injected, res.arrived, "dst",
                 static_cast<std::uint64_t>(dst), "bytes",
                 static_cast<std::uint64_t>(payload_bytes));
    return res;
}

void
Torus::setFaults(sim::FaultDomain *domain)
{
    _linkSlow.clear();
    _linkDownMap.clear();
    _nicFault.clear();
    _anyLinkSlow = false;
    _anyLinkDown = false;
    // Severed links change the detour structure: drop the route cache.
    _routeCacheSrc = invalidNode;
    _routeCacheDst = invalidNode;
    _routeCacheDetours = 0;
    if (!domain)
        return;
    for (const sim::FaultSpec &s : domain->plan().specs()) {
        const bool link_fault =
            s.kind == sim::FaultKind::LinkSlow ||
            s.kind == sim::FaultKind::LinkDown ||
            s.kind == sim::FaultKind::NicBackpressure;
        if (link_fault && s.router >= _nicCount)
            GASNUB_WARN("fault spec targets router ", s.router,
                        " but '", _config.name, "' only has ",
                        _nicCount, " routers; it will never fire");
    }
    if (domain->hasLinkFaults()) {
        _linkSlow.assign(_links.size(), 1.0);
        _linkDownMap.assign(_links.size(), 0);
        for (int r = 0; r < _nicCount; ++r) {
            for (int d = 0; d < 6; ++d) {
                const std::size_t l =
                    static_cast<std::size_t>(r) * 6 + d;
                _linkSlow[l] = domain->linkFactor(r, d);
                if (_linkSlow[l] != 1.0)
                    _anyLinkSlow = true;
                _linkDownMap[l] = domain->linkDown(r, d);
                if (_linkDownMap[l])
                    _anyLinkDown = true;
            }
        }
    }
    _nicFault.assign(_nicCount, nullptr);
    bool any_nic = false;
    for (int r = 0; r < _nicCount; ++r) {
        _nicFault[r] = domain->nicSite(r);
        any_nic = any_nic || _nicFault[r];
    }
    if (!any_nic)
        _nicFault.clear();
}

void
Torus::reset()
{
    for (auto &l : _links)
        l.reset();
    for (auto &n : _nicsOut)
        n.reset();
    for (auto &n : _nicsIn)
        n.reset();
    std::fill(_lastPartner.begin(), _lastPartner.end(), invalidNode);
}

} // namespace gasnub::noc
