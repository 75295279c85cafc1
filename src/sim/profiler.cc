#include "sim/profiler.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "sim/stats.hh"

namespace gasnub::prof {

namespace detail {
std::atomic<bool> profilingEnabled{false};
} // namespace detail

namespace {

/**
 * The calling thread's tree pointer.  The ThreadData itself lives in
 * the Profiler registry so it survives thread exit (pool workers are
 * joined before the report is written, but plain std::threads may die
 * earlier).
 */
thread_local Profiler::ThreadData *tlsData = nullptr;

} // namespace

Profiler &
Profiler::instance()
{
    static Profiler p;
    return p;
}

void
Profiler::enable(bool on)
{
    detail::profilingEnabled.store(on, std::memory_order_relaxed);
}

void
Profiler::enableFromEnv()
{
    const char *env = std::getenv("GASNUB_PROFILE");
    if (env && *env && std::strcmp(env, "0") != 0)
        enable(true);
}

Profiler::ThreadData &
Profiler::threadData()
{
    if (!tlsData) {
        auto data = std::make_unique<ThreadData>();
        tlsData = data.get();
        std::lock_guard<std::mutex> lock(_mutex);
        _threads.push_back(std::move(data));
    }
    return *tlsData;
}

std::size_t
Profiler::threads() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _threads.size();
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    // Threads may still hold pointers into their trees (tlsData /
    // current), so zero the data rather than freeing it.  Only safe
    // with no zone currently open, like merged().
    for (auto &t : _threads) {
        t->root.calls = 0;
        t->root.totalNs = 0;
        for (auto &n : t->nodes) {
            n->calls = 0;
            n->totalNs = 0;
        }
    }
}

void
Zone::enter(const char *name)
{
    Profiler::ThreadData &t = Profiler::instance().threadData();
    Profiler::Node *parent = t.current;
    Profiler::Node *node = nullptr;
    for (Profiler::Node *c : parent->children) {
        // Literal names usually dedupe to one pointer; fall back to a
        // content compare for identical zones in different TUs.
        if (c->name == name || std::strcmp(c->name, name) == 0) {
            node = c;
            break;
        }
    }
    if (!node) {
        t.nodes.push_back(std::make_unique<Profiler::Node>());
        node = t.nodes.back().get();
        node->name = name;
        node->parent = parent;
        parent->children.push_back(node);
    }
    t.current = node;
    _node = node;
    _start = std::chrono::steady_clock::now();
}

void
Zone::exit()
{
    const auto end = std::chrono::steady_clock::now();
    _node->calls += 1;
    _node->totalNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                             _start)
            .count());
    Profiler::ThreadData &t = Profiler::instance().threadData();
    t.current = _node->parent;
}

// ------------------------------------------------------------------
// Merging and reporting

namespace {

/** A node of the merged (cross-thread) tree. */
struct MergedNode
{
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0;
    std::vector<std::unique_ptr<MergedNode>> children;

    MergedNode &child(const std::string &n)
    {
        for (auto &c : children)
            if (c->name == n)
                return *c;
        children.push_back(std::make_unique<MergedNode>());
        children.back()->name = n;
        return *children.back();
    }
};

void
foldInto(MergedNode &dst, const Profiler::Node &src)
{
    for (const Profiler::Node *c : src.children) {
        MergedNode &m = dst.child(c->name);
        m.calls += c->calls;
        m.totalNs += c->totalNs;
        foldInto(m, *c);
    }
}

void
flatten(const MergedNode &node, const std::string &path,
        unsigned depth, std::vector<ZoneStats> &out)
{
    // Children in name order: the merged output is independent of the
    // thread registration and zone first-entry order.
    std::vector<const MergedNode *> kids;
    for (const auto &c : node.children)
        kids.push_back(c.get());
    std::sort(kids.begin(), kids.end(),
              [](const MergedNode *a, const MergedNode *b) {
                  return a->name < b->name;
              });
    for (const MergedNode *c : kids) {
        ZoneStats z;
        z.path = path.empty() ? c->name : path + ";" + c->name;
        z.name = c->name;
        z.depth = depth;
        z.calls = c->calls;
        z.totalNs = c->totalNs;
        std::uint64_t childNs = 0;
        for (const auto &g : c->children)
            childNs += g->totalNs;
        // Strict nesting on one monotonic clock makes childNs <=
        // totalNs; guard anyway so a report never shows garbage.
        z.selfNs = c->totalNs >= childNs ? c->totalNs - childNs : 0;
        // Copy the path before recursing: push_back below may
        // reallocate `out`, invalidating references into it.
        const std::string childPath = z.path;
        out.push_back(z);
        flatten(*c, childPath, depth + 1, out);
    }
}

std::string
formatSeconds(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%10.6f",
                  static_cast<double>(ns) / 1e9);
    return buf;
}

} // namespace

std::vector<ZoneStats>
Profiler::merged() const
{
    MergedNode root;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (const auto &t : _threads)
            foldInto(root, t->root);
    }
    std::vector<ZoneStats> out;
    flatten(root, "", 0, out);
    return out;
}

void
Profiler::report(std::ostream &os) const
{
    const std::vector<ZoneStats> zones = merged();
    os << "== profile: " << zones.size() << " zones, " << threads()
       << " thread" << (threads() == 1 ? "" : "s") << " ==\n";
    if (zones.empty()) {
        os << "  (no zones recorded; enable with --profile or "
              "GASNUB_PROFILE=1)\n";
        return;
    }
    std::vector<const ZoneStats *> ranked;
    for (const ZoneStats &z : zones)
        ranked.push_back(&z);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const ZoneStats *a, const ZoneStats *b) {
                         return a->selfNs > b->selfNs;
                     });
    os << "    self s     total s        calls  zone\n";
    for (const ZoneStats *z : ranked) {
        char calls[24];
        std::snprintf(calls, sizeof(calls), "%12llu",
                      static_cast<unsigned long long>(z->calls));
        os << formatSeconds(z->selfNs) << "  "
           << formatSeconds(z->totalNs) << "  " << calls << "  "
           << z->path << "\n";
    }
}

void
Profiler::reportJson(std::ostream &os) const
{
    const std::vector<ZoneStats> zones = merged();
    os << "{\"schema\":\"gasnub-profile-1\",\"threads\":"
       << threads() << ",\"zones\":[";
    bool first = true;
    for (const ZoneStats &z : zones) {
        os << (first ? "" : ",") << "{\"path\":\"";
        stats::jsonEscape(os, z.path);
        os << "\",\"name\":\"";
        stats::jsonEscape(os, z.name);
        os << "\",\"depth\":" << z.depth << ",\"calls\":" << z.calls
           << ",\"totalNs\":" << z.totalNs << ",\"selfNs\":" << z.selfNs
           << "}";
        first = false;
    }
    os << "]}\n";
}

void
Profiler::reportFolded(std::ostream &os) const
{
    for (const ZoneStats &z : merged()) {
        const std::uint64_t us = z.selfNs / 1000;
        if (us == 0)
            continue;
        os << z.path << " " << us << "\n";
    }
}

} // namespace gasnub::prof
