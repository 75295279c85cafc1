#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>

#include "sim/logging.hh"

namespace gasnub::stats {

void
jsonEscape(std::ostream &os, std::string_view s)
{
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char hex[] = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
}

namespace {

/** A JSON string literal. */
void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    jsonEscape(os, s);
    os << '"';
}

/**
 * Print a double as a JSON number: integral values (the common case
 * for counters) print without a fraction; everything else with
 * round-trip precision.  NaN/inf (possible in formulas) become null,
 * which JSON requires.
 */
void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
        os << static_cast<long long>(v);
        return;
    }
    const auto flags = os.flags();
    const auto prec = os.precision();
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    os.flags(flags);
    os.precision(prec);
}

/** Common {"name":...,"type":...,"desc":... prefix of a stat. */
void
jsonHead(std::ostream &os, const StatBase &s, const char *type)
{
    os << "{\"name\":";
    jsonString(os, s.name());
    os << ",\"type\":\"" << type << "\",\"desc\":";
    jsonString(os, s.desc());
}

/**
 * Downcast @p other for a merge; fatal when the concrete types differ
 * (merging is only defined between stats of identical declaration).
 */
template <typename T>
const T &
mergePeer(const StatBase &self, const StatBase &other)
{
    const T *peer = dynamic_cast<const T *>(&other);
    GASNUB_ASSERT(peer != nullptr, "stat merge type mismatch at '",
                  self.name(), "' / '", other.name(), "'");
    return *peer;
}

} // namespace

StatBase::StatBase(Group *group, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (group)
        group->add(this);
}

void
Scalar::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << _value << " # " << desc() << "\n";
}

void
Scalar::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "scalar");
    os << ",\"value\":";
    jsonNumber(os, _value);
    os << "}";
}

void
Scalar::mergeFrom(const StatBase &other)
{
    _value += mergePeer<Scalar>(*this, other)._value;
}

void
Average::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << mean() << " # " << desc()
       << " (n=" << _count << ")\n";
}

void
Average::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "average");
    os << ",\"mean\":";
    jsonNumber(os, mean());
    os << ",\"count\":" << _count << "}";
}

void
Average::mergeFrom(const StatBase &other)
{
    const Average &peer = mergePeer<Average>(*this, other);
    _sum += peer._sum;
    _count += peer._count;
}

Distribution::Distribution(Group *group, std::string name,
                           std::string desc, double min, double max,
                           int buckets)
    : StatBase(group, std::move(name), std::move(desc)),
      _min(min), _max(max),
      _width((max - min) / std::max(buckets, 1)),
      _buckets(static_cast<std::size_t>(std::max(buckets, 1)), 0)
{
    GASNUB_ASSERT(max > min, "distribution range empty");
    GASNUB_ASSERT(buckets >= 1, "distribution needs >= 1 bucket");
}

void
Distribution::sample(double v)
{
    if (_count == 0) {
        _minSeen = v;
        _maxSeen = v;
    } else {
        _minSeen = std::min(_minSeen, v);
        _maxSeen = std::max(_maxSeen, v);
    }
    ++_count;
    _sum += v;
    if (v < _min) {
        ++_underflow;
    } else if (v >= _max) {
        ++_overflow;
    } else {
        auto idx = static_cast<std::size_t>((v - _min) / _width);
        idx = std::min(idx, _buckets.size() - 1);
        ++_buckets[idx];
    }
}

void
Distribution::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " mean="
       << mean() << " n=" << _count << " min=" << _minSeen
       << " max=" << _maxSeen << " # " << desc() << "\n";
    if (_underflow)
        os << "  " << name() << ".underflow " << _underflow << "\n";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        os << "  " << name() << ".bucket[" << (_min + i * _width) << ","
           << (_min + (i + 1) * _width) << ") " << _buckets[i] << "\n";
    }
    if (_overflow)
        os << "  " << name() << ".overflow " << _overflow << "\n";
}

void
Distribution::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "distribution");
    os << ",\"min\":";
    jsonNumber(os, _min);
    os << ",\"max\":";
    jsonNumber(os, _max);
    os << ",\"count\":" << _count << ",\"mean\":";
    jsonNumber(os, mean());
    os << ",\"minSeen\":";
    jsonNumber(os, _minSeen);
    os << ",\"maxSeen\":";
    jsonNumber(os, _maxSeen);
    os << ",\"underflow\":" << _underflow
       << ",\"overflow\":" << _overflow << ",\"buckets\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            os << ',';
        os << _buckets[i];
    }
    os << "]}";
}

void
Distribution::mergeFrom(const StatBase &other)
{
    const Distribution &peer = mergePeer<Distribution>(*this, other);
    GASNUB_ASSERT(peer._buckets.size() == _buckets.size() &&
                      peer._min == _min && peer._max == _max,
                  "distribution merge shape mismatch at '", name(),
                  "'");
    if (peer._count == 0)
        return;
    if (_count == 0) {
        _minSeen = peer._minSeen;
        _maxSeen = peer._maxSeen;
    } else {
        _minSeen = std::min(_minSeen, peer._minSeen);
        _maxSeen = std::max(_maxSeen, peer._maxSeen);
    }
    for (std::size_t i = 0; i < _buckets.size(); ++i)
        _buckets[i] += peer._buckets[i];
    _underflow += peer._underflow;
    _overflow += peer._overflow;
    _count += peer._count;
    _sum += peer._sum;
}

void
Distribution::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = 0;
    _overflow = 0;
    _count = 0;
    _sum = 0;
    _minSeen = 0;
    _maxSeen = 0;
}

unsigned
Histogram::bucketOf(std::uint64_t v)
{
    GASNUB_ASSERT(v >= 1, "bucketOf is defined for v >= 1");
    return static_cast<unsigned>(std::bit_width(v)) - 1;
}

void
Histogram::sample(std::uint64_t v, std::uint64_t n)
{
    if (n == 0)
        return;
    if (_count == 0) {
        _minSeen = v;
        _maxSeen = v;
    } else {
        _minSeen = std::min(_minSeen, v);
        _maxSeen = std::max(_maxSeen, v);
    }
    _count += n;
    _sum += v * n;
    if (v == 0) {
        _zeros += n;
        return;
    }
    const unsigned idx = bucketOf(v);
    if (idx >= _buckets.size())
        _buckets.resize(idx + 1, 0);
    _buckets[idx] += n;
}

double
Histogram::percentile(double p) const
{
    GASNUB_ASSERT(p >= 0 && p <= 1, "percentile wants p in [0, 1]");
    if (_count == 0)
        return 0.0;
    // The endpoints are exact samples, not interpolation targets:
    // p=0 is the smallest sample seen, p=1 the largest.  Interior
    // ranks interpolate within their bucket, which would otherwise
    // push p=0 above the min whenever the min shares its bucket with
    // no smaller rank.
    if (p == 0.0)
        return _zeros ? 0.0 : static_cast<double>(minSeen());
    if (p == 1.0)
        return static_cast<double>(maxSeen());
    // Rank of the requested sample, 1-based; p=0 is the first sample
    // (min), p=1 the last (max).
    const double rank = p * static_cast<double>(_count - 1) + 1.0;
    double seen = static_cast<double>(_zeros);
    if (rank <= seen)
        return 0.0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        const double in_bucket = static_cast<double>(_buckets[i]);
        if (rank <= seen + in_bucket) {
            // Linear interpolation across [2^i, 2^(i+1)) by the
            // rank's position within the bucket.
            const double lo =
                static_cast<double>(std::uint64_t(1) << i);
            const double frac = (rank - seen) / in_bucket;
            const double v = lo + frac * lo;
            return std::min(std::max(v,
                                     static_cast<double>(minSeen())),
                            static_cast<double>(maxSeen()));
        }
        seen += in_bucket;
    }
    return static_cast<double>(maxSeen());
}

void
Histogram::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " n=" << _count
       << " sum=" << _sum << " min=" << minSeen()
       << " max=" << maxSeen() << " # " << desc() << "\n";
    if (_zeros)
        os << "  " << name() << ".bucket[0] " << _zeros << "\n";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        os << "  " << name() << ".bucket[" << (std::uint64_t(1) << i)
           << "," << (std::uint64_t(1) << (i + 1)) << ") "
           << _buckets[i] << "\n";
    }
}

void
Histogram::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "histogram");
    os << ",\"count\":" << _count << ",\"sum\":" << _sum
       << ",\"min\":" << minSeen() << ",\"max\":" << maxSeen()
       << ",\"zeros\":" << _zeros << ",\"buckets\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            os << ',';
        os << _buckets[i];
    }
    os << "]}";
}

void
Histogram::reset()
{
    _buckets.clear();
    _zeros = 0;
    _count = 0;
    _sum = 0;
    _minSeen = 0;
    _maxSeen = 0;
}

void
Histogram::mergeFrom(const StatBase &other)
{
    const Histogram &peer = mergePeer<Histogram>(*this, other);
    if (peer._count == 0)
        return;
    if (_count == 0) {
        _minSeen = peer._minSeen;
        _maxSeen = peer._maxSeen;
    } else {
        _minSeen = std::min(_minSeen, peer._minSeen);
        _maxSeen = std::max(_maxSeen, peer._maxSeen);
    }
    if (peer._buckets.size() > _buckets.size())
        _buckets.resize(peer._buckets.size(), 0);
    for (std::size_t i = 0; i < peer._buckets.size(); ++i)
        _buckets[i] += peer._buckets[i];
    _zeros += peer._zeros;
    _count += peer._count;
    _sum += peer._sum;
}

Vector::Vector(Group *group, std::string name, std::string desc,
               std::size_t size)
    : StatBase(group, std::move(name), std::move(desc)),
      _values(size, 0.0), _subnames(size)
{
    GASNUB_ASSERT(size >= 1, "vector stat needs >= 1 element");
}

double
Vector::total() const
{
    double sum = 0;
    for (const double v : _values)
        sum += v;
    return sum;
}

void
Vector::subname(std::size_t i, std::string label)
{
    GASNUB_ASSERT(i < _subnames.size(), "bad vector subname index");
    _subnames[i] = std::move(label);
}

void
Vector::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << total() << " # " << desc() << " (total)\n";
    for (std::size_t i = 0; i < _values.size(); ++i) {
        if (_values[i] == 0)
            continue;
        os << "  " << name() << '[';
        if (_subnames[i].empty())
            os << i;
        else
            os << _subnames[i];
        os << "] " << _values[i] << "\n";
    }
}

void
Vector::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "vector");
    os << ",\"total\":";
    jsonNumber(os, total());
    os << ",\"values\":[";
    for (std::size_t i = 0; i < _values.size(); ++i) {
        if (i)
            os << ',';
        jsonNumber(os, _values[i]);
    }
    os << "],\"subnames\":[";
    for (std::size_t i = 0; i < _subnames.size(); ++i) {
        if (i)
            os << ',';
        jsonString(os, _subnames[i]);
    }
    os << "]}";
}

void
Vector::reset()
{
    std::fill(_values.begin(), _values.end(), 0.0);
}

void
Vector::mergeFrom(const StatBase &other)
{
    const Vector &peer = mergePeer<Vector>(*this, other);
    GASNUB_ASSERT(peer._values.size() == _values.size(),
                  "vector merge size mismatch at '", name(), "'");
    for (std::size_t i = 0; i < _values.size(); ++i)
        _values[i] += peer._values[i];
}

Formula::Formula(Group *group, std::string name, std::string desc,
                 Fn fn)
    : StatBase(group, std::move(name), std::move(desc)),
      _fn(std::move(fn))
{
    GASNUB_ASSERT(_fn, "formula needs an evaluation function");
}

void
Formula::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << value() << " # " << desc() << "\n";
}

void
Formula::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "formula");
    os << ",\"value\":";
    jsonNumber(os, value());
    os << "}";
}

void
Formula::mergeFrom(const StatBase &other)
{
    // Formulas recompute from the stats they reference; nothing to
    // merge, but the peer must at least be a formula too.
    mergePeer<Formula>(*this, other);
}

namespace {

/** Smallest shift with (1 << shift) >= ticks (shift >= 1). */
unsigned
shiftFor(Tick ticks)
{
    unsigned s = 1;
    while ((Tick(1) << s) < ticks && s < 62)
        ++s;
    return s;
}

} // namespace

IntervalBandwidth::IntervalBandwidth(Group *group, std::string name,
                                     std::string desc, Tick bucketTicks,
                                     std::size_t maxBuckets)
    : StatBase(group, std::move(name), std::move(desc)),
      _bucketShift(shiftFor(bucketTicks)),
      _maxBuckets(std::max<std::size_t>(maxBuckets, 1))
{
    GASNUB_ASSERT(bucketTicks >= 1, "bucket width must be >= 1 tick");
}

double
IntervalBandwidth::peakMBs() const
{
    std::uint64_t peak = 0;
    for (const std::uint64_t b : _buckets)
        peak = std::max(peak, b);
    // ticks are picoseconds: bytes / s = bytes * 1e12 / ticks.
    const double seconds =
        static_cast<double>(bucketTicks()) * 1e-12;
    return static_cast<double>(peak) / seconds / 1e6;
}

void
IntervalBandwidth::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << _totalBytes << " # " << desc()
       << " (bytes; " << _buckets.size() << " buckets of "
       << bucketTicks() << " ticks, peak " << peakMBs() << " MB/s)\n";
}

void
IntervalBandwidth::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "intervalBandwidth");
    os << ",\"bucketTicks\":" << bucketTicks()
       << ",\"totalBytes\":" << _totalBytes
       << ",\"clamped\":" << _clamped << ",\"peakMBs\":";
    jsonNumber(os, peakMBs());
    os << ",\"bucketBytes\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            os << ',';
        os << _buckets[i];
    }
    os << "]}";
}

void
IntervalBandwidth::reset()
{
    _buckets.clear();
    _totalBytes = 0;
    _clamped = 0;
}

void
IntervalBandwidth::mergeFrom(const StatBase &other)
{
    const IntervalBandwidth &peer =
        mergePeer<IntervalBandwidth>(*this, other);
    GASNUB_ASSERT(peer._bucketShift == _bucketShift &&
                      peer._maxBuckets == _maxBuckets,
                  "interval bandwidth merge shape mismatch at '",
                  name(), "'");
    if (peer._buckets.size() > _buckets.size())
        _buckets.resize(peer._buckets.size(), 0);
    for (std::size_t i = 0; i < peer._buckets.size(); ++i)
        _buckets[i] += peer._buckets[i];
    _totalBytes += peer._totalBytes;
    _clamped += peer._clamped;
}

Group::Group(std::string name) : _name(std::move(name)) {}

Group::~Group() = default;

void
Group::add(StatBase *stat)
{
    GASNUB_ASSERT(stat != nullptr, "null stat");
    _stats.push_back(stat);
}

void
Group::remove(StatBase *stat)
{
    _stats.erase(std::remove(_stats.begin(), _stats.end(), stat),
                 _stats.end());
}

void
Group::addChild(Group *child)
{
    GASNUB_ASSERT(child != nullptr && child != this, "bad child group");
    _children.push_back(child);
}

void
Group::removeChild(Group *child)
{
    _children.erase(
        std::remove(_children.begin(), _children.end(), child),
        _children.end());
}

void
Group::dump(std::ostream &os) const
{
    if (!_name.empty() && (!_stats.empty() || !_children.empty()))
        os << "---------- " << _name << " ----------\n";
    for (const StatBase *s : _stats)
        s->print(os);
    for (const Group *g : _children)
        g->dump(os);
}

void
Group::dumpJson(std::ostream &os) const
{
    os << "{\"name\":";
    jsonString(os, _name);
    os << ",\"stats\":[";
    for (std::size_t i = 0; i < _stats.size(); ++i) {
        if (i)
            os << ',';
        _stats[i]->printJson(os);
    }
    os << "],\"groups\":[";
    for (std::size_t i = 0; i < _children.size(); ++i) {
        if (i)
            os << ',';
        _children[i]->dumpJson(os);
    }
    os << "]}";
}

void
Group::resetAll()
{
    for (StatBase *s : _stats)
        s->reset();
    for (Group *g : _children)
        g->resetAll();
}

void
Group::mergeFrom(const Group &other)
{
    GASNUB_ASSERT(other._stats.size() == _stats.size() &&
                      other._children.size() == _children.size(),
                  "stats group structure mismatch merging '",
                  other._name, "' into '", _name, "'");
    for (std::size_t i = 0; i < _stats.size(); ++i) {
        GASNUB_ASSERT(_stats[i]->name() == other._stats[i]->name(),
                      "stat order mismatch merging group '", _name,
                      "': '", _stats[i]->name(), "' vs '",
                      other._stats[i]->name(), "'");
        _stats[i]->mergeFrom(*other._stats[i]);
    }
    for (std::size_t i = 0; i < _children.size(); ++i)
        _children[i]->mergeFrom(*other._children[i]);
}

const StatBase *
Group::find(const std::string &name) const
{
    for (const StatBase *s : _stats)
        if (s->name() == name)
            return s;
    for (const Group *g : _children)
        if (const StatBase *s = g->find(name))
            return s;
    return nullptr;
}

} // namespace gasnub::stats
