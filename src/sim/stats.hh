/**
 * @file
 * A small statistics package in the spirit of gem5's stats framework.
 *
 * Components declare named statistics in a Group; harnesses dump them to
 * a stream after an experiment. All statistics are deterministic
 * (simulated time only, no wall clock).
 */

#ifndef GASNUB_SIM_STATS_HH
#define GASNUB_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace gasnub::stats {

class Group;

/**
 * JSON-escape @p s into @p os (quotes not included): `"`, `\` and
 * every control byte are escaped, so any name yields valid JSON.  The
 * one escaper behind all of the project's JSON writers.
 */
void jsonEscape(std::ostream &os, std::string_view s);

/** Base class for all named statistics. */
class StatBase
{
  public:
    /**
     * @param group Owning group (registers this stat); may be null.
     * @param name  Dot-separated stat name, e.g.\ "l1.hits".
     * @param desc  One-line human description.
     */
    StatBase(Group *group, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Print one or more "name value # desc" lines. */
    virtual void print(std::ostream &os) const = 0;

    /**
     * Emit this stat as one JSON object
     * ({"name":...,"type":...,"desc":...,...}); used by
     * Group::dumpJson.
     */
    virtual void printJson(std::ostream &os) const = 0;

    /** Reset to the initial (zero) state. */
    virtual void reset() = 0;

    /**
     * Fold @p other (a stat of the same concrete type and shape) into
     * this one, as if every event accounted to @p other had been
     * accounted here.  Used to merge per-worker stats after a parallel
     * sweep; all hot-path updates are integer-valued, so merged totals
     * equal serial accumulation exactly.  Fatal on a type or shape
     * mismatch.  Formulas have no state and merge as a no-op.
     */
    virtual void mergeFrom(const StatBase &other) = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A simple counting statistic. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void reset() override { _value = 0; }
    void mergeFrom(const StatBase &other) override;

  private:
    double _value = 0;
};

/** Mean of sampled values (e.g.\ average queue depth). */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Record one sample. */
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    double mean() const { return _count ? _sum / _count : 0.0; }
    std::uint64_t count() const { return _count; }

    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void reset() override { _sum = 0; _count = 0; }
    void mergeFrom(const StatBase &other) override;

  private:
    double _sum = 0;
    std::uint64_t _count = 0;
};

/**
 * A fixed-bucket histogram over [min, max); samples outside the range go
 * to underflow/overflow counters.
 */
class Distribution : public StatBase
{
  public:
    /**
     * @param group   Owning group.
     * @param name    Stat name.
     * @param desc    Description.
     * @param min     Inclusive lower bound of the first bucket.
     * @param max     Exclusive upper bound of the last bucket.
     * @param buckets Number of equal-width buckets (>= 1).
     */
    Distribution(Group *group, std::string name, std::string desc,
                 double min, double max, int buckets);

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double minSeen() const { return _minSeen; }
    double maxSeen() const { return _maxSeen; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }

    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void reset() override;
    void mergeFrom(const StatBase &other) override;

  private:
    double _min;
    double _max;
    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _count = 0;
    double _sum = 0;
    double _minSeen = 0;
    double _maxSeen = 0;
};

/**
 * A log2-bucketed histogram of non-negative integer samples (latencies
 * in ticks, sizes in bytes).  Bucket i counts samples in
 * [2^i, 2^(i+1)); zero-valued samples have their own counter.  The
 * bucket vector grows on demand to the highest sampled magnitude, so
 * the JSON shape depends only on the sample multiset — merging two
 * histograms in either order yields byte-identical output.
 */
class Histogram : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Record @p n occurrences of the value @p v. */
    void sample(std::uint64_t v, std::uint64_t n = 1);

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t zeros() const { return _zeros; }
    std::uint64_t minSeen() const { return _count ? _minSeen : 0; }
    std::uint64_t maxSeen() const { return _count ? _maxSeen : 0; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }

    /** Index of the bucket holding @p v (>= 1): floor(log2(v)). */
    static unsigned bucketOf(std::uint64_t v);

    /**
     * Approximate value at quantile @p p in [0, 1] (0.5 = median,
     * 0.99 = p99): the sample's log2 bucket located exactly, the
     * position within it interpolated linearly, clamped to
     * [minSeen, maxSeen].  0 when the histogram is empty.  Tail
     * latencies from merged per-thread histograms — the serving
     * harness's p50/p95/p99 — come from here.
     */
    double percentile(double p) const;

    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void reset() override;
    void mergeFrom(const StatBase &other) override;

  private:
    std::vector<std::uint64_t> _buckets; ///< counts for [2^i, 2^(i+1))
    std::uint64_t _zeros = 0;
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _minSeen = 0;
    std::uint64_t _maxSeen = 0;
};

/**
 * A fixed-size vector of counters, e.g.\ per-DRAM-bank accesses or
 * per-torus-link busy time.  Elements may be given subnames for the
 * human dump; unnamed elements print their index.
 */
class Vector : public StatBase
{
  public:
    /**
     * @param group Owning group.
     * @param name  Stat name.
     * @param desc  Description.
     * @param size  Number of elements (fixed).
     */
    Vector(Group *group, std::string name, std::string desc,
           std::size_t size);

    std::size_t size() const { return _values.size(); }

    /** Mutable element access (hot path: plain double add). */
    double &operator[](std::size_t i) { return _values[i]; }

    double value(std::size_t i) const { return _values[i]; }

    /** Sum over all elements. */
    double total() const;

    /** Label element @p i for the human dump ("bank3", "link+x"). */
    void subname(std::size_t i, std::string label);

    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void reset() override;
    void mergeFrom(const StatBase &other) override;

  private:
    std::vector<double> _values;
    std::vector<std::string> _subnames;
};

/**
 * A derived statistic evaluated lazily at dump time from other stats
 * (e.g.\ hit rate = hits / (hits + misses)).  Zero cost on the hot
 * path.
 */
class Formula : public StatBase
{
  public:
    using Fn = std::function<double()>;

    /**
     * @param group Owning group.
     * @param name  Stat name.
     * @param desc  Description.
     * @param fn    Evaluation function; must be valid whenever the
     *              group is dumped.
     */
    Formula(Group *group, std::string name, std::string desc, Fn fn);

    double value() const { return _fn ? _fn() : 0.0; }

    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void reset() override {} ///< formulas have no state of their own
    void mergeFrom(const StatBase &other) override;

  private:
    Fn _fn;
};

/**
 * Bytes moved per simulated-time bucket — the bandwidth timeline of
 * one component.  Buckets are a power-of-two number of ticks wide so
 * the hot-path update is a shift, an index, and an add.  The series
 * is bounded: samples past maxBuckets accumulate into the last
 * bucket (counted in clamped()).
 */
class IntervalBandwidth : public StatBase
{
  public:
    /**
     * @param group       Owning group.
     * @param name        Stat name.
     * @param desc        Description.
     * @param bucketTicks Requested bucket width in ticks; rounded up
     *                    to a power of two (default ~8.4 us).
     * @param maxBuckets  Series length bound.
     */
    IntervalBandwidth(Group *group, std::string name, std::string desc,
                      Tick bucketTicks = Tick(1) << 23,
                      std::size_t maxBuckets = 4096);

    /** Account @p bytes to the bucket containing @p when. */
    void
    addBytes(Tick when, std::uint64_t bytes)
    {
        std::size_t idx =
            static_cast<std::size_t>(when >> _bucketShift);
        if (idx >= _maxBuckets) {
            idx = _maxBuckets - 1;
            ++_clamped;
        }
        if (idx >= _buckets.size())
            _buckets.resize(idx + 1, 0);
        _buckets[idx] += bytes;
        _totalBytes += bytes;
    }

    /** Actual bucket width in ticks (power of two). */
    Tick bucketTicks() const { return Tick(1) << _bucketShift; }

    /** Number of buckets with data so far (trailing zeros trimmed). */
    std::size_t buckets() const { return _buckets.size(); }

    std::uint64_t bucketBytes(std::size_t i) const
    {
        return i < _buckets.size() ? _buckets[i] : 0;
    }

    std::uint64_t totalBytes() const { return _totalBytes; }

    /** Samples folded into the last bucket by the series bound. */
    std::uint64_t clamped() const { return _clamped; }

    /** Peak single-bucket bandwidth in MByte/s (decimal). */
    double peakMBs() const;

    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void reset() override;
    void mergeFrom(const StatBase &other) override;

  private:
    unsigned _bucketShift;
    std::size_t _maxBuckets;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _totalBytes = 0;
    std::uint64_t _clamped = 0;
};

/**
 * A named collection of statistics; may nest.
 *
 * Groups do not own their stats (stats are members of components); a
 * group must outlive registration but stats deregister on destruction.
 */
class Group
{
  public:
    explicit Group(std::string name = "");
    ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return _name; }

    /** Register/deregister a stat (called by StatBase). */
    void add(StatBase *stat);
    void remove(StatBase *stat);

    /** Attach a child group (e.g.\ per-cache-level groups). */
    void addChild(Group *child);

    /**
     * Detach a child group.  For children whose owner can die before
     * this group (e.g.\ a gas::Runtime's stats attached to its
     * machine): the owner detaches in its destructor so the parent
     * never dumps a dangling pointer.
     */
    void removeChild(Group *child);

    /** Dump all stats, prefixed with the group name. */
    void dump(std::ostream &os) const;

    /**
     * Dump this group recursively as one JSON object:
     * {"name":...,"stats":[...],"groups":[...]}. Stats appear in
     * registration order (deterministic); output is machine-readable
     * and byte-stable across identical runs.
     */
    void dumpJson(std::ostream &os) const;

    /** Reset all registered stats (recursively). */
    void resetAll();

    /**
     * Fold @p other — a group of identical structure (same stats and
     * child groups in the same registration order, checked by name) —
     * into this one.  Used to merge a parallel sweep worker's machine
     * stats into the main machine's after join; because all updates
     * are additive integer counts, the merged totals are exactly what
     * a serial run accumulates, independent of worker count or
     * scheduling.
     */
    void mergeFrom(const Group &other);

    /** Find a stat by exact name; nullptr if absent. */
    const StatBase *find(const std::string &name) const;

  private:
    std::string _name;
    std::vector<StatBase *> _stats;
    std::vector<Group *> _children;
};

} // namespace gasnub::stats

#endif // GASNUB_SIM_STATS_HH
