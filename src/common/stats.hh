/**
 * @file
 * Lightweight statistics registry.
 *
 * Components register named scalar counters, averages, and histograms
 * against a StatGroup. The registry supports dumping in a stable text
 * format and resetting (needed by the sampling methodology, which
 * discards warm-up statistics).
 */

#ifndef DARCO_COMMON_STATS_HH
#define DARCO_COMMON_STATS_HH

#include <atomic>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace darco
{

/**
 * A single named 64-bit counter.
 *
 * Updates are relaxed atomics so components shared across threads
 * (the translation registry under the async translator, code-cache
 * eviction bookkeeping) can bump counters without data races; no
 * ordering is implied between counters.
 *
 * inc() is a lock-prefixed fetch_add and is safe from any number of
 * writer threads. incSingleWriter() is a relaxed load plus a relaxed
 * store: cheaper, and still race-free for concurrent readers, but it
 * loses updates if two threads write the same counter. Use it only on
 * a single-writer StatGroup. The timing models' groups are one: every
 * timing::InOrderCore owns the StatGroup it is built with (one per
 * campaign job, sampling run or bench program), and its caches, TLBs,
 * predictors and prefetcher are fed only by that core's record() /
 * recordConcurrent(), which the simulation thread calls. A Tol's or
 * Controller's group is not: async translator workers bump registry
 * and code-cache counters in it, so those use inc().
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &o) : value_(o.value()) {}
    Counter &
    operator=(const Counter &o)
    {
        value_.store(o.value(), std::memory_order_relaxed);
        return *this;
    }

    void inc(u64 by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
    void
    incSingleWriter(u64 by = 1)
    {
        value_.store(value_.load(std::memory_order_relaxed) + by,
                     std::memory_order_relaxed);
    }
    void set(u64 v) { value_.store(v, std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<u64> value_{0};
};

/**
 * Simple fixed-bucket histogram over u64 samples.
 *
 * Like Counter, updates are relaxed atomics: histograms fed from
 * registry/code-cache paths can be sampled while async translator
 * workers are live, so sample() must be race-free. The bucket limits
 * are immutable after construction; readers see per-cell-consistent
 * snapshots (no ordering is implied between cells).
 */
class Histogram
{
  public:
    /** @param bucket_limits ascending upper bounds; a final overflow
     *  bucket is added implicitly. */
    explicit Histogram(std::vector<u64> bucket_limits = {});
    // Copies/moves snapshot the atomics (registration-time only; the
    // stat registry never moves a histogram while samplers are live).
    Histogram(const Histogram &o);
    Histogram &operator=(const Histogram &o);
    Histogram(Histogram &&o) noexcept;
    Histogram &operator=(Histogram &&o) noexcept;

    void sample(u64 v, u64 weight = 1);
    void reset();

    u64 count() const { return count_.load(std::memory_order_relaxed); }
    u64 sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const
    {
        u64 c = count();
        return c ? double(sum()) / c : 0.0;
    }
    /** Per-bucket counts (snapshot by value). */
    std::vector<u64> buckets() const;
    const std::vector<u64> &limits() const { return limits_; }

  private:
    std::vector<u64> limits_;
    std::vector<std::atomic<u64>> counts_;
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
};

/**
 * A named collection of counters and histograms.
 *
 * Lookup is by string name; creation is lazy, so components can simply
 * write `stats.counter("tol.chained").inc()`.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "stats") : name_(std::move(name))
    {}

    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::vector<u64> limits = {});

    /** Read a counter without creating it; 0 if absent. */
    u64 value(const std::string &name) const;

    bool hasCounter(const std::string &name) const
    {
        return counters_.count(name) != 0;
    }

    void resetAll();
    void dump(std::ostream &os) const;

    /**
     * Machine-readable dump with a stable schema:
     *   {"name": ..., "counters": {k: v, ...},
     *    "histograms": {k: {"count", "sum", "mean",
     *                       "limits": [...], "buckets": [...]}}}
     * Keys are emitted in sorted (map) order.
     */
    void dumpJson(std::ostream &os) const;

    const std::string &name() const { return name_; }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace darco

#endif // DARCO_COMMON_STATS_HH
