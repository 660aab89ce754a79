/**
 * @file
 * Set-associative cache model with LRU replacement and write-back,
 * write-allocate policy. Levels are chained (L1 -> L2 -> memory);
 * access() returns the total latency of servicing the request.
 *
 * The model is latency-oriented (no MSHR overlap): appropriate for
 * the paper's simple in-order core, where a miss stalls the pipeline.
 */

#ifndef DARCO_TIMING_CACHE_HH
#define DARCO_TIMING_CACHE_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace darco::timing
{

/**
 * One cache level.
 *
 * The geometry is power-of-two (the schema enforces it for every
 * cache key, the constructor rejects anything else), so set index and
 * tag are a shift and a mask. A tag is unique among the valid lines of
 * its set (a line is filled only after a miss on it), so the lookup
 * may try the set's most recently used way first without changing the
 * outcome.
 */
class Cache
{
  public:
    /**
     * @param next next level, or nullptr (then miss_latency is the
     *        memory latency)
     * @throws FatalError if the geometry is not power-of-two, assoc
     *         exceeds 64, or size_bytes cannot hold one set
     */
    Cache(std::string name, u32 size_bytes, u32 assoc, u32 line_bytes,
          Cycle hit_latency, Cycle miss_latency, Cache *next,
          StatGroup &stats);

    /** Demand access; returns total latency in cycles. */
    Cycle access(u32 addr, bool write);

    /** Prefetch: fills the line, charged to the stats, no latency. */
    void prefetch(u32 addr);

    /** True if the address currently hits (no state change). */
    bool probe(u32 addr) const;

    u64 hits() const { return hits_->value(); }
    u64 misses() const { return misses_->value(); }

    /** log2(line bytes): `addr >> lineShift()` is the line number. */
    u32 lineShift() const { return lineShift_; }

  private:
    struct Line
    {
        u32 tag = 0;
        bool valid = false;
        bool dirty = false;
        u64 lru = 0;
    };

    /** The way of `set` holding `tag`, MRU way first; -1 on a miss. */
    int findWay(u32 set, u32 tag) const;

    /**
     * Fill the line of `addr` (known absent) into `set`, with the given
     * dirty bit; returns extra latency from the next level.
     */
    Cycle fill(u32 set, u32 tag, u32 addr, bool from_prefetch,
               bool dirty);

    u32 setIndex(u32 addr) const
    {
        return (addr >> lineShift_) & (numSets_ - 1);
    }
    u32 tagOf(u32 addr) const { return addr >> tagShift_; }
    Line *setLines(u32 set) { return &lines_[std::size_t(set) * assoc_]; }
    const Line *
    setLines(u32 set) const
    {
        return &lines_[std::size_t(set) * assoc_];
    }

    std::string name_;
    u32 lineShift_;
    u32 assoc_;
    u32 numSets_;
    u32 tagShift_; //!< log2(line bytes * sets)
    Cycle hitLatency_;
    Cycle missLatency_;
    Cache *next_;
    std::vector<Line> lines_;
    std::vector<u8> mru_; //!< per set: the way hit or filled last
    u64 lruTick_ = 0;

    Counter *hits_;
    Counter *misses_;
    Counter *writebacks_;
    Counter *prefetches_;
};

} // namespace darco::timing

#endif // DARCO_TIMING_CACHE_HH
