#include "timing/cache.hh"

namespace darco::timing
{

namespace
{

constexpr bool
isPow2(u32 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

constexpr u32
log2Pow2(u32 v)
{
    return u32(__builtin_ctz(v));
}

} // namespace

Cache::Cache(std::string name, u32 size_bytes, u32 assoc,
             u32 line_bytes, Cycle hit_latency, Cycle miss_latency,
             Cache *next, StatGroup &stats)
    : name_(std::move(name)),
      assoc_(assoc),
      hitLatency_(hit_latency),
      missLatency_(miss_latency),
      next_(next)
{
    // The schema checks each key alone; only a combination of valid
    // keys (a size too small for one set) still reaches this point
    // from a config, the rest guards direct construction.
    if (!isPow2(line_bytes))
        fatal("cache.line=", line_bytes, " must be a power of two");
    if (!isPow2(assoc) || assoc > 64)
        fatal(name_, ".assoc=", assoc,
              " must be a power of two between 1 and 64");
    u64 set_bytes = u64(line_bytes) * assoc;
    if (!isPow2(size_bytes) || size_bytes < set_bytes)
        fatal(name_, ".size=", size_bytes,
              " must be a power of two holding at least one set of ",
              name_, ".assoc=", assoc, " ways x cache.line=", line_bytes,
              " bytes (", set_bytes, " bytes)");
    lineShift_ = log2Pow2(line_bytes);
    numSets_ = u32(size_bytes / set_bytes);
    tagShift_ = lineShift_ + log2Pow2(numSets_);
    lines_.resize(std::size_t(numSets_) * assoc_);
    mru_.assign(numSets_, 0);
    hits_ = &stats.counter(name_ + ".hits");
    misses_ = &stats.counter(name_ + ".misses");
    writebacks_ = &stats.counter(name_ + ".writebacks");
    prefetches_ = &stats.counter(name_ + ".prefetches");
}

int
Cache::findWay(u32 set, u32 tag) const
{
    const Line *ways = setLines(set);
    u32 mru = mru_[set];
    if (ways[mru].valid && ways[mru].tag == tag)
        return int(mru);
    // At most one way matches; a scan without an early exit leaves no
    // data-dependent branch to mispredict.
    int found = -1;
    for (u32 w = 0; w < assoc_; ++w)
        found = ways[w].valid && ways[w].tag == tag ? int(w) : found;
    return found;
}

bool
Cache::probe(u32 addr) const
{
    return findWay(setIndex(addr), tagOf(addr)) >= 0;
}

Cycle
Cache::fill(u32 set, u32 tag, u32 addr, bool from_prefetch, bool dirty)
{
    // Victim: the first invalid way, else the LRU one. Invalid ways
    // keep stamp 0 and valid ones hold unique stamps from 1, so that is
    // the first way with the smallest stamp.
    Line *ways = setLines(set);
    u32 v = 0;
    for (u32 w = 1; w < assoc_; ++w)
        v = ways[w].lru < ways[v].lru ? w : v;
    Line &victim = ways[v];
    if (victim.valid && victim.dirty)
        writebacks_->incSingleWriter(); // absorbed by write buffers

    Cycle lat = 0;
    if (next_) {
        if (from_prefetch)
            next_->prefetch(addr);
        else
            lat = next_->access(addr, false);
    } else {
        lat = missLatency_;
    }
    victim.valid = true;
    victim.dirty = dirty;
    victim.tag = tag;
    victim.lru = ++lruTick_;
    mru_[set] = u8(v);
    return lat;
}

Cycle
Cache::access(u32 addr, bool write)
{
    u32 set = setIndex(addr);
    u32 tag = tagOf(addr);
    int way = findWay(set, tag);
    if (way >= 0) {
        Line &l = setLines(set)[way];
        hits_->incSingleWriter();
        l.lru = ++lruTick_;
        l.dirty |= write;
        mru_[set] = u8(way);
        return hitLatency_;
    }
    misses_->incSingleWriter();
    return hitLatency_ + fill(set, tag, addr, false, write);
}

void
Cache::prefetch(u32 addr)
{
    u32 set = setIndex(addr);
    u32 tag = tagOf(addr);
    if (findWay(set, tag) >= 0)
        return;
    prefetches_->incSingleWriter();
    fill(set, tag, addr, true, false);
}

} // namespace darco::timing
