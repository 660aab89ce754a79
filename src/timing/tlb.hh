/**
 * @file
 * Two-level TLB model (paper Section V-C: "two level TLB ...
 * hierarchies"). Fully-associative LRU levels; an L2 miss pays a
 * fixed page-walk latency.
 */

#ifndef DARCO_TIMING_TLB_HH
#define DARCO_TIMING_TLB_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace darco::timing
{

/**
 * One fully-associative TLB level. A VPN is unique among the valid
 * entries (an entry is filled only after a miss on it), so the lookup
 * may try the entry hit or filled last first without changing the
 * outcome.
 */
class TlbLevel
{
  public:
    TlbLevel(std::string name, u32 entries, StatGroup &stats)
        : entries_(entries)
    {
        hits_ = &stats.counter(name + ".hits");
        misses_ = &stats.counter(name + ".misses");
    }

    bool
    access(u32 vpn)
    {
        Entry &m = entries_[mru_];
        if (m.valid && m.vpn == vpn)
            return hit(m);
        for (Entry &e : entries_) {
            if (e.valid && e.vpn == vpn) {
                mru_ = u32(&e - entries_.data());
                return hit(e);
            }
        }
        misses_->incSingleWriter();
        // Fill (LRU victim).
        Entry *victim = &entries_[0];
        for (auto &e : entries_) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lru < victim->lru)
                victim = &e;
        }
        victim->valid = true;
        victim->vpn = vpn;
        victim->lru = ++tick_;
        mru_ = u32(victim - entries_.data());
        return false;
    }

  private:
    struct Entry
    {
        u32 vpn = 0;
        bool valid = false;
        u64 lru = 0;
    };

    bool
    hit(Entry &e)
    {
        e.lru = ++tick_;
        hits_->incSingleWriter();
        return true;
    }

    std::vector<Entry> entries_;
    u32 mru_ = 0; //!< index of the entry hit or filled last
    u64 tick_ = 0;
    Counter *hits_;
    Counter *misses_;
};

/** L1 + L2 TLB with latencies. */
class Tlb
{
  public:
    Tlb(std::string name, u32 l1_entries, u32 l2_entries,
        Cycle l2_latency, Cycle walk_latency, StatGroup &stats)
        : l1_(name + ".l1", l1_entries, stats),
          l2_(name + ".l2", l2_entries, stats),
          l2Latency_(l2_latency), walkLatency_(walk_latency)
    {}

    /** @return added latency (0 on an L1 hit). */
    Cycle
    access(u32 addr)
    {
        u32 vpn = addr >> 12;
        if (l1_.access(vpn))
            return 0;
        if (l2_.access(vpn))
            return l2Latency_;
        return l2Latency_ + walkLatency_;
    }

  private:
    TlbLevel l1_;
    TlbLevel l2_;
    Cycle l2Latency_;
    Cycle walkLatency_;
};

} // namespace darco::timing

#endif // DARCO_TIMING_TLB_HH
