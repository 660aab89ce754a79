/**
 * @file
 * The translation code cache.
 *
 * A word-addressed host-code store with a region allocator: TOL
 * installs translated regions into contiguous word ranges obtained
 * from a first-fit free list, and releases them individually when a
 * translation is evicted or invalidated (region-granular eviction).
 * Released ranges coalesce with free neighbours. The classic
 * "code cache full -> flush everything" policy remains available via
 * flush(), which returns the whole cache to a single free hole.
 *
 * The cache only manages words; translation bookkeeping (entry maps,
 * chaining, the LRU eviction clock) lives in tol::TranslationRegistry.
 *
 * Beside the words the cache keeps a predecoded HInst mirror, which
 * install() and setWord() (chaining patches) write together with the
 * word, so the host emulator never decodes on its fetch path. A word
 * that does not decode is mirrored as an HInst whose op is
 * HOp::NumOps; executing it raises the decoder's error, installing it
 * does not. Both stores are anonymous zero pages: a cache costs
 * nothing to build, and a word never written reads as 0, a NOP.
 *
 * Thread safety: structural operations (alloc/release/install/flush
 * and the occupancy queries) serialize on an internal mutex; the word
 * store itself is an array of relaxed atomics, so readers (invariant
 * checkers) never race writers. The mirror is plain memory: it is
 * written only through install()/setWord() and read only by the host
 * emulator, all on the simulation thread. The publication edge for
 * freshly-installed regions is the registry's lock: a region's words
 * are fully stored before its translation is added, and every
 * consumer discovers the region through a registry lookup.
 */

#ifndef DARCO_HOST_CODE_CACHE_HH
#define DARCO_HOST_CODE_CACHE_HH

#include <sys/mman.h>

#include <atomic>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "host/hisa.hh"

namespace darco::host
{

/**
 * A fixed array of n trivially destructible T over an anonymous
 * private mapping. The kernel hands out zero-filled pages on first
 * touch, so building the array writes nothing and its elements read
 * as all-zero bytes until set.
 */
template <typename T>
class ZeroPages
{
    static_assert(std::is_trivially_destructible_v<T>);

  public:
    explicit ZeroPages(std::size_t n) : bytes_(n * sizeof(T))
    {
        if (bytes_ == 0)
            return;
        void *p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<T *>(p);
    }
    ~ZeroPages()
    {
        if (data_)
            munmap(data_, bytes_);
    }
    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    std::size_t bytes_;
    T *data_ = nullptr;
};

/** Region-allocating host-code store addressed by word index. */
class CodeCache
{
  public:
    static constexpr u32 npos = ~0u;

    explicit CodeCache(u32 capacity_words = 1u << 20)
        : capacity_(capacity_words), words_(capacity_words),
          insts_(capacity_words)
    {
        holes_.push_back(Hole{0, capacity_});
    }

    /** Can a contiguous block of n words be allocated right now? */
    bool
    hasSpace(u32 n) const
    {
        std::lock_guard<std::mutex> g(mu_);
        return largestFreeLocked() >= n;
    }

    /**
     * Allocate a contiguous region of n words (first fit).
     * @return base word index, or npos when no hole fits.
     */
    u32
    alloc(u32 n)
    {
        std::lock_guard<std::mutex> g(mu_);
        return allocLocked(n);
    }

    /** Return a region to the free list, coalescing neighbours. */
    void
    release(u32 base, u32 n)
    {
        if (n == 0)
            return;
        std::lock_guard<std::mutex> g(mu_);
        used_ -= n;
        ++releases_;
        // Insert sorted by base.
        std::size_t h = 0;
        while (h < holes_.size() && holes_[h].base < base)
            ++h;
        holes_.insert(holes_.begin() + h, Hole{base, n});
        // Coalesce with successor, then predecessor.
        if (h + 1 < holes_.size() &&
            holes_[h].base + holes_[h].size == holes_[h + 1].base) {
            holes_[h].size += holes_[h + 1].size;
            holes_.erase(holes_.begin() + h + 1);
        }
        if (h > 0 &&
            holes_[h - 1].base + holes_[h - 1].size == holes_[h].base) {
            holes_[h - 1].size += holes_[h].size;
            holes_.erase(holes_.begin() + h);
        }
    }

    /**
     * Allocate and copy a translated region.
     * @return base word index, or npos when the cache cannot fit it.
     */
    u32
    install(const std::vector<u32> &region)
    {
        std::lock_guard<std::mutex> g(mu_);
        u32 base = allocLocked(u32(region.size()));
        if (base == npos)
            return npos;
        for (std::size_t i = 0; i < region.size(); ++i)
            store(base + u32(i), region[i]);
        return base;
    }

    u32
    word(u32 idx) const
    {
        return words_[idx].load(std::memory_order_relaxed);
    }

    /** The decoded word at idx; op is HOp::NumOps if it does not
     *  decode. Simulation thread only. */
    const HInst &inst(u32 idx) const { return insts_[idx]; }

    void setWord(u32 idx, u32 w) { store(idx, w); }

    u32
    used() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return used_;
    }

    u32 capacity() const { return capacity_; }

    u32
    largestFree() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return largestFreeLocked();
    }

    u32
    freeWords() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return capacity_ - used_;
    }

    /** Number of free-list fragments (fragmentation diagnostics). */
    std::size_t
    holeCount() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return holes_.size();
    }

    /** Drop every translation (TOL must reset its maps too). */
    void
    flush()
    {
        std::lock_guard<std::mutex> g(mu_);
        holes_.clear();
        holes_.push_back(Hole{0, capacity_});
        used_ = 0;
        ++flushCount_;
    }

    u64
    flushCount() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return flushCount_;
    }

    u64
    releaseCount() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return releases_;
    }

  private:
    void
    store(u32 idx, u32 w)
    {
        words_[idx].store(w, std::memory_order_relaxed);
        if ((w >> 24) < u32(HOp::NumOps)) {
            insts_[idx] = hdecode(w);
        } else {
            insts_[idx] = HInst();
            insts_[idx].op = HOp::NumOps;
        }
    }

    /** One free range; the list is sorted by base and coalesced. */
    struct Hole
    {
        u32 base;
        u32 size;
    };

    u32
    allocLocked(u32 n)
    {
        if (n == 0)
            return npos;
        for (std::size_t h = 0; h < holes_.size(); ++h) {
            if (holes_[h].size < n)
                continue;
            u32 base = holes_[h].base;
            holes_[h].base += n;
            holes_[h].size -= n;
            if (holes_[h].size == 0)
                holes_.erase(holes_.begin() + h);
            used_ += n;
            return base;
        }
        return npos;
    }

    u32
    largestFreeLocked() const
    {
        u32 best = 0;
        for (const Hole &h : holes_)
            best = h.size > best ? h.size : best;
        return best;
    }

    mutable std::mutex mu_; //!< guards the free list and counters
    u32 capacity_;
    u32 used_ = 0;
    /** Fixed-size atomic word store (no lazy growth: atomics cannot
     *  be moved by a vector resize while readers are live). An
     *  all-zero std::atomic<u32> holds 0. */
    ZeroPages<std::atomic<u32>> words_;
    static_assert(std::atomic<u32>::is_always_lock_free &&
                  sizeof(std::atomic<u32>) == sizeof(u32));
    /** Predecoded mirror of words_; all-zero bytes are a NOP. */
    ZeroPages<HInst> insts_;
    static_assert(u8(HOp::NOP) == 0);
    std::vector<Hole> holes_;
    u64 flushCount_ = 0;
    u64 releases_ = 0;
};

} // namespace darco::host

#endif // DARCO_HOST_CODE_CACHE_HH
