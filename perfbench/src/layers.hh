/**
 * @file
 * Wall-clock interposers the benchmark installs between DARCO's layers
 * through their public interfaces. Nothing here reaches inside the
 * program: each one forwards to the layer it wraps and times the call
 * from the outside.
 *
 *  - TimedEnv sits between the Tol and the Controller (Tol::setEnv),
 *    forwarding Controller::dataRequest / Controller::syscall, so its
 *    clock covers the reference lockstep, page transfers and syscall
 *    validation (the "sim" sync layer).
 *  - BufferedTimingSink sits between the Tol and the timing model
 *    (Tol::setTraceSink). It buffers records and replays them into
 *    the wrapped sink in batches, so the clock is read once per batch
 *    instead of once per record. Records and concurrent-translator
 *    charges reach the wrapped sink in their original order, so the
 *    simulated cycles are exactly those of a direct attach.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstddef>
#include <vector>

#include "host/trace.hh"
#include "sim/controller.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Forwards the Tol's sync requests to a Controller and times them. */
class TimedEnv : public darco::tol::Tol::Env
{
  public:
    explicit TimedEnv(darco::sim::Controller &ctl) : ctl_(ctl) {}

    void
    dataRequest(darco::u32 core, darco::GAddr page,
                darco::u64 completed_insts) override
    {
        auto t0 = Clock::now();
        ctl_.dataRequest(core, page, completed_insts);
        seconds_ += since(t0);
        ++calls_;
    }

    bool
    syscall(darco::u32 core, darco::u64 completed_insts) override
    {
        auto t0 = Clock::now();
        bool more = ctl_.syscall(core, completed_insts);
        seconds_ += since(t0);
        ++calls_;
        return more;
    }

    double seconds() const { return seconds_; }
    darco::u64 calls() const { return calls_; }

  private:
    darco::sim::Controller &ctl_;
    double seconds_ = 0;
    darco::u64 calls_ = 0;
};

/** Batches the host trace into a wrapped sink and times the replay. */
class BufferedTimingSink : public darco::host::TraceSink
{
  public:
    explicit BufferedTimingSink(darco::host::TraceSink &inner)
        : inner_(inner)
    {
        buf_.reserve(batch);
    }

    void
    record(const darco::host::InstRecord &rec) override
    {
        buf_.push_back(rec);
        if (buf_.size() == batch)
            flush();
    }

    void
    recordConcurrent(darco::u64 host_insts) override
    {
        flush();
        auto t0 = Clock::now();
        inner_.recordConcurrent(host_insts);
        seconds_ += since(t0);
    }

    /** Replay every buffered record; call before reading the model. */
    void
    flush()
    {
        if (buf_.empty())
            return;
        auto t0 = Clock::now();
        for (const darco::host::InstRecord &rec : buf_)
            inner_.record(rec);
        seconds_ += since(t0);
        buf_.clear();
    }

    double seconds() const { return seconds_; }

  private:
    static constexpr std::size_t batch = 4096; //!< records per replay

    darco::host::TraceSink &inner_;
    std::vector<darco::host::InstRecord> buf_;
    double seconds_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
