#include "timing/core.hh"

#include "common/schema.hh"

namespace darco::timing
{

using host::InstClass;
using host::InstRecord;
using host::noReg;

InOrderCore::InOrderCore(const Config &cfg, StatGroup &stats)
    : stats_(stats)
{
    issueWidth_ = u32(conf::getUint(cfg, "core.issue_width"));
    fetchWidth_ = u32(conf::getUint(cfg, "core.fetch_width"));
    iqSize_ = u32(conf::getUint(cfg, "core.iq_size"));
    frontendDepth_ = u32(conf::getUint(cfg, "core.frontend_depth"));
    latAlu_ = conf::getUint(cfg, "core.lat_alu");
    latMul_ = conf::getUint(cfg, "core.lat_mul");
    latDiv_ = conf::getUint(cfg, "core.lat_div");
    latFp_ = conf::getUint(cfg, "core.lat_fp");
    latFpDiv_ = conf::getUint(cfg, "core.lat_fpdiv");
    latBranch_ = conf::getUint(cfg, "core.lat_branch");

    u32 line = u32(conf::getUint(cfg, "cache.line"));
    l2_ = std::make_unique<Cache>(
        "l2", u32(conf::getUint(cfg, "l2.size")),
        u32(conf::getUint(cfg, "l2.assoc")), line,
        conf::getUint(cfg, "l2.lat"), conf::getUint(cfg, "mem.lat"), nullptr,
        stats);
    l1i_ = std::make_unique<Cache>(
        "l1i", u32(conf::getUint(cfg, "l1i.size")),
        u32(conf::getUint(cfg, "l1i.assoc")), line,
        conf::getUint(cfg, "l1i.lat"), 0, l2_.get(), stats);
    l1d_ = std::make_unique<Cache>(
        "l1d", u32(conf::getUint(cfg, "l1d.size")),
        u32(conf::getUint(cfg, "l1d.assoc")), line,
        conf::getUint(cfg, "l1d.lat"), 0, l2_.get(), stats);
    itlb_ = std::make_unique<Tlb>(
        "itlb", u32(conf::getUint(cfg, "tlb.l1_entries")),
        u32(conf::getUint(cfg, "tlb.l2_entries")),
        conf::getUint(cfg, "tlb.l2_lat"), conf::getUint(cfg, "tlb.walk_lat"),
        stats);
    dtlb_ = std::make_unique<Tlb>(
        "dtlb", u32(conf::getUint(cfg, "tlb.l1_entries")),
        u32(conf::getUint(cfg, "tlb.l2_entries")),
        conf::getUint(cfg, "tlb.l2_lat"), conf::getUint(cfg, "tlb.walk_lat"),
        stats);
    gshare_ = std::make_unique<Gshare>(
        u32(conf::getUint(cfg, "bpred.entries")),
        u32(conf::getUint(cfg, "bpred.history")), stats);
    btb_ = std::make_unique<Btb>(u32(conf::getUint(cfg, "btb.entries")),
                                 stats);
    prefetcher_ = std::make_unique<StridePrefetcher>(
        u32(conf::getUint(cfg, "prefetch.entries")),
        u32(conf::getUint(cfg, "prefetch.degree")),
        conf::getBool(cfg, "prefetch.enable") ? l1d_.get() : nullptr,
        stats);

    aluPool_.assign(conf::getUint(cfg, "core.num_alu"), 0);
    complexPool_.assign(conf::getUint(cfg, "core.num_complex"), 0);
    fpPool_.assign(conf::getUint(cfg, "core.num_fp"), 0);
    memPool_.assign(conf::getUint(cfg, "core.num_mem_ports"), 0);
    iqRing_.assign(iqSize_, 0);
    fetchLineShift_ = l1i_->lineShift();

    // Concurrent translator threads modeled for the overlap (the
    // async pipeline's virtual-time schedule uses the same knob).
    vthreads_ = u32(conf::getUint(cfg, "tol.async.vthreads"));
    if (vthreads_ == 0)
        vthreads_ = 1;

    cCycles_ = &stats.counter("core.cycles");
    cInsts_ = &stats.counter("core.instructions");
    cAluOps_ = &stats.counter("core.alu_ops");
    cMulOps_ = &stats.counter("core.mul_ops");
    cDivOps_ = &stats.counter("core.div_ops");
    cFpOps_ = &stats.counter("core.fp_ops");
    cMemOps_ = &stats.counter("core.mem_ops");
    cBranches_ = &stats.counter("core.branches");
    cFetchStallCycles_ = &stats.counter("core.fetch_stall_cycles");
    cTranslatorInsts_ = &stats.counter("core.translator_insts");
}

void
InOrderCore::recordConcurrent(u64 host_insts)
{
    translatorInsts_ += host_insts;
    // Translator threads run on spare hardware at ~1 IPC each; the
    // run ends when both the main core and the translators finish.
    translatorCycles_ = (translatorInsts_ + vthreads_ - 1) / vthreads_;
    cTranslatorInsts_->incSingleWriter(host_insts);
    cCycles_->set(cycles());
}

void
InOrderCore::record(const InstRecord &rec)
{
    ++instructions_;
    cInsts_->incSingleWriter();

    // ---- front end -----------------------------------------------------
    u64 line = rec.pc >> fetchLineShift_;
    if (line != lastFetchLine_) {
        lastFetchLine_ = line;
        Cycle lat = itlb_->access(rec.pc) + l1i_->access(rec.pc, false);
        Cycle ready = fetchCycle_ + lat;
        if (lat > 1)
            cFetchStallCycles_->incSingleWriter(lat - 1);
        lineReady_ = std::max(lineReady_, ready);
    }
    if (fetchedThisCycle_ >= fetchWidth_) {
        fetchCycle_ += 1;
        fetchedThisCycle_ = 0;
    }
    fetchCycle_ = std::max(fetchCycle_, lineReady_);
    ++fetchedThisCycle_;

    // Enter the instruction queue (decode pipeline), bounded by IQ
    // occupancy: the slot of the instruction iq_size back must have
    // issued before we can enter.
    Cycle enter = fetchCycle_ + frontendDepth_;
    enter = std::max(enter, iqRing_[iqHead_]);

    // ---- back end: in-order issue --------------------------------------
    Cycle ready = enter;
    ready = std::max(ready, regReady_[rec.src1]);
    ready = std::max(ready, regReady_[rec.src2]);
    // In-order constraint.
    ready = std::max(ready, issueCycle_);

    Cycle lat = latAlu_;
    Cycle issue = ready;
    switch (rec.cls) {
      case InstClass::IntMul:
        issue = reserveFu(complexPool_, ready, 1);
        lat = latMul_;
        cMulOps_->incSingleWriter();
        break;
      case InstClass::IntDiv:
        issue = reserveFu(complexPool_, ready, latDiv_); // unpipelined
        lat = latDiv_;
        cDivOps_->incSingleWriter();
        break;
      case InstClass::FpAlu:
      case InstClass::FpMul:
        issue = reserveFu(fpPool_, ready, 1);
        lat = latFp_;
        cFpOps_->incSingleWriter();
        break;
      case InstClass::FpDiv:
        issue = reserveFu(fpPool_, ready, latFpDiv_);
        lat = latFpDiv_;
        cFpOps_->incSingleWriter();
        break;
      case InstClass::Load:
      case InstClass::Store: {
        issue = reserveFu(memPool_, ready, 1);
        Cycle mlat = dtlb_->access(rec.memAddr) +
                     l1d_->access(rec.memAddr,
                                  rec.cls == InstClass::Store);
        prefetcher_->observe(rec.pc, rec.memAddr);
        lat = mlat;
        cMemOps_->incSingleWriter();
        break;
      }
      case InstClass::Branch:
      case InstClass::Jump: {
        issue = reserveFu(aluPool_, ready, 1);
        lat = latBranch_;
        cBranches_->incSingleWriter();
        bool mispredict = false;
        if (rec.cls == InstClass::Branch) {
            mispredict = gshare_->update(rec.pc, rec.taken);
        }
        if (rec.taken) {
            u32 predicted;
            bool btb_hit = btb_->lookup(rec.pc, predicted);
            if (!btb_hit || predicted != rec.nextPc)
                mispredict = true;
            btb_->update(rec.pc, rec.nextPc);
        }
        if (mispredict) {
            // Redirect: the front end restarts after resolution.
            Cycle resolve = issue + lat;
            fetchCycle_ = std::max(fetchCycle_, resolve + 1);
            fetchedThisCycle_ = 0;
            lineReady_ = fetchCycle_;
            lastFetchLine_ = ~0ull;
        }
        break;
      }
      default:
        issue = reserveFu(aluPool_, ready, 1);
        lat = latAlu_;
        cAluOps_->incSingleWriter();
        break;
    }

    // Issue-width accounting.
    if (issue == issueCycle_) {
        if (++issuedThisCycle_ > issueWidth_) {
            issue += 1;
            issuedThisCycle_ = 1;
        }
    } else {
        issuedThisCycle_ = 1;
    }
    issueCycle_ = issue;

    if (rec.dst != noReg)
        regReady_[rec.dst] = issue + lat;
    lastRetire_ = std::max(lastRetire_, issue + lat);

    // IQ slot recycles at issue.
    iqRing_[iqHead_] = issue;
    if (++iqHead_ == iqSize_)
        iqHead_ = 0;

    cCycles_->set(cycles());
}

} // namespace darco::timing
