/**
 * @file
 * Host functional-emulator tests: ALU/memory semantics, speculative
 * regions (CKPT/COMMIT, store gating, rollback), asserts, the alias
 * table, IBTC, EXITB, page-miss handling, guest-state mapping.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "guest/semantics.hh"
#include "host/code_cache.hh"
#include "host/hemu.hh"

using namespace darco;
using namespace darco::host;
using namespace darco::host::regmap;

namespace
{

/** Harness: assemble a snippet, run it, inspect state. */
struct HostRig
{
    CodeCache cache{1 << 16};
    guest::PagedMemory mem;
    HostEmu emu{cache, mem};

    /** Append code and return its entry pc. */
    u32
    install(const HAsm &a)
    {
        return cache.install(a.words());
    }

    ExitInfo
    run(u32 pc, u64 budget = 100000)
    {
        return emu.run(pc, budget);
    }
};

} // namespace

TEST(HostEmu, AluBasics)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 40);
    a.loadImm(16, 2);
    a.emit(HOp::ADD, 17, 15, 16);
    a.emit(HOp::SUB, 18, 15, 16);
    a.emit(HOp::MUL, 19, 15, 16);
    a.emit(HOp::DIV, 20, 15, 16);
    a.emit(HOp::REM, 21, 15, 16);
    a.emit(HOp::EXITB, 0, 0, 0, 7);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 7u);
    EXPECT_EQ(r.emu.ctx().gpr[17], 42u);
    EXPECT_EQ(r.emu.ctx().gpr[18], 38u);
    EXPECT_EQ(r.emu.ctx().gpr[19], 80u);
    EXPECT_EQ(r.emu.ctx().gpr[20], 20u);
    EXPECT_EQ(r.emu.ctx().gpr[21], 0u);
}

// The emulator executes the code cache's predecoded mirror. A word
// patched after install, as chaining does, executes as the new
// instruction.
TEST(HostEmu, PatchedWordExecutesAsNewInstruction)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::ADDI, 15, 0, 0, 1);
    a.emit(HOp::EXITB, 0, 0, 0, 1);
    u32 pc = r.install(a);
    EXPECT_EQ(r.run(pc).exitId, 1u);
    EXPECT_EQ(r.emu.ctx().gpr[15], 1u);

    r.cache.setWord(pc, hencode(HInst{HOp::ADDI, 15, 0, 0, 2}));
    r.cache.setWord(pc + 1, hencode(HInst{HOp::EXITB, 0, 0, 0, 2}));
    EXPECT_EQ(r.run(pc).exitId, 2u);
    EXPECT_EQ(r.emu.ctx().gpr[15], 2u);
}

// Installing a word that does not decode is fine; only executing it
// raises the decoder's error.
TEST(HostEmu, UndecodableWordPanicsOnlyWhenExecuted)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::EXITB, 0, 0, 0, 3);
    std::vector<u32> words = a.words();
    words.push_back(0xdeadbeefu);
    u32 pc = r.cache.install(words);
    EXPECT_EQ(r.cache.word(pc + 1), 0xdeadbeefu);
    EXPECT_EQ(r.run(pc).exitId, 3u);
    try {
        r.run(pc + 1);
        FAIL() << "executing an undecodable word did not panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("bad host opcode byte"),
                  std::string::npos)
            << e.what();
    }
}

// A word never written reads as 0, which is a NOP: running into
// unwritten code executes NOPs until the budget ends.
TEST(HostEmu, UnwrittenWordsAreNops)
{
    CodeCache cache(1u << 22);
    guest::PagedMemory mem;
    HostEmu emu(cache, mem);
    EXPECT_EQ(cache.word(123457), 0u);
    EXPECT_EQ(cache.inst(123457).op, HOp::NOP);
    ExitInfo e = emu.run(4'000'000, 10);
    EXPECT_EQ(e.kind, ExitKind::Budget);
    EXPECT_EQ(e.instsExecuted, 10u);
}

TEST(HostEmu, ZeroRegisterIsHardwired)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::ADDI, 0, 0, 0, 55); // write r0
    a.emit(HOp::ADDI, 15, 0, 0, 1); // r15 = r0 + 1
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[0], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[15], 1u);
}

TEST(HostEmu, SignedUnsignedCompares)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, u32(-1));
    a.loadImm(16, 1);
    a.emit(HOp::SLT, 17, 15, 16);  // -1 < 1 signed: 1
    a.emit(HOp::SLTU, 18, 15, 16); // 0xffffffff < 1 unsigned: 0
    a.emit(HOp::SGE, 19, 15, 16);  // 0
    a.emit(HOp::SGEU, 20, 15, 16); // 1
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[17], 1u);
    EXPECT_EQ(r.emu.ctx().gpr[18], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[19], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[20], 1u);
}

TEST(HostEmu, LoadStoreWidths)
{
    HostRig r;
    r.mem.write32(0x2000, 0xdeadbeef);
    HAsm a;
    a.loadImm(15, 0x2000);
    a.emit(HOp::LW, 16, 15, 0, 0);
    a.emit(HOp::LBU, 17, 15, 0, 3);
    a.emit(HOp::LB, 18, 15, 0, 3);   // 0xde sign-extended
    a.emit(HOp::LHU, 19, 15, 0, 2);
    a.emit(HOp::LH, 20, 15, 0, 2);
    a.emit(HOp::SB, 0, 15, 16, 4);   // store low byte of r16
    a.emit(HOp::SH, 0, 15, 16, 6);
    a.emit(HOp::SW, 0, 15, 16, 8);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[16], 0xdeadbeefu);
    EXPECT_EQ(r.emu.ctx().gpr[17], 0xdeu);
    EXPECT_EQ(r.emu.ctx().gpr[18], 0xffffffdeu);
    EXPECT_EQ(r.emu.ctx().gpr[19], 0xdeadu);
    EXPECT_EQ(r.emu.ctx().gpr[20], 0xffffdeadu);
    EXPECT_EQ(r.mem.read8(0x2004), 0xefu);
    EXPECT_EQ(r.mem.read16(0x2006), 0xbeefu);
    EXPECT_EQ(r.mem.read32(0x2008), 0xdeadbeefu);
}

TEST(HostEmu, BranchesAndJump)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 5);            // 0
    a.loadImm(16, 5);            // 1
    a.emit(HOp::BEQ, 0, 15, 16, 1); // 2: taken, skip next
    a.emit(HOp::ADDI, 17, 0, 0, 99); // 3: skipped
    a.emit(HOp::ADDI, 18, 0, 0, 1);  // 4
    a.emit(HOp::BNE, 0, 15, 16, 1);  // 5: not taken
    a.emit(HOp::ADDI, 19, 0, 0, 2);  // 6: executed
    a.emit(HOp::J, 0, 0, 0, 9);      // 7: jump over 8
    a.emit(HOp::ADDI, 17, 0, 0, 1);  // 8: skipped
    a.emit(HOp::EXITB, 0, 0, 0, 0);  // 9
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[17], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[18], 1u);
    EXPECT_EQ(r.emu.ctx().gpr[19], 2u);
}

TEST(HostEmu, BackwardBranchLoop)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 10);              // 0: counter
    a.emit(HOp::ADDI, 16, 0, 0, 0); // 1: acc
    // loop: acc += counter; counter -= 1; bne counter, r0, loop
    a.emit(HOp::ADD, 16, 16, 15);   // 2
    a.emit(HOp::ADDI, 15, 15, 0, -1); // 3
    a.emit(HOp::BNE, 0, 15, 0, -3); // 4 -> 2
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(r.emu.ctx().gpr[16], 55u);
    EXPECT_EQ(e.instsExecuted, 2u + 3 * 10 + 1);
}

TEST(HostEmu, CommitMakesStoresVisible)
{
    HostRig r;
    r.mem.write32(0x3000, 1); // page present
    HAsm a;
    a.emit(HOp::CKPT);
    a.loadImm(15, 0x3000);
    a.loadImm(16, 42);
    a.emit(HOp::SW, 0, 15, 16, 0);
    a.emit(HOp::LW, 17, 15, 0, 0); // must see the buffered store
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[17], 42u) << "store-to-load forwarding";
    EXPECT_EQ(r.mem.read32(0x3000), 42u) << "committed";
}

TEST(HostEmu, AssertFailureRollsBack)
{
    HostRig r;
    r.mem.write32(0x3000, 7);
    HAsm a;
    a.emit(HOp::CKPT);                 // 0
    a.loadImm(15, 0x3000);             // 1
    a.loadImm(16, 99);                 // 2
    a.emit(HOp::SW, 0, 15, 16, 0);     // 3: speculative store
    a.emit(HOp::ADDI, 17, 0, 0, 5);    // 4
    a.emit(HOp::ASSERTNZ, 0, 0, 0, 3); // 5: r0 == 0 -> fails, id 3
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::AssertFail);
    EXPECT_EQ(e.assertId, 3u);
    // Rollback: registers restored, store never reached memory.
    EXPECT_EQ(r.emu.ctx().gpr[15], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[17], 0u);
    EXPECT_EQ(r.mem.read32(0x3000), 7u);
    EXPECT_EQ(r.emu.rollbacks(), 1u);
}

TEST(HostEmu, AssertPassContinues)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 1);
    a.emit(HOp::ASSERTNZ, 0, 15, 0, 0); // r15 != 0: passes
    a.emit(HOp::ASSERTZ, 0, 0, 0, 1);   // r0 == 0: passes
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 5);
    auto e = r.run(r.install(a));
    EXPECT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 5u);
}

TEST(HostEmu, AliasDetectionFailsSpeculativeLoad)
{
    // LWS records the load; a later overlapping store must fail.
    HostRig r;
    r.mem.write32(0x4000, 123);
    HAsm a;
    a.emit(HOp::CKPT);
    a.loadImm(15, 0x4000);
    a.emit(HOp::LWS, 16, 15, 0, 0); // speculative (hoisted) load
    a.loadImm(17, 1);
    a.emit(HOp::SWC, 0, 15, 17, 0); // aliases the LWS -> fail
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::AliasFail);
    EXPECT_EQ(r.mem.read32(0x4000), 123u) << "rolled back";
}

TEST(HostEmu, NonAliasingSpeculativeLoadCommits)
{
    HostRig r;
    r.mem.write32(0x4000, 123);
    r.mem.write32(0x4100, 0);
    HAsm a;
    a.emit(HOp::CKPT);
    a.loadImm(15, 0x4000);
    a.emit(HOp::LWS, 16, 15, 0, 0);
    a.loadImm(17, 1);
    a.emit(HOp::SWC, 0, 15, 17, 0x100); // disjoint address
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(r.emu.ctx().gpr[16], 123u);
    EXPECT_EQ(r.mem.read32(0x4100), 1u);
}

TEST(HostEmu, PageMissRollsBackAndReports)
{
    CodeCache cache(1 << 16);
    guest::PagedMemory mem(guest::MissPolicy::Signal);
    HostEmu emu(cache, mem);
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 4096);
    a.emit(HOp::LW, 16, 15, 0, 0); // page 0x1000 absent
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 pc = cache.install(a.words());
    auto e = emu.run(pc);
    ASSERT_EQ(e.kind, ExitKind::PageMiss);
    EXPECT_EQ(e.missPage, 0x1000u);
    EXPECT_EQ(emu.ctx().gpr[15], 0u) << "rolled back";

    // Install the page; the retry succeeds.
    std::vector<u8> page(pageSizeBytes, 0);
    page[0] = 9;
    mem.installPage(0x1000, page.data());
    e = emu.run(pc);
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(emu.ctx().gpr[16], 9u);
}

TEST(HostEmu, SpeculativeStoreToAbsentPageMisses)
{
    CodeCache cache(1 << 16);
    guest::PagedMemory mem(guest::MissPolicy::Signal);
    HostEmu emu(cache, mem);
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 4096);
    a.emit(HOp::ADDI, 16, 0, 0, 5);
    a.emit(HOp::SW, 0, 15, 16, 0);
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 pc = cache.install(a.words());
    auto e = emu.run(pc);
    ASSERT_EQ(e.kind, ExitKind::PageMiss);
    EXPECT_EQ(e.missPage, 0x1000u);
}

TEST(HostEmu, DivFaultRollsBack)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 3);
    a.emit(HOp::DIV, 16, 15, 0); // /0
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::DivFault);
    EXPECT_EQ(r.emu.ctx().gpr[15], 0u);
}

TEST(HostEmu, IbtcHitAndMiss)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 0x5678);         // guest target pc
    a.emit(HOp::IBTC, 0, 15, 0);   // probe
    // fallthrough if miss doesn't happen here; target block:
    HAsm b;
    b.emit(HOp::ADDI, 16, 0, 0, 7);
    b.emit(HOp::EXITB, 0, 0, 0, 2);
    u32 apc = r.install(a);
    u32 bpc = r.install(b);

    // Miss first.
    auto e = r.run(apc);
    ASSERT_EQ(e.kind, ExitKind::IbtcMiss);
    EXPECT_EQ(e.guestTarget, 0x5678u);

    // Fill and retry: hit jumps to b.
    r.emu.ibtc().insert(0x5678, bpc);
    e = r.run(apc);
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 2u);
    EXPECT_EQ(r.emu.ctx().gpr[16], 7u);
    EXPECT_EQ(r.emu.ibtc().hits(), 1u);
    EXPECT_EQ(r.emu.ibtc().misses(), 1u);
}

TEST(HostEmu, IbtcHitCostCharged)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 0x1234);
    a.emit(HOp::IBTC, 0, 15, 0);
    HAsm b;
    b.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 apc = r.install(a);
    u32 bpc = r.install(b);
    r.emu.ibtc().insert(0x1234, bpc);
    auto e = r.run(apc);
    // loadImm(1) + IBTC(6 default) + EXITB(1) = 8
    EXPECT_EQ(e.instsExecuted, 8u);
}

TEST(HostEmu, LocalMemoryCounters)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 0x100);
    a.emit(HOp::LWL, 16, 15, 0, 0);
    a.emit(HOp::ADDI, 16, 16, 0, 1);
    a.emit(HOp::SWL, 0, 15, 16, 0);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 pc = r.install(a);
    r.emu.writeLocal32(0x100, 41);
    r.run(pc);
    EXPECT_EQ(r.emu.readLocal32(0x100), 42u);
}

TEST(HostEmu, FpPoolAndArithmetic)
{
    HostRig r;
    r.emu.fpPool().push_back(1.5);
    r.emu.fpPool().push_back(2.5);
    HAsm a;
    a.emit(HOp::FLDC, 8, 0, 0, 0);
    a.emit(HOp::FLDC, 9, 0, 0, 1);
    a.emit(HOp::FADD, 10, 8, 9);
    a.emit(HOp::FMUL, 11, 8, 9);
    a.emit(HOp::FDIV, 12, 9, 8);
    a.emit(HOp::FSQRT, 13, 9, 0);
    a.emit(HOp::FRND, 14, 12, 0);
    a.emit(HOp::FLT, 15, 8, 9);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    auto &f = r.emu.ctx().fpr;
    EXPECT_DOUBLE_EQ(f[10], 4.0);
    EXPECT_DOUBLE_EQ(f[11], 3.75);
    EXPECT_DOUBLE_EQ(f[12], 2.5 / 1.5);
    EXPECT_DOUBLE_EQ(f[13], std::sqrt(2.5));
    EXPECT_DOUBLE_EQ(f[14], 2.0); // nearest-even of 1.666
    EXPECT_EQ(r.emu.ctx().gpr[15], 1u);
}

TEST(HostEmu, FpMemoryRoundtrip)
{
    HostRig r;
    r.mem.write64(0x6000, 0); // allocate page
    r.emu.fpPool().push_back(3.25);
    HAsm a;
    a.loadImm(15, 0x6000);
    a.emit(HOp::FLDC, 8, 0, 0, 0);
    a.emit(HOp::FST, 0, 15, 8, 0);
    a.emit(HOp::FLD, 9, 15, 0, 0);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_DOUBLE_EQ(r.emu.ctx().fpr[9], 3.25);
}

TEST(HostEmu, GuestStateMappingRoundtrip)
{
    HostRig r;
    guest::CpuState st;
    for (unsigned i = 0; i < guest::numGRegs; ++i)
        st.gpr[i] = 0x100 + i;
    for (unsigned i = 0; i < guest::numFRegs; ++i)
        st.fpr[i] = 1.5 * i;
    st.flags = guest::flagZ | guest::flagC;
    r.emu.loadGuestState(st);
    EXPECT_EQ(r.emu.ctx().gpr[guestGprBase + 3], 0x103u);
    EXPECT_EQ(r.emu.ctx().gpr[flagZ], 1u);
    EXPECT_EQ(r.emu.ctx().gpr[flagS], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[flagC], 1u);

    guest::CpuState back;
    r.emu.storeGuestState(back);
    back.pc = st.pc;
    EXPECT_TRUE(back == st) << back.diff(st);
}

TEST(HostEmu, BudgetExhaustionIsResumable)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 1000);
    a.emit(HOp::ADDI, 15, 15, 0, -1);
    a.emit(HOp::BNE, 0, 15, 0, -2);
    a.emit(HOp::EXITB, 0, 0, 0, 4);
    u32 pc = r.install(a);
    auto e = r.run(pc, 100);
    ASSERT_EQ(e.kind, ExitKind::Budget);
    // Resume from where it stopped.
    e = r.run(r.emu.ctx().pc, ~0ull);
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 4u);
    EXPECT_EQ(r.emu.ctx().gpr[15], 0u);
}

TEST(HostEmu, TrigExpansionConstantsMatchGsin)
{
    // The codegen contract: FRND + Horner with the shared constants
    // reproduces gsin() bit-exactly. Emulate the expansion by hand.
    HostRig r;
    using namespace guest::trig;
    auto &pool = r.emu.fpPool();
    pool.push_back(invTwoPi); // 0
    pool.push_back(twoPi);    // 1
    for (unsigned k = 0; k < sinTerms; ++k)
        pool.push_back(sinC[k]); // 2..8

    double x = 2.9;
    r.emu.ctx().fpr[0] = x;
    HAsm a;
    // k = nearbyint(x * inv2pi); r = x - k * 2pi
    a.emit(HOp::FLDC, 8, 0, 0, 0);
    a.emit(HOp::FMUL, 9, 0, 8);
    a.emit(HOp::FRND, 9, 9, 0);
    a.emit(HOp::FLDC, 10, 0, 0, 1);
    a.emit(HOp::FMUL, 9, 9, 10);
    a.emit(HOp::FSUB, 9, 0, 9); // r
    a.emit(HOp::FMUL, 10, 9, 9); // r2
    // Horner: p = C[last]; p = p*r2 + C[k]...
    a.emit(HOp::FLDC, 11, 0, 0, s32(2 + sinTerms - 1));
    for (int k = int(sinTerms) - 2; k >= 0; --k) {
        a.emit(HOp::FMUL, 11, 11, 10);
        a.emit(HOp::FLDC, 12, 0, 0, s32(2 + k));
        a.emit(HOp::FADD, 11, 11, 12);
    }
    a.emit(HOp::FMUL, 11, 11, 9);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().fpr[11], guest::gsin(x))
        << "expansion must be bit-exact";
}
