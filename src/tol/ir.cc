#include "tol/ir.hh"

#include <optional>
#include <sstream>

#include "common/logging.hh"

namespace darco::tol
{

namespace
{

constexpr IROpInfo
info(const char *name, bool dst, bool fp = false, bool ld = false,
     bool st = false, u8 ms = 0, bool pure = true)
{
    return IROpInfo{name, dst, fp, ld, st, ms, pure};
}

const IROpInfo table[] = {
    info("livein", true),  // fpDst depends on loc; see irInfo note
    info("movi", true),
    info("mov", true),
    info("add", true), info("sub", true), info("mul", true),
    info("mulh", true),
    info("div", true, false, false, false, 0, false), // may fault
    info("rem", true, false, false, false, 0, false),
    info("and", true), info("or", true), info("xor", true),
    info("sll", true), info("srl", true), info("sra", true),
    info("slt", true), info("sltu", true), info("seq", true),
    info("sne", true), info("sge", true), info("sgeu", true),
    info("ld8u", true, false, true, false, 1, false),
    info("ld8s", true, false, true, false, 1, false),
    info("ld16u", true, false, true, false, 2, false),
    info("ld16s", true, false, true, false, 2, false),
    info("ld32", true, false, true, false, 4, false),
    info("st8", false, false, false, true, 1, false),
    info("st16", false, false, false, true, 2, false),
    info("st32", false, false, false, true, 4, false),
    info("fconst", true, true),
    info("fadd", true, true), info("fsub", true, true),
    info("fmul", true, true), info("fdiv", true, true),
    info("fsqrt", true, true), info("fabs", true, true),
    info("fneg", true, true), info("fmov", true, true),
    info("frnd", true, true),
    info("fcvtwd", true, true),
    info("fcvtzw", true, false),
    info("feq", true, false), info("flt", true, false),
    info("fle", true, false),
    info("fld", true, true, true, false, 8, false),
    info("fst", false, false, false, true, 8, false),
    info("assert", false, false, false, false, 0, false),
};

static_assert(sizeof(table) / sizeof(table[0]) == std::size_t(IROp::NumOps),
              "IR opcode table out of sync");

} // namespace

const IROpInfo &
irInfo(IROp op)
{
    auto i = std::size_t(op);
    darco_assert(i < std::size_t(IROp::NumOps));
    return table[i];
}

std::string
dumpRegion(const Region &r)
{
    std::ostringstream os;
    os << "region @0x" << std::hex << r.entryPc << std::dec << " ("
       << (r.mode == RegionMode::BB ? "BB" : "SB") << ") "
       << r.items.size() << " items, " << r.exits.size() << " exits\n";
    auto val = [](s32 v) { return "v" + std::to_string(v); };
    for (std::size_t k = 0; k < r.items.size(); ++k) {
        const IRItem &it = r.items[k];
        os << "  " << k << ": ";
        if (it.kind == IRItem::Kind::CondExit) {
            os << "condexit " << (it.condInvert ? "!" : "") << val(it.cond)
               << " -> exit#" << it.exitIdx << "\n";
            continue;
        }
        const IRInst &i = it.inst;
        const IROpInfo &oi = irInfo(i.op);
        if (oi.hasDst)
            os << val(i.dst) << " = ";
        os << oi.name;
        if (i.op == IROp::LiveIn) {
            os << " loc" << i.loc;
        } else if (i.op == IROp::Movi) {
            os << " " << i.imm;
        } else if (i.op == IROp::FConst) {
            os << " " << i.fimm;
        } else if (i.op == IROp::Assert) {
            os << (i.expectNonZero ? " nz " : " z ") << val(i.src1)
               << " #" << i.assertId;
        } else if (oi.isLoad) {
            os << " [" << val(i.src1) << (i.imm >= 0 ? "+" : "") << i.imm
               << "]";
            if (i.speculative)
                os << " (spec)";
        } else if (oi.isStore) {
            os << " [" << val(i.src1) << (i.imm >= 0 ? "+" : "") << i.imm
               << "] = " << val(i.src2);
        } else {
            if (i.src1 >= 0)
                os << " " << val(i.src1);
            if (i.src2Imm)
                os << ", " << i.imm;
            else if (i.src2 >= 0)
                os << ", " << val(i.src2);
        }
        if (i.guestPc)
            os << "   ; pc=0x" << std::hex << i.guestPc << std::dec;
        os << "\n";
    }
    for (std::size_t e = 0; e < r.exits.size(); ++e) {
        const IRExit &x = r.exits[e];
        os << "  exit#" << e << ": ";
        switch (x.kind) {
          case ExitKind::Direct: os << "direct"; break;
          case ExitKind::Indirect: os << "indirect"; break;
          case ExitKind::Syscall: os << "syscall"; break;
          case ExitKind::Halt: os << "halt"; break;
          case ExitKind::Interp: os << "interp"; break;
          case ExitKind::Promote: os << "promote"; break;
        }
        if (x.kind == ExitKind::Indirect)
            os << " " << val(x.targetVal);
        else
            os << " 0x" << std::hex << x.target << std::dec;
        os << " retired=" << x.instsRetired << " liveouts={";
        for (auto [loc, v] : x.liveOuts)
            os << "loc" << loc << "=" << val(v) << " ";
        os << "}";
        if (e == r.finalExit)
            os << " (final)";
        os << "\n";
    }
    return os.str();
}

std::string
verifyRegion(const Region &r)
{
    // The message is built only when a check fails: the stream is
    // created on the first error, so a valid region formats nothing.
    std::optional<std::ostringstream> errs;
    auto err = [&errs]() -> std::ostream & {
        if (!errs)
            errs.emplace();
        return *errs;
    };
    std::vector<s8> defined(r.numValues, 0); // 0 undef, 1 int, 2 fp
    auto checkUse = [&](s32 v, bool want_fp, const char *what,
                        std::size_t k) {
        if (v < 0 || v >= r.numValues) {
            err() << "item " << k << ": " << what << " value " << v
                  << " out of range; ";
            return;
        }
        if (!defined[v]) {
            err() << "item " << k << ": use of undefined v" << v << "; ";
            return;
        }
        if (defined[v] != (want_fp ? 2 : 1)) {
            err() << "item " << k << ": v" << v << " type mismatch ("
                  << what << "); ";
        }
    };

    for (std::size_t k = 0; k < r.items.size(); ++k) {
        const IRItem &it = r.items[k];
        if (it.kind == IRItem::Kind::CondExit) {
            checkUse(it.cond, false, "cond", k);
            if (it.exitIdx >= r.exits.size())
                err() << "item " << k << ": exit index OOB; ";
            continue;
        }
        const IRInst &i = it.inst;
        const IROpInfo &oi = irInfo(i.op);
        bool fp_dst = oi.fpDst;
        bool fp_src = false;
        switch (i.op) {
          case IROp::LiveIn:
            fp_dst = locIsFp(i.loc);
            break;
          case IROp::FCvtZW:
          case IROp::FEq:
          case IROp::FLt:
          case IROp::FLe:
          case IROp::FAdd:
          case IROp::FSub:
          case IROp::FMul:
          case IROp::FDiv:
          case IROp::FSqrt:
          case IROp::FAbs:
          case IROp::FNeg:
          case IROp::FMov:
          case IROp::FRnd:
          case IROp::FSt:
            fp_src = true;
            break;
          default:
            break;
        }
        if (i.op == IROp::Mov && i.dst >= 0 && i.src1 >= 0 &&
            i.src1 < s32(defined.size()) && defined[i.src1] == 2) {
            fp_dst = true; // int Mov is polymorphic in principle; keep
            fp_src = true; // consistent with its source
        }
        if (i.src1 >= 0) {
            bool s1fp = fp_src;
            if (i.op == IROp::FCvtWD)
                s1fp = false; // int source
            if (oi.isLoad || oi.isStore)
                s1fp = false; // address
            if (i.op == IROp::Assert)
                s1fp = false;
            checkUse(i.src1, s1fp, "src1", k);
        }
        if (i.src2 >= 0 && !i.src2Imm) {
            bool s2fp = fp_src;
            if (oi.isStore)
                s2fp = i.op == IROp::FSt;
            checkUse(i.src2, s2fp, "src2", k);
        }
        if (oi.hasDst) {
            if (i.dst < 0 || i.dst >= r.numValues) {
                err() << "item " << k << ": dst out of range; ";
            } else if (defined[i.dst]) {
                err() << "item " << k << ": v" << i.dst
                      << " defined twice (SSA violation); ";
            } else {
                defined[i.dst] = fp_dst ? 2 : 1;
            }
        }
    }

    if (r.finalExit >= r.exits.size())
        err() << "finalExit OOB; ";
    for (std::size_t e = 0; e < r.exits.size(); ++e) {
        const IRExit &x = r.exits[e];
        for (auto [loc, v] : x.liveOuts) {
            if (loc >= numLocs) {
                err() << "exit " << e << ": bad loc; ";
                continue;
            }
            if (v < 0 || v >= r.numValues || !defined[v]) {
                err() << "exit " << e << ": liveout v" << v
                      << " undefined; ";
            } else if ((defined[v] == 2) != locIsFp(loc)) {
                err() << "exit " << e << ": liveout loc" << loc
                      << " type mismatch; ";
            }
        }
        if (x.kind == ExitKind::Indirect) {
            if (x.targetVal < 0 || x.targetVal >= r.numValues ||
                (x.targetVal < s32(defined.size()) &&
                 defined[x.targetVal] != 1)) {
                err() << "exit " << e << ": bad indirect target; ";
            }
        }
    }
    return errs ? errs->str() : std::string();
}

} // namespace darco::tol
