/**
 * @file
 * Golden pins for the timing and power models: the exact simulated
 * results of InOrderCore (every counter of its StatGroup, cycles(),
 * instructions()) and the PowerReport totals, for paperSuite programs
 * under the campaign presets and under odd geometries that exercise
 * each index/shift path of the timing hot loop (non-pow2 IQ ring,
 * three translator vthreads, short and page-sized cache lines,
 * direct-mapped L1D, 64-way L2, one-entry L1 TLB, three ALUs).
 *
 * The pinned values describe the model's semantics, not its speed: a
 * change that only makes the model cheaper must leave every one of
 * them byte-identical. Regenerate the table only for a deliberate
 * model change, with
 *   DARCO_TIMING_GOLDEN_PRINT=1 build/test_timing_golden
 * which prints the table rows for the current code.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "power/power.hh"
#include "sim/controller.hh"
#include "timing/core.hh"
#include "workloads/suite.hh"

using namespace darco;

namespace
{

/** Suite programs pinned, at a small dynamic scale. */
const char *const kPrograms[] = {"401.bzip2", "435.gromacs", "ragdoll"};
constexpr double kScale = 0.02;

/** A named design point: a campaign preset plus extra keys. */
struct GoldenConfig
{
    const char *name;
    const char *preset;
    std::vector<std::string> extra;
};

const std::vector<GoldenConfig> &
goldenConfigs()
{
    static const std::vector<GoldenConfig> configs = {
        {"interp", "interp", {}},
        {"noopt", "noopt", {}},
        {"fullopt", "fullopt", {}},
        {"tinycc", "tinycc", {}},
        {"async_vt3", "async", {"tol.async.vthreads=3"}},
        {"iq5", "fullopt", {"core.iq_size=5"}},
        {"line32", "fullopt", {"cache.line=32"}},
        {"line4096", "fullopt", {"cache.line=4096"}},
        {"l1d_dm", "fullopt", {"l1d.assoc=1"}},
        {"l2_64way", "fullopt", {"l2.assoc=64"}},
        {"tlb1", "fullopt", {"tlb.l1_entries=1"}},
        {"alu3", "fullopt", {"core.num_alu=3"}},
    };
    return configs;
}

/** Expected results of one (program, config) run. */
struct Golden
{
    const char *program;
    const char *config;
    u64 cycles;
    u64 instructions;
    u64 counterDigest; //!< FNV-1a over every "name=value" counter line
    double energyJ;
    double timeSeconds;
    double avgPowerW;
    double epiNj;
};

// clang-format off
const Golden kGolden[] = {
    {"401.bzip2", "interp", 37003522ull, 5752151ull, 0xdbaf995b7763bd86ull,
     0.013298700207999999, 0.018501760999999999, 0.71878023978366168, 2.3119525561828955},
    {"401.bzip2", "noopt", 5796919ull, 1334498ull, 0x8333195591f39e10ull,
     0.0020126305790000003, 0.0028984595000000001, 0.69437940361078021, 1.5081555603680188},
    {"401.bzip2", "fullopt", 6477323ull, 1377052ull, 0x33cad41dd7ad9661ull,
     0.0022350203005000002, 0.0032386615000000001, 0.69010617518996664, 1.6230471329332519},
    {"401.bzip2", "tinycc", 19418926ull, 3373082ull, 0x99fb2bb5eb5829e0ull,
     0.0067733370425000008, 0.0097094629999999998, 0.69760161221068573, 2.0080558499615484},
    {"401.bzip2", "async_vt3", 4230136ull, 1061586ull, 0x83d3db3d3892720full,
     0.0014368011074999999, 0.0021150679999999999, 0.67931674418978494, 1.3534476787561251},
    {"401.bzip2", "iq5", 6477323ull, 1377052ull, 0x33cad41dd7ad9661ull,
     0.0022350203005000002, 0.0032386615000000001, 0.69010617518996664, 1.6230471329332519},
    {"401.bzip2", "line32", 3200663ull, 1377052ull, 0x0a64a6b3450ee97dull,
     0.0016751963515000002, 0.0016003314999999999, 1.0467808397822578, 1.2165091452610359},
    {"401.bzip2", "line4096", 1051215ull, 1377052ull, 0x25222b991c723da2ull,
     0.0003255083825, 0.00052560750000000005, 0.61929934884871307, 0.2363806032742409},
    {"401.bzip2", "l1d_dm", 6418741ull, 1377052ull, 0xcec1510c7b77e64eull,
     0.0022254114905, 0.0032093705000000002, 0.69341058955330959, 1.6160693209116284},
    {"401.bzip2", "l2_64way", 8024141ull, 1377052ull, 0x4a6d5189ac528648ull,
     0.0025529775505000003, 0.0040120705000000001, 0.63632419981154376, 1.8539441869297602},
    {"401.bzip2", "tlb1", 6533541ull, 1377052ull, 0xee990ff771234ba9ull,
     0.0022420475505000002, 0.0032667705000000002, 0.68631927173947482, 1.6281502445078329},
    {"401.bzip2", "alu3", 6477090ull, 1377052ull, 0x2f17d34c1e7f0a0cull,
     0.0022349911755000004, 0.0032385449999999998, 0.69012200710504268, 1.6230259826789404},
    {"435.gromacs", "interp", 75245245ull, 11702237ull, 0xefec962452fbf7e5ull,
     0.027036026178000001, 0.037622622500000001, 0.71861088838238218, 2.3103297410572012},
    {"435.gromacs", "noopt", 8294725ull, 2061830ull, 0x2f7b04b61db51a38ull,
     0.0027548040914999999, 0.0041473624999999997, 0.66423036122354873, 1.3360966187804035},
    {"435.gromacs", "fullopt", 10469369ull, 2173034ull, 0xd15d9dc44792ac67ull,
     0.0034640559970000001, 0.0052346844999999996, 0.66175067418103239, 1.5941103530823724},
    {"435.gromacs", "tinycc", 20361553ull, 4095825ull, 0xd6ca58d748078990ull,
     0.0069602352635, 0.0101807765, 0.683664479177988, 1.6993487913912337},
    {"435.gromacs", "async_vt3", 6912019ull, 1679422ull, 0x8798846a91b198a2ull,
     0.0022087219865, 0.0034560095000000001, 0.63909604024525979, 1.3151679485561103},
    {"435.gromacs", "iq5", 10469369ull, 2173034ull, 0xd15d9dc44792ac67ull,
     0.0034640559970000001, 0.0052346844999999996, 0.66175067418103239, 1.5941103530823724},
    {"435.gromacs", "line32", 5553933ull, 2173034ull, 0x5b28957c32980c9cull,
     0.0026308772670000004, 0.0027769664999999998, 0.94739251157693138, 1.2106930986813829},
    {"435.gromacs", "line4096", 2278106ull, 2173034ull, 0xb09de9b021fc6df3ull,
     0.00059436175399999998, 0.0011390529999999999, 0.52180342266777757, 0.27351700617661756},
    {"435.gromacs", "l1d_dm", 10388480ull, 2173034ull, 0x7aff9ed0f1f50630ull,
     0.0034524967320000008, 0.0051942400000000001, 0.66467793786964036, 1.5887909402245894},
    {"435.gromacs", "l2_64way", 12806359ull, 2173034ull, 0x91df38aece48dc56ull,
     0.0039402072469999997, 0.0064031794999999999, 0.61535167755331543, 1.8132285307086773},
    {"435.gromacs", "tlb1", 10509459ull, 2173034ull, 0xd74bd338fae56277ull,
     0.0034690672470000005, 0.0052547295000000003, 0.66017998585845383, 1.5964164605800002},
    {"435.gromacs", "alu3", 10469329ull, 2173034ull, 0xd896dc8a3b4d2103ull,
     0.0034640509970000001, 0.0052346644999999997, 0.66175224735033167, 1.5941080521519682},
    {"ragdoll", "interp", 8492063ull, 1315820ull, 0x60f02ed083de8dadull,
     0.0030568137174999998, 0.0042460314999999997, 0.71992252471513696, 2.3231245288109315},
    {"ragdoll", "noopt", 4277104ull, 706673ull, 0x97aa55ee035f0b85ull,
     0.0014977625445000001, 0.0021385520000000002, 0.70036292991706539, 2.1194563036935046},
    {"ragdoll", "fullopt", 3242621ull, 556304ull, 0x2b15d7e7f8543959ull,
     0.0011316658295, 0.0016213104999999999, 0.69799451092187459, 2.0342579408021511},
    {"ragdoll", "tinycc", 3719727ull, 644800ull, 0x58dae36328aac469ull,
     0.0013062859344999999, 0.0018598635, 0.70235580971399236, 2.0258776899813893},
    {"ragdoll", "async_vt3", 2582721ull, 479433ull, 0xf285677b958fafc2ull,
     0.00089595110700000009, 0.0012913605, 0.69380402064334479, 1.8687722935217226},
    {"ragdoll", "iq5", 3242621ull, 556304ull, 0x2b15d7e7f8543959ull,
     0.0011316658295, 0.0016213104999999999, 0.69799451092187459, 2.0342579408021511},
    {"ragdoll", "line32", 1641944ull, 556304ull, 0xaa308f49571973bfull,
     0.00086506204050000005, 0.000820972, 1.0537046823765002, 1.5550167543285685},
    {"ragdoll", "line4096", 412870ull, 556304ull, 0xf274e540948247f7ull,
     0.00013837302250000003, 0.00020643500000000001, 0.67029826579795104, 0.24873634289884672},
    {"ragdoll", "l1d_dm", 3213432ull, 556304ull, 0x6cf63572e3377474ull,
     0.0011266754245, 0.001606716, 0.70122873270696251, 2.0252872970534095},
    {"ragdoll", "l2_64way", 4036039ull, 556304ull, 0xfe410960afe7a677ull,
     0.0012929055795000001, 0.0020180195, 0.64068041934183495, 2.3240990169044262},
    {"ragdoll", "tlb1", 3250475ull, 556304ull, 0x2c16b93f8da16bd3ull,
     0.0011326475795000002, 0.0016252375, 0.69691203870203589, 2.0360227133006417},
    {"ragdoll", "alu3", 3242595ull, 556304ull, 0x59d7738db49d70f3ull,
     0.0011316625794999999, 0.0016212975, 0.6979981030625162, 2.0342520986726678},
};
// clang-format on

struct Measured
{
    u64 cycles = 0;
    u64 instructions = 0;
    u64 digest = 0;
    std::string dump; //!< every counter, one "name=value" per line
    power::PowerReport power;
};

Measured
measure(const guest::Program &prog, const GoldenConfig &gc)
{
    Config cfg = campaign::presetConfigs({gc.preset}, gc.extra)[0].second;
    sim::Controller ctl(cfg);
    StatGroup tstats("timing");
    timing::InOrderCore core(cfg, tstats);
    ctl.load(prog);
    ctl.tol().setTraceSink(&core);
    ctl.run();
    EXPECT_TRUE(ctl.finished());

    Measured m;
    m.cycles = core.cycles();
    m.instructions = core.instructions();
    std::ostringstream os;
    for (const auto &[name, c] : tstats.counters())
        os << name << '=' << c.value() << '\n';
    m.dump = os.str();
    m.digest = 0xcbf29ce484222325ull;
    for (unsigned char ch : m.dump) {
        m.digest ^= ch;
        m.digest *= 0x100000001b3ull;
    }
    m.power = power::PowerModel(cfg).analyze(tstats);
    return m;
}

const Golden *
findGolden(const std::string &program, const std::string &config)
{
    for (const Golden &g : kGolden) {
        if (program == g.program && config == g.config)
            return &g;
    }
    return nullptr;
}

} // namespace

TEST(TimingGolden, PinnedResultsUnchanged)
{
    const bool print = std::getenv("DARCO_TIMING_GOLDEN_PRINT") != nullptr;
    auto suite = workloads::paperSuite(kScale);
    for (const char *name : kPrograms) {
        const workloads::Benchmark *b = workloads::findBenchmark(suite, name);
        ASSERT_NE(b, nullptr) << name;
        guest::Program prog = workloads::synthesize(b->params);
        for (const GoldenConfig &gc : goldenConfigs()) {
            SCOPED_TRACE(std::string(name) + " / " + gc.name);
            Measured m = measure(prog, gc);
            if (print) {
                std::printf("    {\"%s\", \"%s\", %lluull, %lluull, "
                            "0x%016llxull,\n     %.17g, %.17g, %.17g, "
                            "%.17g},\n",
                            name, gc.name, (unsigned long long)m.cycles,
                            (unsigned long long)m.instructions,
                            (unsigned long long)m.digest,
                            m.power.totalEnergyJ, m.power.timeSeconds,
                            m.power.avgPowerW, m.power.epiNj);
                continue;
            }
            const Golden *g = findGolden(name, gc.name);
            ASSERT_NE(g, nullptr) << "no pinned values";
            EXPECT_EQ(m.cycles, g->cycles);
            EXPECT_EQ(m.instructions, g->instructions);
            EXPECT_EQ(m.digest, g->counterDigest) << m.dump;
            EXPECT_EQ(m.power.totalEnergyJ, g->energyJ);
            EXPECT_EQ(m.power.timeSeconds, g->timeSeconds);
            EXPECT_EQ(m.power.avgPowerW, g->avgPowerW);
            EXPECT_EQ(m.power.epiNj, g->epiNj);
        }
    }
}
