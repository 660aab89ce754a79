/**
 * @file
 * Golden pins for the functional simulation path: the exact simulated
 * results of a Controller run without a timing model (completed guest
 * instructions, exit code, the TOL CostModel totals per overhead
 * category, and a digest of every Controller counter: tol.*, cc.*,
 * sync.*), for paperSuite programs under the campaign presets, a
 * multi-core run, and an evicting 768-word code cache.
 *
 * The pinned values describe the simulated system, not its speed: a
 * change that only makes the functional path cheaper (IM interpreter,
 * host emulator, code cache, cost accounting) must leave every one of
 * them byte-identical. Regenerate the table only for a deliberate
 * model change, with
 *   DARCO_FUNCTIONAL_GOLDEN_PRINT=1 build/test_functional_golden
 * which prints the table rows for the current code.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "sim/controller.hh"
#include "tol/cost_model.hh"
#include "workloads/suite.hh"

using namespace darco;

namespace
{

/** Suite programs pinned, at a small dynamic scale. */
const char *const kPrograms[] = {"403.gcc", "483.xalancbmk", "ragdoll"};
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
        {"async", "async", {}},
        {"cores2", "fullopt", {"cores=2"}},
    };
    return configs;
}

constexpr unsigned kCats = unsigned(tol::Overhead::NumCats);

/** Expected results of one (program, config) run. */
struct Golden
{
    const char *program;
    const char *config;
    u64 completedInsts;
    u32 exitCode;
    u64 overhead[kCats]; //!< CostModel::total per Overhead category
    u64 counterDigest;   //!< FNV-1a over every "name=value" counter line
};

// clang-format off
const Golden kGolden[] = {
    {"403.gcc", "interp", 159952ull, 89u,
     {3338706ull, 0ull, 0ull, 0ull, 0ull, 234810ull, 180886ull, 0ull},
     0x5ad3a4de802db5ffull},
    {"403.gcc", "noopt", 159952ull, 89u,
     {223598ull, 107368ull, 281946ull, 41930ull, 0ull, 55200ull, 72013ull, 0ull},
     0xa2f88411598fdbe9ull},
    {"403.gcc", "fullopt", 159952ull, 89u,
     {250308ull, 105748ull, 372189ull, 6720ull, 5130ull, 17475ull, 49468ull, 0ull},
     0xb7edb3101c10dbbdull},
    {"403.gcc", "tinycc", 159952ull, 89u,
     {1202476ull, 589574ull, 62558ull, 16072ull, 17310ull, 68820ull, 120874ull, 0ull},
     0x9f02915fed21c4b0ull},
    {"403.gcc", "async", 159952ull, 89u,
     {244134ull, 0ull, 16862ull, 5488ull, 4140ull, 16395ull, 48622ull, 444375ull},
     0xb0da5a3cc8312c99ull},
    {"403.gcc", "cores2", 319904ull, 89u,
     {382571ull, 108382ull, 808352ull, 10710ull, 6480ull, 22290ull, 53536ull, 0ull},
     0xb5eb8a599c6b1c97ull},
    {"483.xalancbmk", "interp", 167499ull, 252u,
     {3515272ull, 0ull, 0ull, 0ull, 0ull, 277920ull, 206752ull, 0ull},
     0x2c4116fb3286bd3bull},
    {"483.xalancbmk", "noopt", 167499ull, 252u,
     {201284ull, 104094ull, 290212ull, 50162ull, 0ull, 66870ull, 78151ull, 0ull},
     0x23513f27a9f4d97eull},
    {"483.xalancbmk", "fullopt", 167499ull, 252u,
     {287098ull, 102482ull, 566595ull, 10416ull, 6180ull, 24390ull, 53554ull, 0ull},
     0x82109df06d02d53dull},
    {"483.xalancbmk", "tinycc", 167499ull, 252u,
     {1348126ull, 667502ull, 72626ull, 20510ull, 24780ull, 92955ull, 153217ull, 0ull},
     0x26dcb8d9b218dab3ull},
    {"483.xalancbmk", "async", 167499ull, 252u,
     {310702ull, 0ull, 226671ull, 10192ull, 5970ull, 24630ull, 53734ull, 430498ull},
     0xbf8f50bc2cfeb288ull},
    {"483.xalancbmk", "cores2", 334998ull, 252u,
     {308334ull, 104460ull, 581112ull, 12866ull, 7290ull, 27990ull, 55705ull, 0ull},
     0xcad729ee57145f86ull},
    {"ragdoll", "interp", 54131ull, 12u,
     {1135180ull, 0ull, 0ull, 0ull, 0ull, 87900ull, 92740ull, 0ull},
     0xc56ba1ca50d70f24ull},
    {"ragdoll", "noopt", 54131ull, 12u,
     {251134ull, 14084ull, 243156ull, 13202ull, 0ull, 19710ull, 52141ull, 0ull},
     0xe17abe0f9b63a148ull},
    {"ragdoll", "fullopt", 54131ull, 12u,
     {241558ull, 14040ull, 132754ull, 2170ull, 2730ull, 7890ull, 44653ull, 0ull},
     0x71d033b0baf7fbdbull},
    {"ragdoll", "tinycc", 54131ull, 12u,
     {309621ull, 50556ull, 94708ull, 2128ull, 3300ull, 11925ull, 54343ull, 0ull},
     0xef35148e634842a5ull},
    {"ragdoll", "async", 54131ull, 12u,
     {254463ull, 0ull, 35913ull, 2100ull, 2670ull, 8460ull, 45013ull, 100230ull},
     0x21ae06e00850a3f7ull},
    {"ragdoll", "cores2", 108262ull, 12u,
     {288243ull, 121626ull, 132754ull, 3920ull, 4680ull, 11580ull, 46543ull, 0ull},
     0x65e5b3d159b568d8ull},
};
// clang-format on

struct Measured
{
    u64 completedInsts = 0;
    u32 exitCode = 0;
    u64 overhead[kCats] = {};
    u64 digest = 0;
    std::string dump; //!< every counter, one "name=value" per line
};

Measured
measure(const guest::Program &prog, const GoldenConfig &gc)
{
    Config cfg = campaign::presetConfigs({gc.preset}, gc.extra)[0].second;
    sim::Controller ctl(cfg);
    ctl.load(prog);
    ctl.run();
    EXPECT_TRUE(ctl.finished());

    Measured m;
    m.completedInsts = ctl.tol().completedInsts();
    m.exitCode = ctl.exitCode();
    for (unsigned c = 0; c < kCats; ++c)
        m.overhead[c] = ctl.tol().costModel().total(tol::Overhead(c));
    std::ostringstream os;
    for (const auto &[name, c] : ctl.stats().counters())
        os << name << '=' << c.value() << '\n';
    m.dump = os.str();
    m.digest = 0xcbf29ce484222325ull;
    for (unsigned char ch : m.dump) {
        m.digest ^= ch;
        m.digest *= 0x100000001b3ull;
    }
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

TEST(FunctionalGolden, PinnedResultsUnchanged)
{
    const bool print =
        std::getenv("DARCO_FUNCTIONAL_GOLDEN_PRINT") != nullptr;
    auto suite = workloads::paperSuite(kScale);
    for (const char *name : kPrograms) {
        const workloads::Benchmark *b = workloads::findBenchmark(suite, name);
        ASSERT_NE(b, nullptr) << name;
        guest::Program prog = workloads::synthesize(b->params);
        for (const GoldenConfig &gc : goldenConfigs()) {
            SCOPED_TRACE(std::string(name) + " / " + gc.name);
            Measured m = measure(prog, gc);
            if (print) {
                std::printf("    {\"%s\", \"%s\", %lluull, %uu,\n     {",
                            name, gc.name,
                            (unsigned long long)m.completedInsts,
                            m.exitCode);
                for (unsigned c = 0; c < kCats; ++c)
                    std::printf("%s%lluull", c ? ", " : "",
                                (unsigned long long)m.overhead[c]);
                std::printf("},\n     0x%016llxull},\n",
                            (unsigned long long)m.digest);
                continue;
            }
            const Golden *g = findGolden(name, gc.name);
            ASSERT_NE(g, nullptr) << "no pinned values";
            EXPECT_EQ(m.completedInsts, g->completedInsts);
            EXPECT_EQ(m.exitCode, g->exitCode);
            for (unsigned c = 0; c < kCats; ++c)
                EXPECT_EQ(m.overhead[c], g->overhead[c])
                    << tol::overheadName(tol::Overhead(c));
            EXPECT_EQ(m.digest, g->counterDigest) << m.dump;
        }
    }
}
