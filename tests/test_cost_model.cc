/**
 * @file
 * Cost-model tests: category accounting, config overrides, synthetic
 * stream generation into a trace sink.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tol/cost_model.hh"

using namespace darco;
using namespace darco::tol;

namespace
{

struct CaptureSink : host::TraceSink
{
    std::vector<host::InstRecord> recs;

    void
    record(const host::InstRecord &r) override
    {
        recs.push_back(r);
    }
};

} // namespace

TEST(CostModel, CategoriesAccumulateIndependently)
{
    StatGroup st("t");
    CostModel cm(Config(), st);
    cm.chargeInterp(10);
    cm.chargePrologue();
    cm.chargeLookup();
    cm.chargeChainAttempt();
    cm.chargeDispatch();
    EXPECT_EQ(cm.total(Overhead::Interp), 10u * 20);
    EXPECT_GT(cm.total(Overhead::Prologue), 0u);
    EXPECT_GT(cm.total(Overhead::Lookup), 0u);
    EXPECT_GT(cm.total(Overhead::Chaining), 0u);
    EXPECT_GT(cm.total(Overhead::Other), 0u);
    EXPECT_EQ(cm.total(Overhead::BBTranslator), 0u);
    u64 sum = 0;
    for (unsigned c = 0; c < unsigned(Overhead::NumCats); ++c)
        sum += cm.total(Overhead(c));
    EXPECT_EQ(sum, cm.totalAll());
}

TEST(CostModel, ConfigOverridesConstants)
{
    StatGroup st("t");
    CostModel cm(Config({"cost.interp_inst=5", "cost.prologue=100"}),
                 st);
    cm.chargeInterp(4);
    EXPECT_EQ(cm.total(Overhead::Interp), 20u);
    cm.chargePrologue();
    EXPECT_EQ(cm.total(Overhead::Prologue), 100u);
}

TEST(CostModel, TranslationCostsScaleWithWork)
{
    StatGroup st("t");
    CostModel cm(Config(), st);
    cm.chargeBBTranslation(10, 40);
    u64 small = cm.total(Overhead::BBTranslator);
    cm.chargeBBTranslation(100, 400);
    EXPECT_GT(cm.total(Overhead::BBTranslator), small * 5);

    cm.chargeSBTranslation(50, 600, 300);
    EXPECT_GT(cm.total(Overhead::SBTranslator),
              cm.total(Overhead::BBTranslator));
}

// Each category's counter is registered on its first charge, not up
// front, so the StatGroup key set (stats dumps, the checkpoint stats
// section) names only charged categories. A stats reset (sampling
// warm-up) zeroes it, and later charges still land in it.
TEST(CostModel, StatsMirrorsCategories)
{
    StatGroup st("t");
    CostModel cm(Config(), st);
    EXPECT_TRUE(st.counters().empty());
    cm.chargeInterp(3);
    EXPECT_EQ(st.value("tol.ov_interpreter"), cm.total(Overhead::Interp));
    EXPECT_EQ(st.counters().size(), 1u);
    EXPECT_FALSE(st.hasCounter("tol.ov_concurrent_translator"));
    cm.chargeBBTranslationConc(4, 10);
    EXPECT_EQ(st.value("tol.ov_concurrent_translator"),
              cm.total(Overhead::ConcTranslator));
    st.resetAll();
    cm.chargeInterp(2);
    EXPECT_EQ(st.value("tol.ov_interpreter"), 2u * 20);
}

TEST(CostModel, SynthesizedStreamMatchesCharge)
{
    StatGroup st("t");
    CostModel cm(Config(), st);
    CaptureSink sink;
    cm.setTraceSink(&sink);
    cm.charge(Overhead::Other, 500);
    ASSERT_EQ(sink.recs.size(), 500u);
    // PCs land in the TOL code region; mix includes memory + branches.
    int loads = 0, stores = 0, branches = 0;
    for (const auto &r : sink.recs) {
        EXPECT_GE(r.pc, 0xf000'0000u);
        loads += r.cls == host::InstClass::Load;
        stores += r.cls == host::InstClass::Store;
        branches += r.cls == host::InstClass::Branch;
    }
    EXPECT_NEAR(loads / 500.0, 0.25, 0.05);
    EXPECT_NEAR(stores / 500.0, 0.10, 0.05);
    EXPECT_NEAR(branches / 500.0, 0.12, 0.05);
}

TEST(CostModel, NoSinkNoCrash)
{
    StatGroup st("t");
    CostModel cm(Config(), st);
    cm.charge(Overhead::Interp, 1'000'000); // no sink attached
    EXPECT_EQ(cm.total(Overhead::Interp), 1'000'000u);
}
