/**
 * @file
 * Unit tests for the Predict+Validate machinery: the per-processor
 * last-value (last-producer) predictor and determinism of
 * Predict+Validate runs across sweep-thread counts.
 */

#include <gtest/gtest.h>

#include "apps/synth_workload.hpp"
#include "cpu/value_predictor.hpp"
#include "sim/study.hpp"
#include "tls/engine.hpp"

using namespace tlsim;
using cpu::ValuePredictor;

TEST(ValuePredictor, ColdTableNeverPredicts)
{
    ValuePredictor p;
    p.configure(64, 0x1234);
    TaskId producer = 0;
    for (Addr w = 0; w < 256; ++w)
        EXPECT_FALSE(p.predict(w, &producer));
    EXPECT_EQ(p.predictions(), 0u);
    EXPECT_EQ(p.lookups(), 256u);
}

TEST(ValuePredictor, OneTrainingReachesThreshold)
{
    ValuePredictor p;
    p.configure(64, 0x1234);
    p.train(0x40, 7);
    TaskId producer = 0;
    ASSERT_TRUE(p.predict(0x40, &producer));
    EXPECT_EQ(producer, 7u);
    // Neighboring words are untouched.
    EXPECT_FALSE(p.predict(0x41, &producer));
}

TEST(ValuePredictor, NewProducerRetrainsImmediately)
{
    // A producer migration must replace the remembered value at
    // predict-ready confidence: the consumer's re-execution after a
    // mispredict squash predicts the corrected producer, so the
    // validate/squash loop cannot livelock.
    ValuePredictor p;
    p.configure(64, 0x1234);
    p.train(0x40, 7);
    p.train(0x40, 7);
    p.train(0x40, 7);
    p.train(0x40, 12);
    TaskId producer = 0;
    ASSERT_TRUE(p.predict(0x40, &producer));
    EXPECT_EQ(producer, 12u);
}

TEST(ValuePredictor, PredictIsPureLookup)
{
    ValuePredictor p;
    p.configure(64, 0x1234);
    p.train(0x40, 7);
    TaskId a = 0, b = 0;
    ASSERT_TRUE(p.predict(0x40, &a));
    ASSERT_TRUE(p.predict(0x40, &b));
    EXPECT_EQ(a, b);
    EXPECT_EQ(p.trainings(), 1u);
}

TEST(ValuePredictor, DirectMappedAliasingIsDeterministic)
{
    // A one-entry table makes every pair of words alias: training the
    // second word must evict the first, and identically-seeded tables
    // replay the identical eviction sequence.
    ValuePredictor p, q;
    p.configure(1, 0x99);
    q.configure(1, 0x99);
    for (ValuePredictor *v : {&p, &q}) {
        v->train(0x10, 3);
        v->train(0x20, 4);
    }
    TaskId producer = 0;
    EXPECT_FALSE(p.predict(0x10, &producer));
    ASSERT_TRUE(p.predict(0x20, &producer));
    EXPECT_EQ(producer, 4u);
    TaskId other = 0;
    EXPECT_FALSE(q.predict(0x10, &other));
    ASSERT_TRUE(q.predict(0x20, &other));
    EXPECT_EQ(other, producer);
}

TEST(ValuePredictor, SeedSelectsIndependentIndexStreams)
{
    // The index hash is seeded: across many seeds, at least one must
    // map two fixed words to different slots of a two-entry table
    // (and at least one to the same slot), or the seed would be dead
    // state. Each individual seed remains fully deterministic.
    bool saw_alias = false, saw_disjoint = false;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        ValuePredictor p;
        p.configure(2, seed);
        p.train(0x10, 3);
        p.train(0x20, 4);
        TaskId producer = 0;
        if (p.predict(0x10, &producer))
            saw_disjoint = true; // both words kept their slots
        else
            saw_alias = true; // 0x20 evicted 0x10
    }
    EXPECT_TRUE(saw_alias);
    EXPECT_TRUE(saw_disjoint);
}

namespace {

/** One Predict+Validate sweep over the synth suite. */
std::vector<sim::SynthStudy>
pvSweep(unsigned threads)
{
    std::vector<tls::SchemeConfig> schemes;
    for (const tls::SchemeConfig &s :
         tls::SchemeConfig::evaluatedSchemes())
        schemes.push_back(
            s.withValidation(tls::Validation::PredictValidate));
    std::vector<apps::SynthSpec> specs =
        apps::synthSuite(24, 96, 0xfeed);
    return sim::runSynthSweep(specs, schemes,
                              mem::MachineParams::numa16(), threads);
}

} // namespace

TEST(ValuePredictor, SweepIsDeterministicAcrossThreads)
{
    std::vector<sim::SynthStudy> base = pvSweep(1);
    std::uint64_t predictions = 0;
    for (const sim::SynthStudy &study : base)
        for (const sim::SynthOutcome &out : study.outcomes)
            predictions +=
                out.result.counters.get("value_predictions");
    // The suite must actually exercise the predictor, or the
    // comparisons below are vacuous.
    EXPECT_GT(predictions, 0u);

    for (unsigned threads : {2u, 4u}) {
        std::vector<sim::SynthStudy> other = pvSweep(threads);
        ASSERT_EQ(other.size(), base.size());
        for (std::size_t a = 0; a < base.size(); ++a) {
            ASSERT_EQ(other[a].outcomes.size(),
                      base[a].outcomes.size());
            for (std::size_t s = 0; s < base[a].outcomes.size(); ++s) {
                const tls::RunResult &x = base[a].outcomes[s].result;
                const tls::RunResult &y = other[a].outcomes[s].result;
                EXPECT_EQ(x.execTime, y.execTime)
                    << base[a].outcomes[s].scheme.name();
                EXPECT_EQ(x.memStateHash, y.memStateHash);
                EXPECT_EQ(x.counters.get("value_predictions"),
                          y.counters.get("value_predictions"));
                EXPECT_EQ(x.counters.get("value_mispredicts"),
                          y.counters.get("value_mispredicts"));
                EXPECT_EQ(x.counters.get("value_validations"),
                          y.counters.get("value_validations"));
            }
        }
    }
}
