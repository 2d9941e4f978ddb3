/**
 * @file
 * Prophet-style value prediction for the PredictValidate validation
 * policy (third scheme axis; see DESIGN.md and arXiv 1412.3224).
 *
 * The simulator is timing-only: versions carry producer identity, not
 * data bytes, so the "value" of a word is modeled as a pure function of
 * (word, producer task). Under that model a last-value predictor
 * degenerates to remembering the last producer whose value the
 * consumer observed for a word: a prediction is correct exactly when
 * the producer of the latest version visible to the consumer at
 * validation time equals the remembered producer. That makes the
 * predictor's accuracy a *structural* property of the workload —
 * stable producers (read-mostly data, squash-and-rewrite churn)
 * predict well, migrating producers (true dependence chains,
 * accumulators) mispredict — which is the tradeoff the validation
 * axis exists to measure. Incarnations are deliberately ignored, the
 * same way RunResult::memStateHash ignores them: a producer that is
 * squashed and deterministically re-executes writes "the same value",
 * which is precisely the false-squash pattern value prediction
 * tolerates and the baseline does not.
 *
 * The predictor is per-processor, allocation-free once configured,
 * and mutated only in simulated event order, so results are
 * byte-identical at any thread count. Each task's predicted reads,
 * which commit-time validation replays, live in its
 * tls::TaskFootprint.
 */

#ifndef TLSIM_CPU_VALUE_PREDICTOR_HPP
#define TLSIM_CPU_VALUE_PREDICTOR_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace tlsim::cpu {

/**
 * Direct-mapped, seeded-index last-value predictor (one per
 * processor). The table index of a word is a splitmix-style hash of
 * (seed, word), so finite-table aliasing — two hot words evicting each
 * other — depends on the workload seed exactly like every other
 * seeded structure in the simulator.
 */
class ValuePredictor
{
  public:
    /** 2-bit confidence: predict at or above this value. */
    static constexpr std::uint8_t kPredictThreshold = 1;
    static constexpr std::uint8_t kMaxConfidence = 3;

    ValuePredictor() { configure(1024, 0); }

    /** Size the table (rounded up to a power of two) and set the
     *  index-hash seed. Clears all entries and counters. */
    void configure(std::size_t entries, std::uint64_t seed);

    /**
     * Predict the value of @p word. True when the tagged entry matches
     * and is confident; @p producer receives the remembered producer
     * (the modeled "last value"). Pure lookup: no state change.
     */
    bool predict(Addr word, TaskId *producer) const;

    /**
     * Train with an observed (word, producer) outcome — a completed
     * non-predicted cross-task read, or the actual producer found at
     * validation. Same producer again strengthens confidence; a new
     * producer (or an aliased slot) retrains the entry at confidence
     * kPredictThreshold, so the *corrected* value predicts on the
     * consumer's re-execution and validation cannot livelock.
     */
    void train(Addr word, TaskId producer);

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t predictions() const { return predictions_; }
    std::uint64_t trainings() const { return trainings_; }
    std::size_t tableEntries() const { return table_.size(); }

  private:
    struct Entry {
        Addr word = 0;
        TaskId producer = kNoTask;
        std::uint8_t conf = 0;
    };

    std::size_t indexOf(Addr word) const;

    std::vector<Entry> table_;
    std::uint64_t seed_ = 0;
    std::size_t mask_ = 0;
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t predictions_ = 0;
    std::uint64_t trainings_ = 0;
};

} // namespace tlsim::cpu

#endif // TLSIM_CPU_VALUE_PREDICTOR_HPP
