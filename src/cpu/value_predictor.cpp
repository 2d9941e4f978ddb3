#include "cpu/value_predictor.hpp"

namespace tlsim::cpu {

namespace {

/** splitmix64 finalizer over a fixed state (pure, no state advance). */
std::uint64_t
mix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
ValuePredictor::configure(std::size_t entries, std::uint64_t seed)
{
    std::size_t n = 1;
    while (n < entries)
        n <<= 1;
    table_.assign(n, Entry{});
    mask_ = n - 1;
    seed_ = seed;
    lookups_ = predictions_ = trainings_ = 0;
}

std::size_t
ValuePredictor::indexOf(Addr word) const
{
    return std::size_t(mix(seed_ ^ word)) & mask_;
}

bool
ValuePredictor::predict(Addr word, TaskId *producer) const
{
    ++lookups_;
    const Entry &e = table_[indexOf(word)];
    if (e.conf < kPredictThreshold || e.word != word ||
        e.producer == kNoTask)
        return false;
    ++predictions_;
    *producer = e.producer;
    return true;
}

void
ValuePredictor::train(Addr word, TaskId producer)
{
    ++trainings_;
    Entry &e = table_[indexOf(word)];
    if (e.word == word && e.producer == producer) {
        if (e.conf < kMaxConfidence)
            ++e.conf;
        return;
    }
    // New word in this slot, or a new producer for the same word:
    // retrain at the prediction threshold so the corrected value is
    // usable immediately (a squashed consumer's re-execution must be
    // able to predict right and validate clean — no livelock).
    e.word = word;
    e.producer = producer;
    e.conf = kPredictThreshold;
}

} // namespace tlsim::cpu
