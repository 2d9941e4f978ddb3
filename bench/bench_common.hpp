/**
 * @file
 * Shared helpers for the figure/table bench drivers.
 */

#ifndef TLSIM_BENCH_BENCH_COMMON_HPP
#define TLSIM_BENCH_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/fault.hpp"
#include "common/task_pool.hpp"
#include "common/trace.hpp"
#include "mem/machine_params.hpp"
#include "sim/result_cache.hpp"

namespace tlsim::bench {

/**
 * Parse one thread-count value: a whole number >= 1. Anything else
 * (empty, non-numeric, trailing junk, zero, negative) prints an error
 * and exits 2, the usage-error status.
 */
inline unsigned
parseThreadCount(const char *value)
{
    char *end = nullptr;
    const long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || v < 1 || v > long(~0u)) {
        std::fprintf(stderr, "--threads wants a count >= 1, got '%s'\n",
                     value);
        std::exit(2);
    }
    return unsigned(v);
}

/**
 * Parse a `--threads N` / `--threads=N` flag for sweep drivers.
 *
 * Returns 0 ("auto": TLSIM_THREADS env, else hardware concurrency)
 * when the flag is absent. The thread count only affects wall-clock
 * time — every figure table is byte-identical at any value.
 */
inline unsigned
parseThreads(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0)
            return parseThreadCount(i + 1 < argc ? argv[i + 1] : "");
        if (std::strncmp(arg, "--threads=", 10) == 0)
            return parseThreadCount(arg + 10);
    }
    return 0;
}

/**
 * Parse a `--core MODEL` / `--core=MODEL` flag for the simulation
 * drivers: which processor timing model drives the cores
 * (docs/OOO_CORE.md). `inorder` — the default — is byte-identical to
 * the pre-flag drivers; `ooo` enables the bounded-window out-of-order
 * model with relaxed-order speculative loads. Exits with an error on
 * an unknown name.
 */
inline mem::CoreModelKind
parseCoreModel(int argc, char **argv)
{
    const char *value = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--core") == 0 && i + 1 < argc)
            value = argv[++i];
        else if (std::strncmp(arg, "--core=", 7) == 0)
            value = arg + 7;
    }
    mem::CoreModelKind kind = mem::CoreModelKind::InOrder;
    if (value != nullptr && !mem::parseCoreModelName(value, &kind)) {
        std::fprintf(stderr,
                     "--core wants 'inorder' or 'ooo', got '%s'\n",
                     value);
        std::exit(1);
    }
    return kind;
}

/**
 * Parse a `--faults SPEC` / `--faults=SPEC` flag for the simulation
 * drivers (grammar: see fault::FaultSpec). Returns an inert spec when
 * the flag is absent; exits with the parse error when it is malformed.
 * Faulted figure tables are for robustness experiments — they are
 * still deterministic per spec, but they are *not* the paper's
 * numbers, so drivers print the canonical spec to stderr as a banner.
 */
inline fault::FaultSpec
parseFaults(int argc, char **argv)
{
    const char *spec = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--faults") == 0 && i + 1 < argc)
            spec = argv[++i];
        else if (std::strncmp(arg, "--faults=", 9) == 0)
            spec = arg + 9;
    }
    fault::FaultSpec faults;
    if (spec != nullptr) {
        std::string err;
        if (!fault::FaultSpec::parse(spec, &faults, &err)) {
            std::fprintf(stderr, "--faults: %s\n", err.c_str());
            std::exit(1);
        }
        if (faults.anyEnabled())
            std::fprintf(stderr, "faults: %s\n",
                         faults.canonical().c_str());
    }
    return faults;
}

/**
 * RAII task-lifetime trace session for a figure driver
 * (docs/TRACING.md). Flags:
 *
 *   --trace=FILE / --trace FILE   write the binary trace to FILE
 *   --trace-json=FILE             also write Perfetto trace_event JSON
 *   --trace-mask=SPEC             categories to record (task, version,
 *                                 undo, noc, core, audit, all)
 *
 * Recording starts in the constructor when any sink was requested and
 * the sinks are written in the destructor, after the driver's sweeps
 * finished. All session chatter goes to stderr so the figure tables
 * on stdout stay byte-identical with and without tracing.
 */
class TraceSession
{
  public:
    TraceSession(int argc, char **argv, std::uint32_t default_mask,
                 std::size_t ring_capacity)
    {
        const char *mask_spec = nullptr;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc)
                binPath_ = argv[++i];
            else if (std::strncmp(arg, "--trace=", 8) == 0)
                binPath_ = arg + 8;
            else if (std::strncmp(arg, "--trace-json=", 13) == 0)
                jsonPath_ = arg + 13;
            else if (std::strncmp(arg, "--trace-mask=", 13) == 0)
                mask_spec = arg + 13;
        }
        if (binPath_.empty() && jsonPath_.empty())
            return;
        trace::Options opts;
        opts.mask = mask_spec != nullptr
                        ? trace::parseMask(mask_spec, default_mask)
                        : default_mask;
        opts.ringCapacity = ring_capacity;
        trace::start(opts);
        active_ = true;
    }

    ~TraceSession()
    {
        if (!active_)
            return;
        trace::stop();
        trace::TraceFile file = trace::drainFile();
        std::string err;
        if (!binPath_.empty()) {
            if (trace::writeBinary(binPath_, file, &err))
                std::fprintf(stderr,
                             "trace: %zu records (%llu dropped) -> "
                             "%s\n",
                             file.records.size(),
                             (unsigned long long)file.dropped,
                             binPath_.c_str());
            else
                std::fprintf(stderr, "trace: %s\n", err.c_str());
        }
        if (!jsonPath_.empty()) {
            if (trace::writeJson(jsonPath_, file, &err))
                std::fprintf(stderr, "trace: Perfetto JSON -> %s\n",
                             jsonPath_.c_str());
            else
                std::fprintf(stderr, "trace: %s\n", err.c_str());
        }
        trace::reset();
    }

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    bool active() const { return active_; }

  private:
    std::string binPath_;
    std::string jsonPath_;
    bool active_ = false;
};

/**
 * RAII result-cache session for a figure driver (DESIGN.md §10).
 * Flags / environment:
 *
 *   --cache-dir=DIR / --cache-dir DIR   content-addressed store at DIR
 *   --cache                             same, at the default
 *                                       .tlsim-cache (gitignored)
 *   TLSIM_CACHE=DIR                     same, via the environment
 *   --cache-verify=P                    recompute fraction P of hits
 *                                       and hard-fail on any byte
 *                                       difference vs the store
 *   --cache-stats=FILE                  append the session's hit/miss
 *                                       stats as one JSON line
 *
 * The constructor installs the store as the process-wide memo layer
 * consulted by runScheme / runSynthScheme / runSequential /
 * runSynthSequential; the destructor prints the session's stats to
 * stderr (stdout stays byte-identical with and without caching —
 * that's the acceptance criterion) and uninstalls it.
 */
class CacheSession
{
  public:
    CacheSession(int argc, char **argv)
    {
        const char *dir = std::getenv("TLSIM_CACHE");
        const char *verify = nullptr;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--cache") == 0)
                dir = ".tlsim-cache";
            else if (std::strcmp(arg, "--cache-dir") == 0 &&
                     i + 1 < argc)
                dir = argv[++i];
            else if (std::strncmp(arg, "--cache-dir=", 12) == 0)
                dir = arg + 12;
            else if (std::strncmp(arg, "--cache-verify=", 15) == 0)
                verify = arg + 15;
            else if (std::strncmp(arg, "--cache-stats=", 14) == 0)
                statsPath_ = arg + 14;
        }
        if (dir == nullptr || *dir == '\0')
            return;
        cache_ = std::make_unique<sim::ResultCache>(dir);
        if (verify != nullptr)
            cache_->setVerifyFraction(std::atof(verify));
        sim::setResultCache(cache_.get());
        std::fprintf(stderr, "cache: %s (code-version %s)%s\n", dir,
                     sim::codeVersion(),
                     verify != nullptr ? ", verifying hits" : "");
    }

    ~CacheSession()
    {
        if (cache_ == nullptr)
            return;
        sim::setResultCache(nullptr);
        const sim::CacheStats s = cache_->stats();
        const std::string json = sim::ResultCache::statsJson(s);
        std::fprintf(stderr, "cache: %s\n", json.c_str());
        if (!statsPath_.empty()) {
            std::FILE *f = std::fopen(statsPath_.c_str(), "a");
            if (f != nullptr) {
                std::fprintf(f, "%s\n", json.c_str());
                std::fclose(f);
            } else {
                std::fprintf(stderr, "cache: cannot write %s\n",
                             statsPath_.c_str());
            }
        }
    }

    CacheSession(const CacheSession &) = delete;
    CacheSession &operator=(const CacheSession &) = delete;

    bool active() const { return cache_ != nullptr; }

  private:
    std::unique_ptr<sim::ResultCache> cache_;
    std::string statsPath_;
};

} // namespace tlsim::bench

#endif // TLSIM_BENCH_BENCH_COMMON_HPP
