/**
 * @file
 * `tlsim_serve` — the persistent sweep service (src/sim/serve.hpp)
 * wired to stdin/stdout. One JSON request per input line, one JSON
 * response per output line; diagnostics go to stderr so a pipe client
 * never has to filter them.
 *
 *   build/tools/tlsim_serve --cache-dir=.tlsim-cache [--cache-verify=P]
 *                           [--threads=N]
 *
 * Without --cache-dir (or TLSIM_CACHE in the environment) the service
 * still works but recomputes every point — caching is the point, so a
 * banner warns. tools/sweep_client.py is the reference client.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

// The drivers' flag parsers; a relative path, because perfbench's own
// build of this file has only src/ on its include path.
#include "../bench/bench_common.hpp"
#include "sim/result_cache.hpp"
#include "sim/serve.hpp"

namespace {

bool
parseFlag(const char *arg, const char *name, std::string *value)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    *value = arg + n + 1;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tlsim;

    std::string cache_dir;
    if (const char *env = std::getenv("TLSIM_CACHE"))
        cache_dir = env;
    double verify_fraction = 0.0;
    sim::ServeOptions opts;

    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (parseFlag(argv[i], "--cache-dir", &value)) {
            cache_dir = value;
        } else if (parseFlag(argv[i], "--cache-verify", &value)) {
            verify_fraction = std::atof(value.c_str());
        } else if (parseFlag(argv[i], "--threads", &value)) {
            opts.threads = bench::parseThreadCount(value.c_str());
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::fprintf(stderr,
                         "usage: tlsim_serve [--cache-dir=DIR] "
                         "[--cache-verify=P] [--threads=N]\n"
                         "Reads JSON-line sweep requests from stdin "
                         "(see src/sim/serve.hpp), answers on stdout.\n");
            return 0;
        } else {
            std::fprintf(stderr, "tlsim_serve: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }

    std::unique_ptr<sim::ResultCache> cache;
    if (!cache_dir.empty()) {
        cache = std::make_unique<sim::ResultCache>(cache_dir);
        cache->setVerifyFraction(verify_fraction);
        sim::setResultCache(cache.get());
        std::fprintf(stderr,
                     "tlsim_serve: cache=%s code-version=%s%s\n",
                     cache->dir().c_str(), sim::codeVersion(),
                     verify_fraction > 0 ? " (verifying hits)" : "");
    } else {
        std::fprintf(stderr,
                     "tlsim_serve: no --cache-dir/TLSIM_CACHE — every "
                     "point will be recomputed\n");
    }

    const std::size_t n = sim::runServeLoop(std::cin, std::cout, opts);

    if (cache != nullptr) {
        std::fprintf(stderr, "tlsim_serve: %zu request(s), stats %s\n",
                     n, sim::ResultCache::statsJson(cache->stats())
                            .c_str());
        sim::setResultCache(nullptr);
    } else {
        std::fprintf(stderr, "tlsim_serve: %zu request(s), no cache\n",
                     n);
    }
    return 0;
}
