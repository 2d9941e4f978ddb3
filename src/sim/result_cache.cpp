#include "sim/result_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "code_version.hpp"

namespace tlsim::sim {

namespace fs = std::filesystem;

namespace {

/** Pure SplitMix64 finalizer (the rng.hpp one advances a state ref;
 *  here we want a stateless mix of a single word). */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

// --------------------------------------------------------------------
// PointKey / KeyHasher
// --------------------------------------------------------------------

std::string
PointKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  (unsigned long long)hi, (unsigned long long)lo);
    return buf;
}

KeyHasher::KeyHasher()
    // Distinct nonzero lane seeds (splitmix64 increments), so the two
    // lanes never shadow each other even on identical input streams.
    : hi_(0x9e3779b97f4a7c15ULL), lo_(0xbf58476d1ce4e5b9ULL)
{}

void
KeyHasher::u64(std::uint64_t v)
{
    // Two independent mix functions per word; each lane also folds the
    // other's previous state so the pair behaves like one wide state.
    hi_ = mix64(hi_ ^ v) + (lo_ << 1);
    lo_ = mix64(lo_ + (v * 0x94d049bb133111ebULL)) ^ (hi_ >> 7);
}

void
KeyHasher::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
KeyHasher::str(std::string_view s)
{
    // Length first, so "ab"+"c" and "a"+"bc" across adjacent fields
    // cannot alias; then bytes packed 8 at a time.
    u64(s.size());
    std::uint64_t word = 0;
    unsigned n = 0;
    for (unsigned char c : s) {
        word = (word << 8) | c;
        if (++n == 8) {
            u64(word);
            word = 0;
            n = 0;
        }
    }
    if (n != 0)
        u64(word);
}

const char *
codeVersion()
{
    return TLSIM_CODE_VERSION;
}

namespace {

/** Key-schema version: bump when fields are added to or removed from
 *  the derivations below (the code-version hash would catch it anyway,
 *  since such a change edits this file — this is belt and braces). */
constexpr std::uint64_t kKeySchemaVersion = 3;

void
foldPreamble(KeyHasher &h, bool sequential)
{
    h.u64(kKeySchemaVersion);
    h.str(TLSIM_CODE_VERSION);
    h.u64(sequential ? 1 : 0);
}

void
foldScheme(KeyHasher &h, const tls::SchemeConfig &s)
{
    h.u64(std::uint64_t(s.separation));
    h.u64(std::uint64_t(s.merging));
    h.u64(s.softwareLog ? 1 : 0);
    h.u64(std::uint64_t(s.validation));
}

/** Every MachineParams field is behavioral (homeOf reads kind and
 *  pageBytes; the engine reads the rest), so all of them fold. */
void
foldMachine(KeyHasher &h, const mem::MachineParams &m)
{
    h.u64(std::uint64_t(m.kind));
    h.str(m.name);
    h.u64(m.numProcs);
    h.u64(m.l1.sizeBytes);
    h.u64(m.l1.assoc);
    h.u64(m.l2.sizeBytes);
    h.u64(m.l2.assoc);
    h.u64(m.latL1);
    h.u64(m.latL2);
    h.u64(m.latLocalMem);
    h.u64(m.latRemote2Hop);
    h.u64(m.latRemote3Hop);
    h.u64(m.latOtherL2);
    h.u64(m.latL3);
    h.u64(m.occL2Port);
    h.u64(m.occDirBank);
    h.u64(m.occMemBank);
    h.u64(m.occL3Bank);
    h.u64(m.numBanks);
    h.u64(m.dirClusterNodes);
    h.u64(m.latDirCluster);
    h.u64(m.pageBytes);
    h.f64(m.ipc);
    h.u64(m.loadHide);
    h.u64(m.storeBufEntries);
    h.u64(m.maxPendingLoads);
    h.u64(std::uint64_t(m.coreModel));
    h.u64(m.oooWindow);
    h.u64(m.oooIssueWidth);
    h.u64(m.lsqEntries);
    h.u64(m.lsqForwardCycles);
    h.u64(m.commitFixedCycles);
    h.u64(m.commitIssueGap);
    h.u64(m.finalMergeGap);
    h.u64(m.dispatchCycles);
    h.u64(m.tokenPassCycles);
    h.u64(m.recoveryPerTask);
    h.u64(m.recoveryPerLogEntry);
    h.u64(m.swLogInstrPerEntry);
    h.u64(m.overflowCheckCycles);
    h.u64(m.wordGranularityDetection ? 1 : 0);
}

/**
 * A fault spec folds only when it can fire: an inert spec (all rates
 * zero, seed alone does not count — FaultSpec::anyEnabled) is
 * byte-identical to no spec at all by the fault subsystem's contract,
 * so both hash to the same key. When enabled, every field of the
 * canonical spec folds, including magnitudes of sites whose rate is
 * zero — that can only manufacture a false miss, never a false hit.
 */
void
foldFaults(KeyHasher &h, const fault::FaultSpec &f)
{
    if (!f.anyEnabled()) {
        h.u64(0);
        return;
    }
    h.u64(1);
    h.u64(f.seed);
    h.f64(f.nocDelayProb);
    h.u64(f.nocDelayCycles);
    h.f64(f.nocStallProb);
    h.u64(f.nocStallCycles);
    h.u64(f.nocRetryMax);
    h.f64(f.spillProb);
    h.u64(f.overflowCap);
    h.u64(f.overflowPressureCycles);
    h.f64(f.undoStressProb);
    h.u64(f.undoStressCycles);
    h.f64(f.squashProb);
    h.u64(f.squashMax);
    h.f64(f.commitSquashProb);
    h.u64(f.commitSquashMax);
}

/** Behavioral AppParams fields only: the paper* columns and the Table 3
 *  Level classes are reporting-only (no engine or generator reads
 *  them), so they stay out of the key by design. */
void
foldApp(KeyHasher &h, const apps::AppParams &a)
{
    h.str(a.name);
    h.u64(a.seed);
    h.u64(a.numTasks);
    h.u64(a.tasksPerInvocation);
    h.f64(a.instrPerTask);
    h.f64(a.sizeSigma);
    h.f64(a.tailFraction);
    h.f64(a.tailAlpha);
    h.f64(a.tailScale);
    h.f64(a.writtenKb);
    h.f64(a.privFraction);
    h.u64(a.writeEarly ? 1 : 0);
    h.f64(a.privStartFrac);
    h.f64(a.rereadFraction);
    h.f64(a.sharedReadKb);
    h.f64(a.sharedArrayKb);
    h.f64(a.depProb);
    h.u64(a.depDistance);
}

void
foldSynth(KeyHasher &h, const apps::SynthSpec &s)
{
    h.u64(std::uint64_t(s.kind));
    h.u64(s.tasks);
    h.u64(s.footprint);
    h.f64(s.conflict);
    h.u64(s.stride);
    h.u64(s.instr);
    h.u64(s.tasksPerInvocation);
    h.u64(s.seed);
}

} // namespace

PointKey
appPointKey(const apps::AppParams &app, const tls::SchemeConfig &scheme,
            const mem::MachineParams &machine,
            const fault::FaultSpec &faults, bool sequential)
{
    KeyHasher h;
    foldPreamble(h, sequential);
    h.str("app");
    foldApp(h, app);
    foldMachine(h, machine);
    if (!sequential) {
        // The sequential baseline ignores scheme and faults entirely
        // (EngineConfig::sequential) — keying them would only split
        // one simulation across several entries.
        foldScheme(h, scheme);
        foldFaults(h, faults);
    }
    return h.done();
}

PointKey
synthPointKey(const apps::SynthSpec &spec, const tls::SchemeConfig &scheme,
              const mem::MachineParams &machine,
              const fault::FaultSpec &faults, bool sequential)
{
    KeyHasher h;
    foldPreamble(h, sequential);
    h.str("synth");
    foldSynth(h, spec);
    foldMachine(h, machine);
    if (!sequential) {
        foldScheme(h, scheme);
        foldFaults(h, faults);
    }
    return h.done();
}

// --------------------------------------------------------------------
// RunResult serialization
// --------------------------------------------------------------------

namespace {

class Writer
{
  public:
    void
    u64(std::uint64_t v)
    {
        char buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = char((v >> (8 * i)) & 0xff);
        out_.append(buf, 8);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        out_.append(s);
    }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

class Reader
{
  public:
    explicit Reader(std::string_view in) : in_(in) {}

    bool
    u64(std::uint64_t *v)
    {
        if (in_.size() - pos_ < 8)
            return fail();
        std::uint64_t r = 0;
        for (int i = 0; i < 8; ++i)
            r |= std::uint64_t(std::uint8_t(in_[pos_ + i])) << (8 * i);
        pos_ += 8;
        *v = r;
        return true;
    }

    bool
    f64(double *v)
    {
        std::uint64_t bits;
        if (!u64(&bits))
            return false;
        std::memcpy(v, &bits, sizeof(*v));
        return true;
    }

    bool
    str(std::string *s)
    {
        std::uint64_t n;
        if (!u64(&n) || in_.size() - pos_ < n)
            return fail();
        s->assign(in_.substr(pos_, n));
        pos_ += n;
        return true;
    }

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && pos_ == in_.size(); }

  private:
    bool
    fail()
    {
        ok_ = false;
        return false;
    }

    std::string_view in_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

void
putBreakdown(Writer &w, const CycleBreakdown &b)
{
    for (std::size_t k = 0; k < kNumCycleKinds; ++k)
        w.u64(b.get(CycleKind(k)));
}

bool
getBreakdown(Reader &r, CycleBreakdown *b)
{
    for (std::size_t k = 0; k < kNumCycleKinds; ++k) {
        std::uint64_t v;
        if (!r.u64(&v))
            return false;
        b->add(CycleKind(k), v);
    }
    return true;
}

} // namespace

std::string
serializeRunResult(const tls::RunResult &r)
{
    Writer w;
    w.u64(r.execTime);
    w.u64(r.perProc.size());
    for (const CycleBreakdown &b : r.perProc)
        putBreakdown(w, b);
    putBreakdown(w, r.total);
    w.u64(r.counters.entries().size());
    for (const auto &[name, value] : r.counters.entries()) {
        w.str(name);
        w.u64(value);
    }
    w.u64(r.committedTasks);
    w.u64(r.squashEvents);
    w.u64(r.tasksSquashed);
    w.f64(r.avgSpecTasksSystem);
    w.f64(r.avgSpecTasksPerProc);
    w.f64(r.avgWrittenKb);
    w.f64(r.privFraction);
    w.f64(r.commitExecRatio);
    w.u64(r.timelines.size());
    for (const tls::TaskTimeline &t : r.timelines) {
        w.u64(t.id);
        w.u64(t.proc);
        w.u64(t.execStart);
        w.u64(t.execEnd);
        w.u64(t.commitStart);
        w.u64(t.commitEnd);
        w.u64(t.squashes);
    }
    w.u64(r.memStateHash);
    w.u64(r.memStateLines);
    w.u64(r.faults.nocDelays);
    w.u64(r.faults.nocStalls);
    w.u64(r.faults.nocRetries);
    w.u64(r.faults.forcedSpills);
    w.u64(r.faults.overflowPressure);
    w.u64(r.faults.undoStressEvents);
    w.u64(r.faults.undoStressCycles);
    w.u64(r.faults.spuriousSquashes);
    w.u64(r.faults.commitSquashes);
    return w.take();
}

bool
deserializeRunResult(std::string_view bytes, tls::RunResult *out)
{
    Reader r(bytes);
    tls::RunResult res;
    std::uint64_t n = 0;
    if (!r.u64(&res.execTime) || !r.u64(&n))
        return false;
    // Defensive bound: a corrupt length must not drive a giant resize.
    if (n > bytes.size())
        return false;
    res.perProc.resize(n);
    for (CycleBreakdown &b : res.perProc)
        if (!getBreakdown(r, &b))
            return false;
    if (!getBreakdown(r, &res.total))
        return false;
    if (!r.u64(&n) || n > bytes.size())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t value;
        if (!r.str(&name) || !r.u64(&value))
            return false;
        res.counters.inc(res.counters.intern(name), value);
    }
    if (!r.u64(&res.committedTasks) || !r.u64(&res.squashEvents) ||
        !r.u64(&res.tasksSquashed) || !r.f64(&res.avgSpecTasksSystem) ||
        !r.f64(&res.avgSpecTasksPerProc) || !r.f64(&res.avgWrittenKb) ||
        !r.f64(&res.privFraction) || !r.f64(&res.commitExecRatio))
        return false;
    if (!r.u64(&n) || n > bytes.size())
        return false;
    res.timelines.resize(n);
    for (tls::TaskTimeline &t : res.timelines) {
        std::uint64_t proc, squashes;
        if (!r.u64(&t.id) || !r.u64(&proc) || !r.u64(&t.execStart) ||
            !r.u64(&t.execEnd) || !r.u64(&t.commitStart) ||
            !r.u64(&t.commitEnd) || !r.u64(&squashes))
            return false;
        t.proc = ProcId(proc);
        t.squashes = std::uint32_t(squashes);
    }
    if (!r.u64(&res.memStateHash) || !r.u64(&res.memStateLines))
        return false;
    if (!r.u64(&res.faults.nocDelays) || !r.u64(&res.faults.nocStalls) ||
        !r.u64(&res.faults.nocRetries) ||
        !r.u64(&res.faults.forcedSpills) ||
        !r.u64(&res.faults.overflowPressure) ||
        !r.u64(&res.faults.undoStressEvents) ||
        !r.u64(&res.faults.undoStressCycles) ||
        !r.u64(&res.faults.spuriousSquashes) ||
        !r.u64(&res.faults.commitSquashes))
        return false;
    if (!r.atEnd())
        return false;
    *out = std::move(res);
    return true;
}

// --------------------------------------------------------------------
// On-disk store
// --------------------------------------------------------------------

namespace {

/** Entry header, little-endian on disk. */
constexpr char kMagic[4] = {'T', 'L', 'R', 'C'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

void
putLe(char *p, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        p[i] = char((v >> (8 * i)) & 0xff);
}

std::uint64_t
getLe(const char *p, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t(std::uint8_t(p[i])) << (8 * i);
    return v;
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        std::fprintf(stderr, "result-cache: cannot create %s: %s\n",
                     dir_.c_str(), ec.message().c_str());
        std::abort();
    }
}

std::string
ResultCache::pathOf(const PointKey &key) const
{
    std::string hex = key.hex();
    // 256-way shard on the top key byte keeps directories small even
    // at millions of entries.
    return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".tlr";
}

bool
ResultCache::readEntry(const PointKey &key, std::string *payload,
                       bool count)
{
    std::ifstream in(pathOf(key), std::ios::binary);
    if (!in.is_open())
        return false; // plain miss: never cached
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();

    const auto reject = [&] {
        if (count)
            corrupt_.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    if (raw.size() < kHeaderBytes)
        return reject(); // truncated header
    const char *p = raw.data();
    if (std::memcmp(p, kMagic, 4) != 0)
        return reject();
    if (getLe(p + 4, 4) != kFormatVersion)
        return reject(); // stale format: recompute, never reinterpret
    if (getLe(p + 8, 8) != key.hi || getLe(p + 16, 8) != key.lo)
        return reject(); // sharding bug or tampering
    std::uint64_t size = getLe(p + 24, 8);
    std::uint64_t checksum = getLe(p + 32, 8);
    if (raw.size() != kHeaderBytes + size)
        return reject(); // truncated or padded payload
    std::string_view body(raw.data() + kHeaderBytes, size);
    if (fnv1a64(body) != checksum)
        return reject(); // bit flip
    payload->assign(body);
    return true;
}

bool
ResultCache::fetch(const PointKey &key, tls::RunResult *out,
                   std::string *payload)
{
    std::string body;
    if (!readEntry(key, &body, /*count=*/true) ||
        !deserializeRunResult(body, out)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (payload != nullptr)
        *payload = std::move(body);
    return true;
}

bool
ResultCache::contains(const PointKey &key)
{
    std::string body;
    tls::RunResult scratch;
    return readEntry(key, &body, /*count=*/false) &&
           deserializeRunResult(body, &scratch);
}

void
ResultCache::store(const PointKey &key, const tls::RunResult &r)
{
    std::string body = serializeRunResult(r);
    std::string entry(kHeaderBytes, '\0');
    std::memcpy(entry.data(), kMagic, 4);
    putLe(entry.data() + 4, kFormatVersion, 4);
    putLe(entry.data() + 8, key.hi, 8);
    putLe(entry.data() + 16, key.lo, 8);
    putLe(entry.data() + 24, body.size(), 8);
    putLe(entry.data() + 32, fnv1a64(body), 8);
    entry += body;

    const std::string path = pathOf(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    // Unique temp name per writer, then atomic rename: a reader never
    // observes a half-written entry, and two writers racing on one key
    // both rename identical bytes (last one wins harmlessly).
    const std::string tmp =
        path + ".tmp." +
        std::to_string(seq_.fetch_add(1, std::memory_order_relaxed) ^
                       std::uint64_t(
                           std::hash<std::thread::id>{}(
                               std::this_thread::get_id())));
    {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf.is_open()) {
            std::fprintf(stderr,
                         "result-cache: cannot write %s (caching "
                         "skipped for this point)\n",
                         tmp.c_str());
            return;
        }
        outf.write(entry.data(), std::streamsize(entry.size()));
        if (!outf.good()) {
            outf.close();
            fs::remove(tmp, ec);
            std::fprintf(stderr,
                         "result-cache: short write on %s (caching "
                         "skipped for this point)\n",
                         tmp.c_str());
            return;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        std::fprintf(stderr, "result-cache: rename to %s failed\n",
                     path.c_str());
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

bool
ResultCache::shouldVerify(const PointKey &key) const
{
    if (verifyFraction_ <= 0.0)
        return false;
    if (verifyFraction_ >= 1.0)
        return true;
    // Pure function of the key: the same point is (or is not) verified
    // regardless of sweep order or thread count.
    std::uint64_t draw = mix64(key.hi ^ mix64(key.lo));
    return double(draw >> 11) * 0x1.0p-53 < verifyFraction_;
}

void
ResultCache::verifyAgainst(const PointKey &key,
                           const std::string &payload,
                           const tls::RunResult &fresh,
                           const char *label)
{
    verified_.fetch_add(1, std::memory_order_relaxed);
    std::string recomputed = serializeRunResult(fresh);
    if (recomputed == payload)
        return;
    std::size_t at = 0;
    while (at < recomputed.size() && at < payload.size() &&
           recomputed[at] == payload[at])
        ++at;
    std::fprintf(stderr,
                 "result-cache: VERIFY FAILED for %s (key %s): cached "
                 "entry %zu vs recomputed %zu bytes, first diff at "
                 "offset %zu — cached results no longer reproduce; "
                 "delete %s and investigate nondeterminism or a stale "
                 "code-version stamp\n",
                 label, key.hex().c_str(), payload.size(),
                 recomputed.size(), at, dir_.c_str());
    std::abort();
}

CacheStats
ResultCache::stats() const
{
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    s.verified = verified_.load(std::memory_order_relaxed);
    return s;
}

std::string
ResultCache::statsJson(const CacheStats &s)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"hits\": %llu, \"misses\": %llu, \"stores\": %llu, "
                  "\"corrupt\": %llu, \"verified\": %llu}",
                  (unsigned long long)s.hits,
                  (unsigned long long)s.misses,
                  (unsigned long long)s.stores,
                  (unsigned long long)s.corrupt,
                  (unsigned long long)s.verified);
    return buf;
}

// --------------------------------------------------------------------
// Process-wide installation
// --------------------------------------------------------------------

namespace {
ResultCache *g_cache = nullptr;
}

void
setResultCache(ResultCache *cache)
{
    g_cache = cache;
}

ResultCache *
resultCache()
{
    return g_cache;
}

} // namespace tlsim::sim
