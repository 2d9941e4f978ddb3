#include "sim/serve.hpp"

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_suite.hpp"
#include "common/fault.hpp"
#include "common/task_pool.hpp"
#include "mem/machine_params.hpp"
#include "sim/result_cache.hpp"
#include "sim/study.hpp"
#include "tls/scheme.hpp"

namespace tlsim::sim {

namespace {

// --------------------------------------------------------------------
// Minimal JSON (the protocol needs objects, arrays, strings, numbers
// and bools; no external dependency is worth that little)
// --------------------------------------------------------------------

struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(std::string_view key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    bool
    parse(JsonValue *out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    value(JsonValue *out)
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{':
            return objectValue(out);
        case '[':
            return arrayValue(out);
        case '"':
            out->kind = JsonValue::Kind::String;
            return stringValue(&out->string);
        case 't':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return literal("true");
        case 'f':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return literal("false");
        case 'n':
            out->kind = JsonValue::Kind::Null;
            return literal("null");
        default:
            return numberValue(out);
        }
    }

    bool
    objectValue(JsonValue *out)
    {
        out->kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !stringValue(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            skipWs();
            JsonValue v;
            if (!value(&v))
                return false;
            out->object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    arrayValue(JsonValue *out)
    {
        out->kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue v;
            if (!value(&v))
                return false;
            out->array.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    stringValue(std::string *out)
    {
        ++pos_; // opening quote
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            char e = text_[pos_++];
            switch (e) {
            case '"': out->push_back('"'); break;
            case '\\': out->push_back('\\'); break;
            case '/': out->push_back('/'); break;
            case 'b': out->push_back('\b'); break;
            case 'f': out->push_back('\f'); break;
            case 'n': out->push_back('\n'); break;
            case 'r': out->push_back('\r'); break;
            case 't': out->push_back('\t'); break;
            case 'u': {
                // Config strings are ASCII; decode BMP escapes to the
                // low byte and reject nothing (lossy but total).
                if (text_.size() - pos_ < 4)
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return false;
                }
                out->push_back(char(code & 0xff));
                break;
            }
            default:
                return false;
            }
        }
        return false; // unterminated
    }

    bool
    numberValue(JsonValue *out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        try {
            out->number = std::stod(std::string(
                text_.substr(start, pos_ - start)));
        } catch (...) {
            return false;
        }
        out->kind = JsonValue::Kind::Number;
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

// --------------------------------------------------------------------
// Request model
// --------------------------------------------------------------------

/** One (workload, scheme, rep) simulation of a request. */
struct PointJob {
    std::string workload;
    std::string schemeName;
    unsigned rep = 0;
    bool isSynth = false;
    bool isBaseline = false;
    apps::AppParams app;
    apps::SynthSpec synth;
    tls::SchemeConfig scheme;
    PointKey key;
    bool cached = false; ///< valid entry existed before this request
    tls::RunResult result;
};

struct SweepRequest {
    std::string id;
    mem::MachineParams machine;
    std::vector<apps::AppParams> apps;
    std::vector<apps::SynthSpec> synths;
    std::vector<tls::SchemeConfig> schemes;
    unsigned reps = 1;
    fault::FaultSpec faults;
    bool baseline = false;
};

bool
parseRequest(const JsonValue &v, SweepRequest *out, std::string *err)
{
    if (v.kind != JsonValue::Kind::Object) {
        *err = "request must be a JSON object";
        return false;
    }
    if (const JsonValue *id = v.find("id")) {
        if (id->kind == JsonValue::Kind::String)
            out->id = id->string;
        else if (id->kind == JsonValue::Kind::Number)
            out->id = std::to_string(std::int64_t(id->number));
    }
    const JsonValue *machine = v.find("machine");
    if (machine == nullptr || machine->kind != JsonValue::Kind::String) {
        *err = "missing \"machine\"";
        return false;
    }
    if (!mem::MachineParams::byName(machine->string, &out->machine)) {
        *err = "unknown machine \"" + machine->string + "\"";
        return false;
    }

    if (const JsonValue *apps_v = v.find("apps")) {
        if (apps_v->kind != JsonValue::Kind::Array) {
            *err = "\"apps\" must be an array of suite app names";
            return false;
        }
        const std::vector<apps::AppParams> suite = apps::appSuite();
        for (const JsonValue &name : apps_v->array) {
            bool found = false;
            for (const apps::AppParams &a : suite) {
                if (name.kind == JsonValue::Kind::String &&
                    a.name == name.string) {
                    out->apps.push_back(a);
                    found = true;
                    break;
                }
            }
            if (!found) {
                *err = "unknown app \"" + name.string + "\"";
                return false;
            }
        }
    }
    if (const JsonValue *synth_v = v.find("synth")) {
        if (synth_v->kind != JsonValue::Kind::Array) {
            *err = "\"synth\" must be an array of spec strings";
            return false;
        }
        for (const JsonValue &spec_str : synth_v->array) {
            apps::SynthSpec spec;
            std::string perr;
            if (spec_str.kind != JsonValue::Kind::String ||
                !apps::SynthSpec::parse(spec_str.string, &spec, &perr)) {
                *err = "bad synth spec: " + perr;
                return false;
            }
            out->synths.push_back(spec);
        }
    }
    if (out->apps.empty() && out->synths.empty()) {
        *err = "request names no workloads (\"apps\" or \"synth\")";
        return false;
    }

    const std::vector<tls::SchemeConfig> all =
        tls::SchemeConfig::evaluatedSchemes();
    if (const JsonValue *schemes_v = v.find("schemes")) {
        if (schemes_v->kind != JsonValue::Kind::Array) {
            *err = "\"schemes\" must be an array (indices or names)";
            return false;
        }
        for (const JsonValue &s : schemes_v->array) {
            if (s.kind == JsonValue::Kind::Number) {
                std::size_t idx = std::size_t(s.number);
                if (idx >= all.size()) {
                    *err = "scheme index out of range";
                    return false;
                }
                out->schemes.push_back(all[idx]);
            } else if (s.kind == JsonValue::Kind::String) {
                bool found = false;
                for (const tls::SchemeConfig &cand : all) {
                    if (cand.name() == s.string) {
                        out->schemes.push_back(cand);
                        found = true;
                        break;
                    }
                }
                if (!found) {
                    *err = "unknown scheme \"" + s.string + "\"";
                    return false;
                }
            } else {
                *err = "\"schemes\" entries must be numbers or strings";
                return false;
            }
        }
    } else {
        out->schemes = all;
    }

    if (const JsonValue *reps = v.find("reps")) {
        if (reps->kind != JsonValue::Kind::Number || reps->number < 1) {
            *err = "\"reps\" must be a positive number";
            return false;
        }
        out->reps = unsigned(reps->number);
    }
    if (const JsonValue *faults = v.find("faults")) {
        std::string perr;
        if (faults->kind != JsonValue::Kind::String ||
            !fault::FaultSpec::parse(faults->string, &out->faults,
                                     &perr)) {
            *err = "bad fault spec: " + perr;
            return false;
        }
    }
    if (const JsonValue *baseline = v.find("baseline"))
        out->baseline = baseline->kind == JsonValue::Kind::Bool &&
                        baseline->boolean;
    return true;
}

/**
 * Expand a request into its point jobs, in deterministic order:
 * baselines first, then workloads × schemes × reps, apps before
 * synths. Seed derivation mirrors the batch sweeps exactly so serve
 * and bench drivers share cache entries: app reps use derivePointSeed
 * (as runStudySweep does for every rep); synth rep 0 keeps the spec's
 * own seed (as runSynthSweep, which has no replication) and only extra
 * reps derive fresh seeds.
 */
std::vector<PointJob>
expandJobs(const SweepRequest &req)
{
    std::vector<PointJob> jobs;
    if (req.baseline) {
        for (const apps::AppParams &app : req.apps) {
            PointJob j;
            j.workload = app.name;
            j.isBaseline = true;
            j.app = app;
            j.key = appPointKey(app, {}, req.machine, {}, true);
            jobs.push_back(std::move(j));
        }
        for (const apps::SynthSpec &spec : req.synths) {
            PointJob j;
            j.workload = spec.name();
            j.isBaseline = true;
            j.isSynth = true;
            j.synth = spec;
            j.key = synthPointKey(spec, {}, req.machine, {}, true);
            jobs.push_back(std::move(j));
        }
    }
    for (const apps::AppParams &app : req.apps) {
        for (const tls::SchemeConfig &scheme : req.schemes) {
            for (unsigned rep = 0; rep < req.reps; ++rep) {
                PointJob j;
                j.workload = app.name;
                j.schemeName = scheme.name();
                j.rep = rep;
                j.app = app;
                j.app.seed =
                    derivePointSeed(app.seed, app.name, scheme, rep);
                j.scheme = scheme;
                j.key = appPointKey(j.app, scheme, req.machine,
                                    req.faults, false);
                jobs.push_back(std::move(j));
            }
        }
    }
    for (const apps::SynthSpec &spec : req.synths) {
        for (const tls::SchemeConfig &scheme : req.schemes) {
            for (unsigned rep = 0; rep < req.reps; ++rep) {
                PointJob j;
                j.workload = spec.name();
                j.schemeName = scheme.name();
                j.rep = rep;
                j.isSynth = true;
                j.synth = spec;
                if (rep > 0)
                    j.synth.seed = derivePointSeed(
                        spec.seed, spec.name(), scheme, rep);
                j.scheme = scheme;
                j.key = synthPointKey(j.synth, scheme, req.machine,
                                      req.faults, false);
                jobs.push_back(std::move(j));
            }
        }
    }
    return jobs;
}

std::string
pointJson(const PointJob &j)
{
    std::string out = "{\"workload\": \"" + jsonEscape(j.workload) + "\"";
    if (!j.isBaseline) {
        out += ", \"scheme\": \"" + jsonEscape(j.schemeName) + "\"";
        out += ", \"rep\": " + std::to_string(j.rep);
    }
    out += ", \"exec\": " + std::to_string(j.result.execTime);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  (unsigned long long)j.result.memStateHash);
    out += ", \"memhash\": \"";
    out += hex;
    out += "\", \"memlines\": " + std::to_string(j.result.memStateLines);
    out += ", \"committed\": " + std::to_string(j.result.committedTasks);
    out += ", \"squashes\": " + std::to_string(j.result.squashEvents);
    out += std::string(", \"cached\": ") + (j.cached ? "true" : "false");
    out += "}";
    return out;
}

std::string
handleRequest(const SweepRequest &req, const ServeOptions &opts)
{
    const auto t0 = std::chrono::steady_clock::now();
    ResultCache *cache = resultCache();
    const CacheStats before = cache ? cache->stats() : CacheStats{};

    std::vector<PointJob> jobs = expandJobs(req);
    // The hit/miss split per point is informational; read it before
    // dispatch so a point computed by this very request still reports
    // cached=false.
    if (cache != nullptr)
        for (PointJob &j : jobs)
            j.cached = cache->contains(j.key);

    TaskPool pool(opts.threads);
    for (PointJob &j : jobs) {
        pool.submit([&j, &req] {
            if (j.isBaseline)
                j.result = j.isSynth
                               ? runSynthSequential(j.synth, req.machine)
                               : runSequential(j.app, req.machine);
            else if (j.isSynth)
                j.result = runSynthScheme(j.synth, j.scheme, req.machine,
                                          req.faults);
            else
                j.result =
                    runScheme(j.app, j.scheme, req.machine, req.faults);
        });
    }
    pool.wait();

    const CacheStats after = cache ? cache->stats() : CacheStats{};
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);

    std::string out = "{\"id\": \"" + jsonEscape(req.id) +
                      "\", \"ok\": true, \"points\": [";
    bool first = true;
    for (const PointJob &j : jobs) {
        if (j.isBaseline)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += pointJson(j);
    }
    out += "], \"baselines\": [";
    first = true;
    for (const PointJob &j : jobs) {
        if (!j.isBaseline)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += pointJson(j);
    }
    CacheStats delta;
    delta.hits = after.hits - before.hits;
    delta.misses = after.misses - before.misses;
    delta.stores = after.stores - before.stores;
    delta.corrupt = after.corrupt - before.corrupt;
    delta.verified = after.verified - before.verified;
    out += "], \"stats\": " + ResultCache::statsJson(delta);
    out += ", \"elapsed_ms\": " + std::to_string(elapsed.count());
    out += "}";
    return out;
}

} // namespace

std::size_t
runServeLoop(std::istream &in, std::ostream &out,
             const ServeOptions &opts)
{
    std::size_t answered = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        JsonValue v;
        SweepRequest req;
        std::string err;
        if (!JsonParser(line).parse(&v)) {
            out << "{\"ok\": false, \"error\": \"malformed JSON\"}"
                << std::endl;
            ++answered;
            continue;
        }
        if (!parseRequest(v, &req, &err)) {
            out << "{\"id\": \"" << jsonEscape(req.id)
                << "\", \"ok\": false, \"error\": \"" << jsonEscape(err)
                << "\"}" << std::endl;
            ++answered;
            continue;
        }
        out << handleRequest(req, opts) << std::endl;
        ++answered;
    }
    return answered;
}

} // namespace tlsim::sim
