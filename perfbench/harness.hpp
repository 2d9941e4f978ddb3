/**
 * @file
 * Measurement plumbing of the tlsim benchmark driver: host clocks,
 * in-memory spans with per-layer self time, the per-call host-time
 * budget, the committed reference, and a pipe-connected child process
 * for the tlsim_serve client. Nothing here knows about workloads.
 */

#ifndef TLSIM_PERFBENCH_HARNESS_HPP
#define TLSIM_PERFBENCH_HARNESS_HPP

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

extern char **environ;

namespace perfbench {

inline double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/** Value at quantile @p q (0..1) of @p v by linear interpolation. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/**
 * Spans recorded around calls into each layer, kept in memory and
 * written out once at the end. Every span is opened and closed on the
 * driver's main thread (calls that run elsewhere are waited on from
 * there), so a simple stack gives each span its parent and child spans
 * never overlap each other.
 */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        std::string layer;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    /** RAII scope: the span ends when the scope does. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string layer, std::string name)
            : log_(log)
        {
            if (log_ != nullptr)
                index_ = log_->open(std::move(layer), std::move(name));
        }
        ~Scope()
        {
            if (log_ != nullptr)
                log_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        int index_ = -1;
    };

    /** Self time per layer: span durations minus their children's. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[std::size_t(s.parent)] += s.end - s.start;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].layer] +=
                spans_[i].end - spans_[i].start - child[i];
        return out;
    }

    /** Chrome/Perfetto trace-event JSON (one track, microseconds). */
    bool
    writeJson(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                          "\"ts\": %.3f, \"dur\": %.3f",
                          s.start * 1e6, (s.end - s.start) * 1e6);
            out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
                << "\", \"cat\": \"" << s.layer << "\", " << buf
                << ", \"args\": {\"id\": " << i
                << ", \"parent\": " << s.parent << "}}";
        }
        out << "\n]}\n";
        return bool(out);
    }

    std::size_t size() const { return spans_.size(); }

  private:
    int
    open(std::string layer, std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.layer = std::move(layer);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start = nowSeconds();
        spans_.push_back(std::move(s));
        stack_.push_back(int(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int index)
    {
        spans_[std::size_t(index)].end = nowSeconds();
        stack_.pop_back();
    }

    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// Host-time budget
// ---------------------------------------------------------------------

/**
 * Runs a call under a host-time budget. The call runs on its own
 * thread; the caller waits at most the budget. A call that overruns is
 * not waited on: its thread is parked here and never joined, and the
 * driver must end the process with std::_Exit once it has reported
 * (overran() tells it to), since the engine has no cancellation point.
 * The callable must therefore own everything it reads or writes (by
 * value or shared_ptr): a parked call outlives its caller's frame.
 */
class Budget
{
  public:
    Budget() = default;
    Budget(const Budget &) = delete;
    Budget &operator=(const Budget &) = delete;
    /** Only reached with no parked thread: a driver whose call
     *  overran leaves through std::_Exit (see the class comment). A
     *  parked thread is detached rather than let its std::thread
     *  destructor terminate the process. */
    ~Budget()
    {
        for (std::thread &t : parked_)
            t.detach();
    }

    /** Returns false if @p fn did not finish within @p seconds. An
     *  exception thrown by @p fn is rethrown here. */
    template <typename Fn>
    bool
    run(double seconds, Fn &&fn)
    {
        std::packaged_task<void()> task(std::forward<Fn>(fn));
        std::future<void> done = task.get_future();
        std::thread worker(std::move(task));
        if (done.wait_for(std::chrono::duration<double>(seconds)) !=
            std::future_status::ready) {
            parked_.push_back(std::move(worker));
            return false;
        }
        worker.join();
        done.get();
        return true;
    }

    bool overran() const { return !parked_.empty(); }

  private:
    std::vector<std::thread> parked_;
};

// ---------------------------------------------------------------------
// Reference results
// ---------------------------------------------------------------------

/** What the reference pins down for one simulation point. */
struct PointOutcome {
    std::uint64_t execTime = 0;
    std::uint64_t memStateHash = 0;
    std::uint64_t committedTasks = 0;
    std::uint64_t tasksSquashed = 0;
    std::uint64_t squashEvents = 0;
    std::uint64_t accesses = 0; ///< simulated loads + stores

    bool operator==(const PointOutcome &) const = default;
};

/**
 * The committed reference of one workload: one line per (input set,
 * point label). Text, so a diff of a regenerated reference is
 * readable:
 *
 *   <set> <label> <exec> <memhash hex> <committed> <squashed> <events>
 *   <accesses>
 */
class Reference
{
  public:
    bool
    load(const std::string &path, unsigned set)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            unsigned s = 0;
            std::string label, hash;
            PointOutcome o;
            if (!(fields >> s >> label >> o.execTime >> hash >>
                  o.committedTasks >> o.tasksSquashed >> o.squashEvents >>
                  o.accesses))
                return false;
            o.memStateHash = std::stoull(hash, nullptr, 16);
            if (s == set)
                points_[label] = o;
        }
        return true;
    }

    const PointOutcome *
    find(const std::string &label) const
    {
        auto it = points_.find(label);
        return it == points_.end() ? nullptr : &it->second;
    }

    static std::string
    line(unsigned set, const std::string &label, const PointOutcome &o)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%u %s %llu %016llx %llu %llu "
                      "%llu %llu\n", set, label.c_str(),
                      (unsigned long long)o.execTime,
                      (unsigned long long)o.memStateHash,
                      (unsigned long long)o.committedTasks,
                      (unsigned long long)o.tasksSquashed,
                      (unsigned long long)o.squashEvents,
                      (unsigned long long)o.accesses);
        return buf;
    }

  private:
    std::map<std::string, PointOutcome> points_;
};

// ---------------------------------------------------------------------
// Child process over pipes
// ---------------------------------------------------------------------

/**
 * A child process whose stdin and stdout are pipes to this process, for
 * line-oriented request/response (tlsim_serve). stderr is inherited.
 * The destructor kills and reaps a child that is still running.
 */
class Child
{
  public:
    Child() = default;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;
    ~Child() { kill(); }

    bool
    start(const std::vector<std::string> &argv)
    {
        int in[2], out[2];
        if (pipe(in) != 0)
            return false;
        if (pipe(out) != 0) {
            ::close(in[0]);
            ::close(in[1]);
            return false;
        }
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out[1], 1);
        posix_spawn_file_actions_addclose(&fa, in[1]);
        posix_spawn_file_actions_addclose(&fa, out[0]);
        std::vector<char *> args;
        for (const std::string &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        const int rc = posix_spawn(&pid_, args[0], &fa, nullptr,
                                   args.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(in[0]);
        ::close(out[1]);
        toChild_ = in[1];
        fromChild_ = out[0];
        if (rc != 0) {
            pid_ = -1;
            closePipes();
            return false;
        }
        return true;
    }

    bool
    writeLine(const std::string &line)
    {
        std::string buf = line + "\n";
        std::size_t off = 0;
        while (off < buf.size()) {
            ssize_t n = ::write(toChild_, buf.data() + off,
                                buf.size() - off);
            if (n <= 0)
                return false;
            off += std::size_t(n);
        }
        return true;
    }

    /** Next line from the child's stdout within @p seconds; false on
     *  timeout or end of stream. */
    bool
    readLine(double seconds, std::string *line)
    {
        const double deadline = nowSeconds() + seconds;
        for (;;) {
            std::size_t nl = pending_.find('\n');
            if (nl != std::string::npos) {
                line->assign(pending_, 0, nl);
                pending_.erase(0, nl + 1);
                return true;
            }
            const double left = deadline - nowSeconds();
            if (left <= 0)
                return false;
            pollfd p{fromChild_, POLLIN, 0};
            if (poll(&p, 1, int(left * 1000) + 1) <= 0)
                continue;
            char buf[65536];
            ssize_t n = ::read(fromChild_, buf, sizeof(buf));
            if (n <= 0)
                return false;
            pending_.append(buf, std::size_t(n));
        }
    }

    /** Close the child's stdin and reap it; returns its peak RSS in
     *  KB, or -1 if it did not exit cleanly within @p seconds. */
    long
    finish(double seconds)
    {
        closePipes();
        const double deadline = nowSeconds() + seconds;
        while (pid_ > 0) {
            int status = 0;
            rusage ru{};
            pid_t r = wait4(pid_, &status, WNOHANG, &ru);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0
                           ? ru.ru_maxrss
                           : -1;
            }
            if (nowSeconds() > deadline)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        kill();
        return -1;
    }

    void
    kill()
    {
        closePipes();
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
    }

  private:
    void
    closePipes()
    {
        if (toChild_ >= 0)
            ::close(toChild_);
        if (fromChild_ >= 0)
            ::close(fromChild_);
        toChild_ = fromChild_ = -1;
    }

    pid_t pid_ = -1;
    int toChild_ = -1;
    int fromChild_ = -1;
    std::string pending_;
};

/** CPU time (user + system) this process has used so far, in s. */
inline double
selfCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

/** Peak resident set of this process so far, in MB. */
inline double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench

#endif // TLSIM_PERFBENCH_HARNESS_HPP
