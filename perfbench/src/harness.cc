#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

void
Result::operation(const std::vector<std::string> &problems)
{
    ++attempted;
    if (problems.empty())
        return;
    ++failed;
    for (const std::string &problem : problems)
        if (failures.size() < 32)
            failures.push_back(problem);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
spanNameText(SpanName name)
{
    switch (name) {
    case SpanName::BenchOp: return "bench.op";
    case SpanName::BenchChunk: return "bench.chunk";
    case SpanName::ServePartition: return "serve.partition";
    case SpanName::ServeJob: return "serve.job";
    case SpanName::ServeCkptSave: return "serve.ckpt_save";
    case SpanName::ServeCkptLoad: return "serve.ckpt_load";
    case SpanName::SimStart: return "sim.start";
    case SpanName::SimRun: return "sim.run";
    case SpanName::SimJob: return "sim.job";
    case SpanName::SimStop: return "sim.stop";
    case SpanName::ArqRecord: return "arq.record";
    case SpanName::ArqReplayL1: return "arq.replay_l1";
    case SpanName::ArqReplayL2: return "arq.replay_l2";
    case SpanName::ArqReduce: return "arq.reduce";
    case SpanName::AppsCircuit: return "apps.circuit";
    case SpanName::NetworkLower: return "network.lower";
    case SpanName::NetworkRun: return "network.run";
    }
    return "?";
}

//
// Tracer.
//

Tracer::Tracer(int workers)
    : epoch_(Clock::now()), buffers_(std::max(workers, 1)),
      open_(std::max(workers, 1))
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::int64_t
Tracer::open(int worker, SpanName name, std::uint32_t group,
             std::int64_t parent)
{
    std::vector<Span> &buffer = buffers_[worker];
    std::vector<std::size_t> &stack = open_[worker];
    Span span;
    span.id = (static_cast<std::int64_t>(worker) << 40)
        | static_cast<std::int64_t>(buffer.size());
    if (parent == -2)
        parent = stack.empty() ? -1 : buffer[stack.back()].id;
    span.parent = parent;
    span.name = name;
    span.worker = worker;
    span.group = group;
    span.t0 = now();
    stack.push_back(buffer.size());
    buffer.push_back(span);
    return span.id;
}

void
Tracer::close(int worker, std::int64_t id)
{
    const double t = now();
    std::vector<std::size_t> &stack = open_[worker];
    Span &span = buffers_[worker][stack.back()];
    // Scopes nest strictly per thread; a mismatch is a harness bug.
    if (span.id != id)
        std::fprintf(stderr, "perfbench: span nesting violated\n");
    span.t1 = t;
    stack.pop_back();
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::vector<Span> all;
    for (const auto &buffer : buffers_)
        all.insert(all.end(), buffer.begin(), buffer.end());
    return all;
}

bool
Tracer::dump(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    std::fprintf(file, "id,parent,name,worker,group,t0,t1\n");
    for (const auto &buffer : buffers_)
        for (const Span &span : buffer)
            std::fprintf(file, "%lld,%lld,%s,%d,%u,%.9f,%.9f\n",
                         static_cast<long long>(span.id),
                         static_cast<long long>(span.parent),
                         spanNameText(span.name), span.worker, span.group,
                         span.t0, span.t1);
    return std::fclose(file) == 0;
}

SpanAccounting
accountSpans(const std::vector<Tracer::Span> &spans, int workers)
{
    SpanAccounting acc;
    std::unordered_map<std::int64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    // Same-worker child time per span (children nest strictly within
    // their parent on one thread); job time per (sim.run, worker).
    std::vector<double> child(spans.size(), 0.0);
    std::map<std::pair<std::size_t, int>, double> job_time;
    std::map<std::pair<std::size_t, int>, double> last_end;
    std::map<std::size_t, double> longest_job;
    for (const Tracer::Span &span : spans) {
        auto parent = index.find(span.parent);
        if (parent == index.end())
            continue;
        const Tracer::Span &p = spans[parent->second];
        if (p.worker == span.worker)
            child[parent->second] += span.duration();
        if (span.name == SpanName::SimJob && p.name == SpanName::SimRun) {
            const auto key = std::make_pair(parent->second, span.worker);
            job_time[key] += span.duration();
            last_end[key] = std::max(last_end[key], span.t1);
            longest_job[parent->second]
                = std::max(longest_job[parent->second], span.duration());
            acc.jobTime += span.duration();
            ++acc.jobs;
        }
    }

    // Scheduler idle per sim.run: every worker's share of the run not
    // spent inside one of its jobs.
    std::map<std::uint32_t, double> idle_by_group;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &run = spans[i];
        if (run.name != SpanName::SimRun)
            continue;
        ++acc.runs;
        double earliest_finish = run.t1;
        double idle = 0.0;
        for (int w = 0; w < workers; ++w) {
            const auto key = std::make_pair(i, w);
            const auto busy = job_time.find(key);
            idle += run.duration()
                - (busy == job_time.end() ? 0.0 : busy->second);
            const auto end = last_end.find(key);
            earliest_finish = std::min(
                earliest_finish, end == last_end.end() ? run.t0 : end->second);
        }
        idle_by_group[run.group] += idle;
        acc.schedulerCapacity += workers * run.duration();
        acc.straggler += run.t1 - earliest_finish;
        if (run.duration() > 0.0)
            acc.maxJobFrac += longest_job[i] / run.duration();
    }

    std::map<std::uint32_t, double> covered_by_group;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &span = spans[i];
        const double self = span.duration() - child[i];
        acc.selfTime[span.name] += self;
        ++acc.count[span.name];
        // sim.run's own self time is the calling worker's idle, already
        // in idle_by_group; the root's self time is unattributed.
        if (span.name != SpanName::SimRun && span.name != SpanName::BenchOp)
            covered_by_group[span.group] += self;
    }
    for (const Tracer::Span &span : spans) {
        if (span.name != SpanName::BenchOp)
            continue;
        ++acc.roots;
        acc.rootCapacity += workers * span.duration();
        acc.covered += covered_by_group[span.group]
            + idle_by_group[span.group];
    }
    return acc;
}

} // namespace perfbench
