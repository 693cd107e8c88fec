/**
 * @file
 * serve-queue: a closed loop with one client over one
 * serve::SweepService. The client submits the next request of a seeded
 * stream only after the previous reply; every job runs with workers =
 * nproc.
 *
 * The stream repeats a ten-request round: cold threshold jobs over new
 * noise points, warm jobs (new seed or shots over points already seen,
 * one of them checkpointed), co-simulation jobs over three small
 * programs, and exact repeats that the result cache answers. Every
 * eighth round starts with a kill-then-resume pair on a checkpoint.
 * New points keep arriving, so the per-worker experiment caches (8
 * slots) evict.
 *
 * Checks: every job completes (the killed one must not), result-cache
 * replies equal the first reply for the spec byte for byte, and after
 * the loop a sample of served specs -- warm, cold, co-simulation,
 * checkpointed and resumed -- is recomputed on a fresh single-worker
 * service and must give identical bytes.
 */

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>

#include "checks.h"
#include "serve/checkpoint.h"
#include "serve/partition.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using qla::serve::SweepRequest;
using qla::serve::SweepResponse;

constexpr std::size_t kRounds = 400;
constexpr std::size_t kRoundLength = 10;
constexpr std::size_t kKillEvery = 8;
/** Span group of the layer calls made after the loop (outside every
 *  round, so they do not count toward a round's coverage). */
constexpr std::uint32_t kAfterLoop = 0xffffffffu;

enum class JobKind { Cold, Warm, CoSim, Hit, Checkpointed, Kill, Resume };

/** One request of the stream plus what the client expects of it. */
struct Planned
{
    JobKind kind = JobKind::Warm;
    std::string text;      ///< Request text (key-per-line spec).
    std::string checkpoint; ///< Checkpoint file ("" = none).
    std::size_t killAfter = 0;
    /** Hits: index of the request whose reply they repeat. */
    std::size_t repeats = 0;
};

/** Deterministic uniform [0, 1) stream. */
class Uniform
{
  public:
    explicit Uniform(std::uint64_t seed) : seed_(seed) {}
    double next()
    {
        return static_cast<double>(mixSeed(seed_, count_++) >> 11)
            * 0x1.0p-53;
    }
    std::size_t below(std::size_t n)
    {
        return std::min(n - 1, static_cast<std::size_t>(next() * n));
    }

  private:
    std::uint64_t seed_;
    std::uint64_t count_ = 0;
};

std::string
thresholdText(const std::vector<double> &errors, std::size_t shots,
              std::uint64_t seed)
{
    std::string text = "kind threshold\nerrors";
    char buf[64];
    for (const double p : errors) {
        std::snprintf(buf, sizeof(buf), " %.4g", p);
        text += buf;
    }
    text += "\nshots " + std::to_string(shots) + "\nseed "
        + std::to_string(seed) + "\n";
    return text;
}

std::string
cosimText(std::size_t program, std::uint64_t seed)
{
    static const char *const kPrograms[] = {"qcla 16", "toffoli 15 12",
                                            "qft 32"};
    return std::string("kind cosim\nworkload ") + kPrograms[program % 3]
        + "\nbandwidths 1 2 4\nseeds " + std::to_string(seed) + "\n";
}

/** The whole seeded request stream (kRounds rounds). */
std::vector<Planned>
planStream(std::uint64_t seed, const std::string &ckpt_dir)
{
    Uniform u(seed);
    std::vector<Planned> stream;
    std::vector<double> seen;          // Noise points already requested.
    std::vector<std::size_t> repeatable; // Requests that complete.
    std::uint64_t job_seed = seed % 100000 * 1000;
    std::size_t cosim_count = 0;

    auto fresh_point = [&] {
        for (;;) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.4g", 1.0e-3 + 3.0e-3 * u.next());
            const double p = std::strtod(buf, nullptr);
            if (std::find(seen.begin(), seen.end(), p) == seen.end()) {
                seen.push_back(p);
                return p;
            }
        }
    };
    // A point among the four most recently introduced.
    auto recent_point = [&](std::size_t back) {
        const std::size_t window = std::min<std::size_t>(4, seen.size());
        return seen[seen.size() - 1 - (back + u.below(window)) % window];
    };
    auto job = [](JobKind kind, std::string text) {
        Planned planned;
        planned.kind = kind;
        planned.text = std::move(text);
        return planned;
    };
    auto add = [&](Planned planned) {
        if (planned.kind != JobKind::Kill && planned.kind != JobKind::Hit)
            repeatable.push_back(stream.size());
        stream.push_back(std::move(planned));
    };
    auto hit = [&] {
        Planned planned;
        planned.kind = JobKind::Hit;
        planned.repeats = repeatable[u.below(repeatable.size())];
        planned.text = stream[planned.repeats].text;
        add(planned);
    };

    for (std::size_t round = 0; round < kRounds; ++round) {
        const std::string tag = std::to_string(round);
        if (round % kKillEvery == 0) {
            Planned kill;
            kill.kind = JobKind::Kill;
            kill.text = thresholdText({fresh_point(), fresh_point()}, 4096,
                                      ++job_seed);
            kill.checkpoint = ckpt_dir + "/resume-" + tag + ".ckpt";
            kill.killAfter = 3;
            Planned resume = kill;
            resume.kind = JobKind::Resume;
            resume.killAfter = 0;
            add(kill);
            add(resume);
        }
        add(job(JobKind::Cold,
                thresholdText({fresh_point()}, 1024, ++job_seed)));
        add(job(JobKind::Warm,
                thresholdText({recent_point(0)}, 1024, ++job_seed)));
        hit();
        add(job(JobKind::Warm,
                thresholdText({recent_point(0), recent_point(1)}, 1024,
                              ++job_seed)));
        add(job(JobKind::CoSim, cosimText(cosim_count++, ++job_seed)));
        hit();
        add(job(JobKind::Cold,
                thresholdText({fresh_point()}, 1024, ++job_seed)));
        Planned ckpt = job(JobKind::Checkpointed,
                           thresholdText({recent_point(0)}, 2048, ++job_seed));
        ckpt.checkpoint = ckpt_dir + "/job-" + tag + ".ckpt";
        add(ckpt);
        hit();
        add(job(JobKind::Warm,
                thresholdText({recent_point(2)}, 1024, ++job_seed)));
    }
    return stream;
}

/** Parse the stream into requests (workers = @p workers). */
bool
parseStream(const std::vector<Planned> &stream, int workers,
            std::vector<SweepRequest> &requests, std::string &error)
{
    requests.clear();
    requests.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        SweepRequest request;
        request.name = "job-" + std::to_string(i);
        if (!qla::serve::SweepJobSpec::parse(stream[i].text, request.spec,
                                             error))
            return false;
        request.options.workers = workers;
        request.options.checkpointPath = stream[i].checkpoint;
        request.options.killAfterChunks = stream[i].killAfter;
        requests.push_back(std::move(request));
    }
    return true;
}

struct Setup
{
    std::optional<qla::serve::SweepService> service;
    std::vector<Planned> stream;
    std::vector<SweepRequest> requests;
};

/** Service construction + request generation and parsing. */
double
setUp(const Options &options, const std::string &ckpt_dir, Setup &setup,
      Result &result)
{
    const auto start = Clock::now();
    setup.service.emplace();
    setup.stream = planStream(options.seed, ckpt_dir);
    std::string error;
    if (!parseStream(setup.stream, options.workers, setup.requests, error))
        result.failures.push_back("serve: generated request rejected: "
                                  + error);
    return secondsSince(start);
}

/** Client-side record of one served job. */
struct Served
{
    JobKind planned = JobKind::Warm;
    double seconds = 0.0;
    bool cold = false; ///< Recorded a trace or lowered a workload.
    SweepResponse response;
};

bool
recorded(const qla::serve::CacheCounters &before,
         const qla::serve::CacheCounters &after)
{
    return after.traceRecordings > before.traceRecordings
        || after.workloadLowerings > before.workloadLowerings;
}

/** Checks of one reply against what the client planned. */
Problems
checkReply(const std::vector<Planned> &stream, const std::vector<Served> &log,
           std::size_t index)
{
    const Served &served = log[index];
    const SweepResponse &r = served.response;
    const std::string what = r.name;
    Problems problems;
    if (!r.error.empty())
        problems.push_back("serve: " + what + " failed: " + r.error);
    if (served.planned == JobKind::Kill) {
        if (r.complete)
            problems.push_back("serve: " + what
                               + " completed despite the injected kill");
        return problems;
    }
    if (!r.complete || r.output.empty())
        problems.push_back("serve: " + what + " did not complete");
    if (served.planned == JobKind::Hit) {
        if (!r.fromResultCache)
            problems.push_back("serve: " + what
                               + " repeat missed the result cache");
        for (auto &p : compareBytes(
                 r.output, log[stream[index].repeats].response.output,
                 what + " result-cache reply vs first reply"))
            problems.push_back(p);
    } else if (r.fromResultCache) {
        problems.push_back("serve: " + what
                           + " new spec answered from the result cache");
    }
    return problems;
}

/** Recompute a sample of served specs on a fresh 1-worker service. */
void
checkAgainstReference(const std::vector<Planned> &stream,
                      const std::vector<SweepRequest> &requests,
                      const std::vector<Served> &log, Result &result)
{
    std::map<JobKind, std::size_t> sampled;
    qla::serve::SweepService reference;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const JobKind kind = stream[i].kind;
        if (kind == JobKind::Kill || kind == JobKind::Hit
            || sampled[kind] >= 2)
            continue;
        ++sampled[kind];
        SweepRequest request;
        request.name = requests[i].name + "-reference";
        request.spec = requests[i].spec;
        request.options.workers = 1;
        reference.submit(request);
        SweepResponse response;
        reference.processNext(response);
        result.operation(compareBytes(
            log[i].response.output, response.output,
            requests[i].name + " served vs fresh 1-worker service"));
    }
}

/** Submit request @p i and wait for its reply. */
Served
serveOne(Setup &setup, std::size_t i, Tracer *tracer)
{
    Served served;
    served.planned = setup.stream[i].kind;
    qla::serve::SweepService &service = *setup.service;
    const qla::serve::CacheCounters before = service.cacheCounters();
    {
        const auto group = static_cast<std::uint32_t>(i);
        Tracer::Scope root(tracer, 0, SpanName::BenchOp, group);
        Tracer::Scope span(tracer, 0, SpanName::ServeJob, group);
        const auto t0 = Clock::now();
        service.submit(setup.requests[i]);
        service.processNext(served.response);
        served.seconds = secondsSince(t0);
    }
    served.cold = recorded(before, service.cacheCounters());
    return served;
}

std::string
checkpointDir(const Options &options)
{
    const std::string dir = options.outDir + "/ckpt-" + options.workload
        + "-" + std::to_string(options.seed);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    return dir;
}

void
runUntraced(const Options &options, Result &result)
{
    const std::string dir = checkpointDir(options);
    std::vector<double> setup_s;
    Setup setup;
    for (int rep = 0; rep < 15; ++rep)
        setup_s.push_back(setUp(options, dir, setup, result));

    // Closed loop, one client; throughput is sampled per block of
    // kRoundLength consecutive jobs.
    std::vector<double> rates;
    std::vector<Served> log;
    const auto start = Clock::now();
    auto block_start = start;
    for (std::size_t i = 0; i < setup.requests.size(); ++i) {
        if (i % kRoundLength == 0) {
            if (secondsSince(start) >= options.seconds)
                break;
            block_start = Clock::now();
        }
        log.push_back(serveOne(setup, i, nullptr));
        result.operation(checkReply(setup.stream, log, i));
        if (i % kRoundLength == kRoundLength - 1)
            rates.push_back(kRoundLength / secondsSince(block_start));
    }
    checkAgainstReference(setup.stream, setup.requests, log, result);

    std::vector<double> all, cold, warm, hit;
    for (const Served &served : log) {
        all.push_back(served.seconds);
        (served.response.fromResultCache ? hit
         : served.cold                    ? cold
                                          : warm)
            .push_back(served.seconds);
    }
    setEndToEnd(result, setup_s, all, rates, "jobs_per_s");
    result.note("cold_job_ms_p50", quantile(cold, 0.5) * 1e3, "ms",
                cold.size());
    result.note("cold_job_ms_p90", quantile(cold, 0.9) * 1e3, "ms",
                cold.size());
    result.note("warm_job_ms_p50", quantile(warm, 0.5) * 1e3, "ms",
                warm.size());
    result.note("warm_job_ms_p90", quantile(warm, 0.9) * 1e3, "ms",
                warm.size());
    result.note("hit_job_us_p50", quantile(hit, 0.5) * 1e6, "us",
                hit.size());
    result.note("hit_job_us_p90", quantile(hit, 0.9) * 1e6, "us",
                hit.size());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

/** Checkpoint I/O on the files the jobs wrote. */
struct CheckpointIo
{
    std::vector<double> save, load, bytes;
};

void
measureCheckpoints(const std::vector<Planned> &stream, std::size_t jobs,
                   const std::string &dir, Tracer &tracer,
                   CheckpointIo &io, Result &result)
{
    const std::string copy = dir + "/copy.ckpt";
    for (std::size_t i = 0; i < jobs; ++i) {
        if (stream[i].checkpoint.empty() || stream[i].kind == JobKind::Kill)
            continue;
        const std::uint32_t group = kAfterLoop;
        qla::serve::CheckpointData data;
        std::string error;
        bool ok = false;
        {
            Tracer::Scope span(&tracer, 0, SpanName::ServeCkptLoad, group);
            const auto t0 = Clock::now();
            ok = qla::serve::loadCheckpointFile(stream[i].checkpoint, data,
                                                error);
            io.load.push_back(secondsSince(t0));
        }
        if (ok) {
            Tracer::Scope span(&tracer, 0, SpanName::ServeCkptSave, group);
            const auto t0 = Clock::now();
            ok = qla::serve::saveCheckpointFile(copy, data, error);
            io.save.push_back(secondsSince(t0));
        }
        struct stat info{};
        if (ok && ::stat(stream[i].checkpoint.c_str(), &info) == 0)
            io.bytes.push_back(static_cast<double>(info.st_size));
        if (!ok)
            result.failures.push_back("serve: checkpoint of job "
                                      + std::to_string(i) + ": " + error);
    }
}

void
runTraced(const Options &options, Result &result)
{
    const std::string dir = checkpointDir(options);
    // Two identical services fed the same requests in lockstep, one
    // untraced and one traced: their job-time ratio is the overhead.
    std::error_code ec;
    std::filesystem::create_directories(dir + "/plain", ec);
    std::filesystem::create_directories(dir + "/traced", ec);
    Setup plain, setup;
    setUp(options, dir + "/plain", plain, result);
    setUp(options, dir + "/traced", setup, result);
    Tracer tracer(1);
    std::vector<Served> log;
    double plain_seconds = 0.0, traced_seconds = 0.0;
    const std::size_t prefix = 8 * kRoundLength;
    qla::serve::CacheCounters counters;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < setup.requests.size(); ++i) {
        if (i >= prefix && secondsSince(start) >= options.seconds)
            break;
        const Served untraced = serveOne(plain, i, nullptr);
        log.push_back(serveOne(setup, i, &tracer));
        plain_seconds += untraced.seconds;
        traced_seconds += log.back().seconds;
        Problems problems = checkReply(setup.stream, log, i);
        for (auto &p : compareBytes(untraced.response.output,
                                    log.back().response.output,
                                    setup.requests[i].name
                                        + " twin services"))
            problems.push_back(p);
        result.operation(problems);
        if (i + 1 == prefix)
            counters = setup.service->cacheCounters();
    }

    // Layer calls made from outside, after the jobs: partitioning of
    // every spec that ran, and checkpoint I/O on the files they wrote.
    std::vector<double> partition;
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].response.fromResultCache)
            continue;
        Tracer::Scope span(&tracer, 0, SpanName::ServePartition, kAfterLoop);
        const auto t0 = Clock::now();
        const qla::serve::JobPartition p
            = qla::serve::partitionJob(setup.requests[i].spec);
        partition.push_back(secondsSince(t0));
        if (p.chunks.empty())
            result.failures.push_back("serve: empty partition");
    }
    CheckpointIo io;
    measureCheckpoints(setup.stream, log.size(), dir, tracer, io, result);

    zeroLayerMetrics(result, true);
    std::vector<double> cold, warm, hit;
    double hits = 0, cold_jobs = 0, warm_jobs = 0;
    for (const Served &served : log)
        (served.response.fromResultCache ? hit
         : served.cold                    ? cold
                                          : warm)
            .push_back(served.seconds);
    for (std::size_t i = 0; i < prefix; ++i) {
        const Served &served = log[i];
        hits += served.response.fromResultCache;
        cold_jobs += !served.response.fromResultCache && served.cold;
        warm_jobs += !served.response.fromResultCache && !served.cold;
    }
    result.set("serve.partition_us", median(partition) * 1e6, "us",
               partition.size());
    result.set("serve.ckpt_save_ms", median(io.save) * 1e3, "ms",
               io.save.size());
    result.set("serve.ckpt_load_ms", median(io.load) * 1e3, "ms",
               io.load.size());
    result.set("serve.ckpt_bytes", median(io.bytes), "bytes",
               io.bytes.size());
    result.set("serve.trace_recordings",
               static_cast<double>(counters.traceRecordings), "count");
    result.set("serve.trace_replays",
               static_cast<double>(counters.traceReplays), "count");
    const double lookups = static_cast<double>(counters.traceRecordings
                                               + counters.traceReplays);
    result.set("serve.exp_hit_ratio",
               lookups > 0 ? counters.traceReplays / lookups : 0.0,
               "fraction");
    result.set("serve.workload_lowerings",
               static_cast<double>(counters.workloadLowerings), "count");
    result.set("serve.result_hits", hits, "count");
    result.set("serve.cold_jobs", cold_jobs, "count");
    result.set("serve.warm_jobs", warm_jobs, "count");
    result.set("serve.hit_jobs", hits, "count");
    result.set("serve.cold_job_ms_p50", quantile(cold, 0.5) * 1e3, "ms",
               cold.size());
    result.set("serve.cold_job_ms_p90", quantile(cold, 0.9) * 1e3, "ms",
               cold.size());
    result.set("serve.warm_job_ms_p50", quantile(warm, 0.5) * 1e3, "ms",
               warm.size());
    result.set("serve.warm_job_ms_p90", quantile(warm, 0.9) * 1e3, "ms",
               warm.size());
    result.set("serve.hit_job_us_p50", quantile(hit, 0.5) * 1e6, "us",
               hit.size());
    result.set("serve.hit_job_us_p90", quantile(hit, 0.9) * 1e6, "us",
               hit.size());
    result.set("bench.trace_overhead_frac",
               traced_seconds / plain_seconds - 1.0, "fraction", log.size());
    tracer.dump(options.outDir + "/spans-" + options.workload + "-"
                + std::to_string(options.seed) + ".csv");
    const SpanAccounting acc = accountSpans(tracer.spans(), 1);
    result.set("bench.coverage_frac",
               acc.rootCapacity > 0 ? acc.covered / acc.rootCapacity : 0.0,
               "fraction", acc.roots);
    std::filesystem::remove_all(dir, ec);
}

} // namespace

void
runServeQueue(const Options &options, Result &result)
{
    if (options.trace)
        runTraced(options, result);
    else
        runUntraced(options, result);
}

} // namespace perfbench
