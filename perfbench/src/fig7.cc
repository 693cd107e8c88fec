/**
 * @file
 * fig7-window and fig7-tail: arq::thresholdSweep over the paper's
 * crossing window and over the above-threshold tail.
 *
 * One operation is one thresholdSweep call (threads = workers) with a
 * per-operation Monte-Carlo seed derived from the run seed. The traced
 * run drives the same inputs through the calls thresholdSweep makes --
 * its task and chunk lists (built by the replica itself),
 * sim::ShotScheduler::run, per-worker experiment construction and
 * failureRateRange -- and must reproduce its points bit for bit.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>

#include "arq/batched_monte_carlo.h"
#include "arq/monte_carlo.h"
#include "checks.h"
#include "common/batched_sampler.h"
#include "common/rng.h"
#include "ecc/steane.h"
#include "sim/shot_scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace {

using qla::arq::ThresholdPoint;

struct Fig7Shape
{
    std::vector<double> points;
    std::size_t shots = 0;
    bool crossingWindow = false;
    bool aboveThreshold = false;
};

Fig7Shape
shapeOf(bool tail)
{
    // Several 2048-shot chunks per (point, level) task: 36 and 40
    // scheduler jobs. With one chunk per task a single L2 job set the
    // sweep's latency, which then followed one core's speed (runs of the
    // same seed varied by up to 1.5x on a shared 4-core host).
    if (tail)
        return {{4.0e-3, 6.0e-3, 8.0e-3}, 12288, false, true};
    return {{1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3, 3.0e-3}, 8192, true, false};
}

/** Shots one sweep simulates: points x two levels x shots. */
double
sweepShots(const Fig7Shape &shape)
{
    return static_cast<double>(shape.points.size() * 2 * shape.shots);
}

/** One experiment per point: the record cost a sweep pays up front. */
double
setupOnce(const Fig7Shape &shape)
{
    const auto start = Clock::now();
    std::vector<std::unique_ptr<qla::arq::BatchedLogicalQubitExperiment>>
        experiments;
    for (const double p : shape.points)
        experiments.push_back(
            std::make_unique<qla::arq::BatchedLogicalQubitExperiment>(
                qla::ecc::steaneCode(),
                qla::arq::NoiseParameters::swept(p)));
    return secondsSince(start);
}

std::vector<ThresholdPoint>
entrySweep(const Fig7Shape &shape, std::uint64_t seed, int workers)
{
    qla::arq::McRunOptions options;
    options.threads = workers;
    return qla::arq::thresholdSweep(shape.points, shape.shots, seed,
                                    options);
}

/** What the traced replica returns besides the points. */
struct TracedSweep
{
    std::vector<ThresholdPoint> points;
    double rootSeconds = 0.0;
};

/** One (point, level) task, seeded as thresholdSweep seeds it: one
 *  seeder draw per task in point order. */
struct ReplicaTask
{
    std::size_t point = 0;
    int level = 1;
    double physicalError = 0.0;
    std::uint64_t seed = 0;
};

/** One scheduler job: a contiguous shot range of one task. */
struct ReplicaChunk
{
    std::size_t task = 0;
    std::uint64_t firstShot = 0;
    std::size_t shotCount = 0;
};

/** The replica's own task and chunk lists. They mirror thresholdSweep's
 *  (chunks of McRunOptions::chunkShots rounded down to whole groups of
 *  BatchOptions::groupWords 64-lane words); the bit-for-bit comparison
 *  with the entry point is what shows that they do. */
void
chunkSweep(const Fig7Shape &shape, std::uint64_t seed,
           std::vector<ReplicaTask> &tasks, std::vector<ReplicaChunk> &chunks)
{
    qla::Rng seeder(seed);
    for (std::size_t i = 0; i < shape.points.size(); ++i)
        for (const int level : {1, 2})
            tasks.push_back({i, level, shape.points[i], seeder.next64()});

    const qla::arq::McRunOptions defaults;
    const std::size_t group
        = defaults.batch.groupWords * qla::kBatchLanes;
    const std::size_t chunk_shots
        = defaults.chunkShots <= group
              ? group
              : defaults.chunkShots - defaults.chunkShots % group;
    for (std::size_t t = 0; t < tasks.size(); ++t)
        for (std::size_t first = 0; first < shape.shots;
             first += chunk_shots)
            chunks.push_back(
                {t, first, std::min(chunk_shots, shape.shots - first)});
}

/** Per-worker experiment slots keyed by point (the sweep's own
 *  reuse policy: three slots, round-robin eviction). */
struct ReplicaCache
{
    static constexpr std::size_t kSlots = 3;
    std::array<std::size_t, kSlots> point{};
    std::array<std::unique_ptr<qla::arq::BatchedLogicalQubitExperiment>,
               kSlots>
        experiment;
    std::size_t nextEvict = 0;
};

/**
 * thresholdSweep's calls, each in a span of @p tracer (none when null).
 * @p stats, when given, collects both levels' ExperimentStats in chunk
 * order; thresholdSweep collects none, so timed replicas pass null.
 */
TracedSweep
tracedSweep(const Fig7Shape &shape, std::uint64_t seed, int workers,
            Tracer *tracer, std::uint32_t group,
            qla::arq::ExperimentStats *stats = nullptr)
{
    TracedSweep out;
    const auto t0 = Clock::now();
    Tracer::Scope root(tracer, 0, SpanName::BenchOp, group);

    std::vector<ReplicaTask> tasks;
    std::vector<ReplicaChunk> chunks;
    {
        Tracer::Scope span(tracer, 0, SpanName::BenchChunk, group);
        chunkSweep(shape, seed, tasks, chunks);
    }

    struct ChunkOut
    {
        qla::sim::RateStat rate;
        qla::arq::ExperimentStats stats;
    };
    std::vector<ChunkOut> results(chunks.size());
    std::optional<qla::sim::ShotScheduler> scheduler;
    {
        Tracer::Scope span(tracer, 0, SpanName::SimStart, group);
        scheduler.emplace(workers);
    }
    std::vector<ReplicaCache> cache(scheduler->threadCount());
    {
        Tracer::Scope run(tracer, 0, SpanName::SimRun, group);
        const std::int64_t run_id = run.id();
        scheduler->run(chunks.size(), [&](std::size_t job, int worker) {
            Tracer::Scope job_span(tracer, worker, SpanName::SimJob, group,
                                   run_id);
            const ReplicaChunk &chunk = chunks[job];
            const ReplicaTask &task = tasks[chunk.task];
            ReplicaCache &wc = cache[worker];
            qla::arq::BatchedLogicalQubitExperiment *experiment = nullptr;
            for (std::size_t s = 0; s < ReplicaCache::kSlots; ++s)
                if (wc.experiment[s] && wc.point[s] == task.point) {
                    experiment = wc.experiment[s].get();
                    break;
                }
            if (!experiment) {
                Tracer::Scope span(tracer, worker, SpanName::ArqRecord,
                                   group);
                const std::size_t slot = wc.nextEvict;
                wc.nextEvict = (wc.nextEvict + 1) % ReplicaCache::kSlots;
                wc.point[slot] = task.point;
                wc.experiment[slot] = std::make_unique<
                    qla::arq::BatchedLogicalQubitExperiment>(
                    qla::ecc::steaneCode(),
                    qla::arq::NoiseParameters::swept(task.physicalError));
                experiment = wc.experiment[slot].get();
            }
            Tracer::Scope span(tracer, worker,
                               task.level == 1 ? SpanName::ArqReplayL1
                                               : SpanName::ArqReplayL2,
                               group);
            results[job].rate = experiment->failureRateRange(
                task.level, chunk.firstShot, chunk.shotCount, task.seed,
                stats ? &results[job].stats : nullptr);
        });
    }
    {
        Tracer::Scope span(tracer, 0, SpanName::SimStop, group);
        scheduler.reset();
        cache.clear();
    }
    {
        Tracer::Scope span(tracer, 0, SpanName::ArqReduce, group);
        std::vector<qla::sim::RateStat> task_rates(tasks.size());
        for (std::size_t j = 0; j < results.size(); ++j) {
            task_rates[chunks[j].task].merge(results[j].rate);
            if (stats)
                stats->merge(results[j].stats);
        }
        out.points.assign(shape.points.size(), ThresholdPoint{});
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            const ReplicaTask &task = tasks[t];
            ThresholdPoint &point = out.points[task.point];
            point.physicalError = task.physicalError;
            if (task.level == 1) {
                point.level1Failure = task_rates[t].rate();
                point.level1Error = task_rates[t].halfWidth95();
            } else {
                point.level2Failure = task_rates[t].rate();
                point.level2Error = task_rates[t].halfWidth95();
            }
        }
    }
    out.rootSeconds = secondsSince(t0);
    return out;
}

/** Sum of per-point failure rates over sweeps of equal shape. */
void
accumulate(std::vector<ThresholdPoint> &sum,
           const std::vector<ThresholdPoint> &points)
{
    sum.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        sum[i].physicalError = points[i].physicalError;
        sum[i].level1Failure += points[i].level1Failure;
        sum[i].level2Failure += points[i].level2Failure;
    }
}

std::vector<ThresholdPoint>
pooledRates(std::vector<ThresholdPoint> sum, std::size_t sweeps)
{
    for (ThresholdPoint &point : sum) {
        point.level1Failure /= static_cast<double>(sweeps);
        point.level2Failure /= static_cast<double>(sweeps);
    }
    return sum;
}

void
runUntraced(const Options &options, const Fig7Shape &shape, Result &result)
{
    // Set-up is timed before the first operation and again after every
    // eighth one: a few milliseconds of allocation-heavy work sampled at
    // one instant tracks the host's momentary speed, so its median is
    // taken over the same stretch of the run as the operations'.
    std::vector<double> setup;
    for (int rep = 0; rep < 3; ++rep)
        setup.push_back(setupOnce(shape));

    // Warm-up: thread start-up and first-touch page faults.
    entrySweep(shape, mixSeed(options.seed, 0), options.workers);

    std::vector<double> latency, rate;
    std::vector<ThresholdPoint> first, pooled;
    const auto start = Clock::now();
    for (std::uint64_t op = 0; op == 0 || secondsSince(start) < options.seconds;
         ++op) {
        const std::uint64_t seed = mixSeed(options.seed, op);
        const auto t0 = Clock::now();
        const std::vector<ThresholdPoint> points
            = entrySweep(shape, seed, options.workers);
        const double seconds = secondsSince(t0);
        latency.push_back(seconds);
        rate.push_back(sweepShots(shape) / seconds);
        result.operation(checkFig7Sweep(shape.points, points, false,
                                        shape.aboveThreshold));
        if (op == 0)
            first = points;
        accumulate(pooled, points);
        if (op % 8 == 7)
            setup.push_back(setupOnce(shape));
    }
    // The crossing is a statistical estimate: check it on the run's
    // pooled counts (every sweep has the same points and shots).
    result.operation(checkFig7Sweep(shape.points,
                                    pooledRates(pooled, latency.size()),
                                    shape.crossingWindow, false));
    // Same seed at one worker: counts are thread-count invariant.
    result.operation(compareSweeps(
        first, entrySweep(shape, mixSeed(options.seed, 0), 1),
        "1 worker vs " + std::to_string(options.workers)));

    setEndToEnd(result, setup, latency, rate, "shots/s");
}

void
runTraced(const Options &options, const Fig7Shape &shape, Result &result)
{
    Tracer tracer(options.workers);
    Tracer serial(1);
    std::vector<double> untraced, traced, overhead, speedups;
    std::vector<ThresholdPoint> pooled;
    qla::arq::ExperimentStats first_stats;
    double level_shots = 0.0; // Shots per level, summed over sweeps.

    entrySweep(shape, mixSeed(options.seed, 0), options.workers);
    const auto start = Clock::now();
    for (std::uint64_t op = 0; op == 0 || secondsSince(start) < options.seconds;
         ++op) {
        const std::uint64_t seed = mixSeed(options.seed, op);
        const auto t0 = Clock::now();
        const std::vector<ThresholdPoint> points
            = entrySweep(shape, seed, options.workers);
        untraced.push_back(secondsSince(t0));

        const TracedSweep replica = tracedSweep(
            shape, seed, options.workers, &tracer,
            static_cast<std::uint32_t>(op));
        traced.push_back(replica.rootSeconds);
        overhead.push_back(replica.rootSeconds / untraced.back() - 1.0);
        accumulate(pooled, points);
        Problems problems = checkFig7Sweep(shape.points, points, false,
                                           shape.aboveThreshold);
        for (auto &p : compareSweeps(points, replica.points,
                                     "traced replica vs thresholdSweep"))
            problems.push_back(p);
        if (op == 0) {
            // Simulated counts, from an untimed replica: collecting
            // them is work thresholdSweep does not do.
            const TracedSweep counted = tracedSweep(
                shape, seed, options.workers, nullptr, 0, &first_stats);
            for (auto &p : compareSweeps(points, counted.points,
                                         "counting replica"))
                problems.push_back(p);
        }
        level_shots += static_cast<double>(shape.points.size() * shape.shots);
        if (op % 4 == 0) {
            const TracedSweep one = tracedSweep(
                shape, seed, 1, &serial, static_cast<std::uint32_t>(op));
            speedups.push_back(one.rootSeconds / replica.rootSeconds);
            for (auto &p : compareSweeps(points, one.points,
                                         "1-worker traced replica"))
                problems.push_back(p);
        }
        result.operation(problems);
    }
    result.operation(checkFig7Sweep(shape.points,
                                    pooledRates(pooled, traced.size()),
                                    shape.crossingWindow, false));

    const std::vector<Tracer::Span> spans = tracer.spans();
    tracer.dump(options.outDir + "/spans-" + options.workload + "-"
                + std::to_string(options.seed) + ".csv");
    const SpanAccounting acc = accountSpans(spans, options.workers);
    const double ops = static_cast<double>(traced.size());
    zeroLayerMetrics(result);

    auto self = [&](SpanName name) {
        const auto it = acc.selfTime.find(name);
        return it == acc.selfTime.end() ? 0.0 : it->second;
    };
    auto count = [&](SpanName name) {
        const auto it = acc.count.find(name);
        return it == acc.count.end() ? 0.0 : static_cast<double>(it->second);
    };
    const std::size_t n = traced.size();
    result.set("arq.record_s", self(SpanName::ArqRecord) / ops, "s", n);
    result.set("arq.recordings", count(SpanName::ArqRecord) / ops, "count",
               n);
    result.set("arq.replay_s",
               (self(SpanName::ArqReplayL1) + self(SpanName::ArqReplayL2))
                   / ops,
               "s", n);
    result.set("arq.l1_ns_per_shot",
               self(SpanName::ArqReplayL1) / level_shots * 1e9, "ns", n);
    result.set("arq.l2_ns_per_shot",
               self(SpanName::ArqReplayL2) / level_shots * 1e9, "ns", n);
    const double first_shots = sweepShots(shape);
    result.set("arq.prep_attempts_per_shot",
               first_stats.prepAttempts.sum() / first_shots, "count");
    result.set("arq.syndrome_rate", first_stats.nontrivialSyndrome.rate(),
               "fraction");
    result.set("arq.failures",
               static_cast<double>(
                   first_stats.logicalFailure.successes()),
               "count");
    setSchedulerMetrics(result, acc, speedups);
    result.set("bench.trace_overhead_frac", median(overhead), "fraction", n);
    result.set("bench.coverage_frac", acc.covered / acc.rootCapacity,
               "fraction", n);
}

} // namespace

void
runFig7(const Options &options, bool tail, Result &result)
{
    const Fig7Shape shape = shapeOf(tail);
    if (options.trace)
        runTraced(options, shape, result);
    else
        runUntraced(options, shape, result);
}

} // namespace perfbench
