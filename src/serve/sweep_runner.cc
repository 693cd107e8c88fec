#include "serve/sweep_runner.h"

#include <cstdio>
#include <map>
#include <mutex>

#include "arq/monte_carlo.h"
#include "common/logging.h"
#include "network/cosim.h"
#include "sim/shot_scheduler.h"

namespace qla::serve {

arq::ExperimentCache &
SweepCaches::workerCache(std::size_t worker)
{
    qla_assert(worker < perWorkerExperiments.size(),
               "no experiment cache for worker ", worker);
    return perWorkerExperiments[worker];
}

CacheCounters
SweepCaches::counters() const
{
    CacheCounters total = workloads.counters();
    for (const arq::ExperimentCache &cache : perWorkerExperiments) {
        total.traceRecordings += cache.recordings();
        total.traceReplays += cache.replays();
    }
    return total;
}

void
SweepCaches::resetCounters()
{
    workloads.resetCounters();
    for (arq::ExperimentCache &cache : perWorkerExperiments)
        cache.resetCounters();
}

namespace {

/** Shared record-side state of one run (guarded by its mutex). */
struct RunState
{
    std::mutex mutex;
    std::map<std::size_t, ThresholdChunkPartial> threshold;
    std::map<std::size_t, CoSimChunkPartial> cosim;
    std::size_t computed = 0;
    std::size_t loaded = 0;
    bool killed = false;
    std::string checkpointError;

    std::size_t done() const { return loaded + computed; }

    CheckpointData snapshot(const SweepJobSpec &spec,
                            std::size_t total_chunks) const
    {
        CheckpointData data;
        data.configHash = spec.configHash();
        data.kind = spec.kind;
        data.totalChunks = total_chunks;
        for (const auto &[index, partial] : threshold)
            data.threshold.push_back(partial);
        for (const auto &[index, partial] : cosim)
            data.cosim.push_back(partial);
        return data;
    }
};

} // namespace

RunOutcome
runSweepJob(const SweepJobSpec &spec, const RunnerOptions &options,
            SweepCaches &caches)
{
    RunOutcome outcome;
    if (options.shardCount < 1 || options.shardIndex < 0
        || options.shardIndex >= options.shardCount) {
        outcome.error = "bad shard selection";
        return outcome;
    }
    if (options.shardCount > 1 && options.checkpointPath.empty()) {
        outcome.error = "sharded runs need --checkpoint (the shard's "
                        "result artifact)";
        return outcome;
    }

    const JobPartition partition = partitionJob(spec);
    const std::uint64_t config_hash = spec.configHash();

    std::vector<std::size_t> owned;
    for (const SweepChunk &chunk : partition.chunks)
        if (chunkInShard(chunk.index, options.shardIndex,
                         options.shardCount))
            owned.push_back(chunk.index);

    RunState state;
    if (!options.checkpointPath.empty()
        && checkpointFileExists(options.checkpointPath)) {
        CheckpointData data;
        std::string error;
        if (!loadCheckpointFile(options.checkpointPath, data, error)) {
            outcome.error = error;
            return outcome;
        }
        if (data.configHash != config_hash) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "checkpoint config hash %016llx does not "
                          "match job %016llx",
                          (unsigned long long)data.configHash,
                          (unsigned long long)config_hash);
            outcome.error = options.checkpointPath + ": " + buf;
            return outcome;
        }
        if (data.kind != spec.kind
            || data.totalChunks != partition.chunks.size()) {
            outcome.error = options.checkpointPath
                + ": checkpoint does not match the job's partition";
            return outcome;
        }
        for (const ThresholdChunkPartial &partial : data.threshold)
            state.threshold.emplace(partial.chunk, partial);
        for (const CoSimChunkPartial &partial : data.cosim)
            state.cosim.emplace(partial.chunk, partial);
        state.loaded = state.threshold.size() + state.cosim.size();
    }

    std::vector<std::size_t> pending;
    for (const std::size_t index : owned)
        if (!state.threshold.count(index) && !state.cosim.count(index))
            pending.push_back(index);

    // Lowered workloads pinned for the scheduler's lifetime (cosim).
    std::vector<std::shared_ptr<const network::ProgramWorkload>>
        workloads;
    if (spec.kind == SweepKind::CoSim && !pending.empty())
        for (const WorkloadSpec &workload : spec.cosim.workloads)
            workloads.push_back(caches.workloads.acquire(workload));

    const std::size_t total_owned = owned.size();
    auto record_progress = [&](const std::string &line) {
        if (options.progress)
            options.progress(line);
    };

    // Incremental per-task rates for the streaming Wilson intervals
    // (integer-count merges, so completion order cannot skew them).
    std::vector<sim::RateStat> task_rates(partition.tasks.size());

    auto maybe_checkpoint = [&](bool force) {
        if (options.checkpointPath.empty())
            return;
        if (!force && options.checkpointEveryChunks > 1
            && state.computed % options.checkpointEveryChunks != 0)
            return;
        std::string error;
        if (!saveCheckpointFile(options.checkpointPath,
                                state.snapshot(spec,
                                               partition.chunks.size()),
                                error)
            && state.checkpointError.empty())
            state.checkpointError = error;
    };

    sim::ShotScheduler scheduler(options.workers);
    // Size the per-worker caches before any worker runs: growing the
    // vector while workers look up their slots would race.
    while (caches.perWorkerExperiments.size()
           < static_cast<std::size_t>(scheduler.threadCount()))
        caches.perWorkerExperiments.emplace_back(8);
    scheduler.run(pending.size(), [&](std::size_t job, int worker) {
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            if (state.killed)
                return;
        }
        const SweepChunk &chunk = partition.chunks[pending[job]];

        if (spec.kind == SweepKind::Threshold) {
            const arq::SweepTask &task = partition.tasks[chunk.task];
            arq::BatchOptions batch;
            batch.groupWords = spec.threshold.groupWords;
            ThresholdChunkPartial partial;
            partial.chunk = chunk.index;
            partial.failures
                = caches.workerCache(worker)
                      .acquire(task.physicalError, batch)
                      .failureRateRange(task.level, chunk.firstShot,
                                        chunk.shotCount, task.seed,
                                        &partial.stats);

            std::lock_guard<std::mutex> lock(state.mutex);
            if (state.killed)
                return; // in flight at the kill: resume recomputes it
            state.threshold.emplace(partial.chunk, partial);
            ++state.computed;
            task_rates[chunk.task].merge(partial.failures);
            const sim::RateStat &rate = task_rates[chunk.task];
            std::string line;
            appendf(line,
                    "progress %zu/%zu p=%.17g L%d rate=%.17g +- %.17g",
                    state.done(), total_owned, task.physicalError,
                    task.level, rate.rate(), rate.halfWidth95());
            record_progress(line);
            if (options.killAfterChunks
                && state.computed >= options.killAfterChunks)
                state.killed = true;
            maybe_checkpoint(state.killed);
            return;
        }

        const network::CoSimSweepPoint &point
            = partition.points[chunk.task];
        network::ProgramCoSimulator simulator(
            *workloads[point.workload], partition.cosim.pointConfig(point));
        CoSimChunkPartial partial;
        partial.chunk = chunk.index;
        partial.report = simulator.run();
        partial.report.perGate.clear(); // Not persisted; keep loaded
                                        // and computed partials equal.

        std::lock_guard<std::mutex> lock(state.mutex);
        if (state.killed)
            return;
        state.cosim.emplace(partial.chunk, partial);
        ++state.computed;
        std::string line;
        appendf(line, "progress %zu/%zu w=%zu bw=%d seed=%llu "
                      "windows=%llu",
                state.done(), total_owned, point.workload,
                point.bandwidth, (unsigned long long)point.seed,
                (unsigned long long)partial.report.windows);
        record_progress(line);
        if (options.killAfterChunks
            && state.computed >= options.killAfterChunks)
            state.killed = true;
        maybe_checkpoint(state.killed);
    });

    maybe_checkpoint(true);
    if (!state.checkpointError.empty()) {
        outcome.error = state.checkpointError;
        return outcome;
    }

    outcome.chunksComputed = state.computed;
    outcome.chunksFromCheckpoint = state.loaded;
    outcome.complete = state.done() == total_owned;
    if (outcome.complete && options.shardCount == 1) {
        std::vector<ThresholdChunkPartial> threshold_partials;
        for (const auto &[index, partial] : state.threshold)
            threshold_partials.push_back(partial);
        std::vector<CoSimChunkPartial> cosim_partials;
        for (const auto &[index, partial] : state.cosim)
            cosim_partials.push_back(partial);
        outcome.output = renderSweepOutput(spec, partition,
                                           threshold_partials,
                                           cosim_partials);
    }
    return outcome;
}

std::string
renderSweepOutput(
    const SweepJobSpec &spec, const JobPartition &partition,
    const std::vector<ThresholdChunkPartial> &threshold_partials,
    const std::vector<CoSimChunkPartial> &cosim_partials)
{
    if (spec.kind == SweepKind::CoSim) {
        std::vector<network::CoSimSweepPoint> points;
        points.reserve(cosim_partials.size());
        for (const CoSimChunkPartial &partial : cosim_partials) {
            points.push_back(partition.points[partial.chunk]);
            points.back().report = partial.report;
        }
        return network::formatCoSimSweep(points);
    }
    std::vector<sim::RateStat> chunk_rates(partition.chunks.size());
    for (const ThresholdChunkPartial &partial : threshold_partials)
        chunk_rates[partial.chunk] = partial.failures;
    return arq::formatThresholdSweep(arq::reduceThresholdSweep(
        partition.tasks, partition.chunks, chunk_rates));
}

bool
mergeSweepCheckpoints(const SweepJobSpec &spec,
                      const std::vector<CheckpointData> &shards,
                      std::string &output, std::string &error)
{
    const JobPartition partition = partitionJob(spec);
    const std::uint64_t config_hash = spec.configHash();

    std::map<std::size_t, ThresholdChunkPartial> threshold;
    std::map<std::size_t, CoSimChunkPartial> cosim;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const CheckpointData &shard = shards[s];
        if (shard.configHash != config_hash) {
            error = "shard " + std::to_string(s)
                + " carries a different config hash than the job";
            return false;
        }
        if (shard.kind != spec.kind
            || shard.totalChunks != partition.chunks.size()) {
            error = "shard " + std::to_string(s)
                + " does not match the job's partition";
            return false;
        }
        for (const ThresholdChunkPartial &partial : shard.threshold)
            if (!threshold.emplace(partial.chunk, partial).second) {
                error = "chunk " + std::to_string(partial.chunk)
                    + " appears in more than one shard";
                return false;
            }
        for (const CoSimChunkPartial &partial : shard.cosim)
            if (!cosim.emplace(partial.chunk, partial).second) {
                error = "chunk " + std::to_string(partial.chunk)
                    + " appears in more than one shard";
                return false;
            }
    }
    const std::size_t have = threshold.size() + cosim.size();
    if (have != partition.chunks.size()) {
        error = "shards cover " + std::to_string(have) + " of "
            + std::to_string(partition.chunks.size()) + " chunks";
        return false;
    }

    std::vector<ThresholdChunkPartial> threshold_partials;
    for (const auto &[index, partial] : threshold)
        threshold_partials.push_back(partial);
    std::vector<CoSimChunkPartial> cosim_partials;
    for (const auto &[index, partial] : cosim)
        cosim_partials.push_back(partial);
    output = renderSweepOutput(spec, partition, threshold_partials,
                               cosim_partials);
    return true;
}

} // namespace qla::serve
