#include "serve/partition.h"

#include <utility>

#include "common/logging.h"

namespace qla::serve {

JobPartition
partitionJob(const SweepJobSpec &spec)
{
    JobPartition partition;
    if (spec.kind == SweepKind::Threshold) {
        const ThresholdJobParams &params = spec.threshold;
        arq::ThresholdSweepPlan plan = arq::planThresholdSweep(
            params.physicalErrors, params.shots, params.seed,
            params.chunkShots, params.groupWords);
        partition.tasks = std::move(plan.tasks);
        partition.chunks = std::move(plan.chunks);
        return partition;
    }

    const CoSimJobParams &params = spec.cosim;
    network::CoSimSweepConfig &sweep = partition.cosim;
    sweep.base.placement = params.randomPlacement
        ? network::PlacementStrategy::Random
        : network::PlacementStrategy::Affinity;
    sweep.base.fidelity.opError = params.opError;
    sweep.base.fidelity.deliveryThreshold = params.deliveryThreshold;
    sweep.base.fidelity.retryBudget = params.retryBudget;
    sweep.bandwidths = params.bandwidths;
    sweep.faultRates = params.faultRates;
    sweep.purificationLevels = params.purificationLevels;
    sweep.linkFidelities = params.linkFidelities;
    sweep.computeFractions = params.computeFractions;
    sweep.memoryCodeLevels = params.memoryCodeLevels;
    sweep.seeds = params.seeds;
    partition.points
        = network::enumerateCoSimSweep(params.workloads.size(), sweep);
    for (std::size_t i = 0; i < partition.points.size(); ++i)
        partition.chunks.push_back({i, i, 0, 0});
    return partition;
}

bool
chunkInShard(std::size_t chunk_index, int shard_index, int shard_count)
{
    qla_assert(shard_count >= 1 && shard_index >= 0
               && shard_index < shard_count);
    return chunk_index % static_cast<std::size_t>(shard_count)
        == static_cast<std::size_t>(shard_index);
}

} // namespace qla::serve
