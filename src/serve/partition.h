/**
 * @file
 * Deterministic task partitioning and sharding for sweep jobs.
 *
 * A job decomposes into an ordered chunk list that is a pure function
 * of its spec -- the same list on every machine, every run, every
 * worker count. The decomposition is the engine's own: threshold jobs
 * take arq::planThresholdSweep's (point, level) tasks and aligned
 * shot-range chunks, co-simulation jobs take network::
 * enumerateCoSimSweep's points, one chunk per point. So a served job
 * runs exactly the tasks of the in-process sweep, in the same order.
 *
 * The chunk index is the unit of everything downstream: checkpoints
 * record per-chunk partials by index, shards own the round-robin
 * residue classes of the index space, and final assembly always merges
 * partials in ascending index order -- which is why a resumed, sharded
 * or differently-threaded run reassembles byte-identical output.
 */

#ifndef QLA_SERVE_PARTITION_H
#define QLA_SERVE_PARTITION_H

#include <vector>

#include "arq/monte_carlo.h"
#include "network/cosim.h"
#include "serve/job_spec.h"

namespace qla::serve {

/**
 * One schedulable, checkpointable unit. Threshold jobs: a shot range
 * [firstShot, firstShot + shotCount) of tasks[task]. CoSim jobs: the
 * whole run points[task] (firstShot/shotCount unused).
 */
using SweepChunk = arq::ShotChunk;

/** The full deterministic decomposition of one job. */
struct JobPartition
{
    std::vector<arq::SweepTask> tasks; ///< Threshold jobs only.
    /** CoSim jobs only: the sweep's points (reports empty) and the
     *  sweep configuration their run configs derive from. */
    std::vector<network::CoSimSweepPoint> points;
    network::CoSimSweepConfig cosim;
    std::vector<SweepChunk> chunks; ///< Ascending index order.
};

/** Decompose @p spec; pure function of the spec. */
JobPartition partitionJob(const SweepJobSpec &spec);

/**
 * Round-robin shard ownership: shard s of n owns the chunks whose
 * index ≡ s (mod n). Round-robin (rather than contiguous blocks)
 * balances the expensive far-above-threshold points across shards.
 */
bool chunkInShard(std::size_t chunk_index, int shard_index,
                  int shard_count);

} // namespace qla::serve

#endif // QLA_SERVE_PARTITION_H
