/**
 * @file
 * Record/replay caches for the sweep service.
 *
 * Recording is the expensive, once-per-configuration work: building a
 * BatchedLogicalQubitExperiment records the level-1/level-2 frame
 * traces for one noise point (cached per worker by arq::
 * ExperimentCache), and constructing a ProgramWorkload lowers a circuit
 * to its logical-gate DAG (cached here). Both are pure functions of
 * their configuration, so the service caches them and replays on
 * repeat queries -- a warm-cache sweep re-simulates shots against the
 * recorded traces without re-recording them (the bench fixture
 * bench_sweep_service.cc measures exactly this cold-record vs
 * warm-replay gap).
 *
 * Cache keys are exact: the workload cache keys on the WorkloadSpec
 * token. Replayed state is the recorded state -- cache hits cannot
 * change a result byte, which the warm-vs-cold identity test in
 * tests/test_sweep_service.cc asserts.
 */

#ifndef QLA_SERVE_ENGINE_CACHE_H
#define QLA_SERVE_ENGINE_CACHE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "network/program_workload.h"
#include "serve/job_spec.h"

namespace qla::serve {

/** Shared record/replay tallies (how much work the caches saved). */
struct CacheCounters
{
    std::uint64_t traceRecordings = 0; ///< Experiments constructed.
    std::uint64_t traceReplays = 0;    ///< Experiment cache hits.
    std::uint64_t workloadLowerings = 0; ///< Circuits lowered.
    std::uint64_t workloadReplays = 0;   ///< Workload cache hits.
};

/** Cache of lowered program workloads, keyed by WorkloadSpec token. */
class WorkloadCache
{
  public:
    /** The lowered workload for @p spec, lowering on first use. */
    std::shared_ptr<const network::ProgramWorkload>
    acquire(const WorkloadSpec &spec);

    CacheCounters counters() const;
    void resetCounters();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const network::ProgramWorkload>>
        cache_;
    CacheCounters counters_;
};

/** Lower @p spec to its circuit (uncached; WorkloadCache wraps this). */
network::ProgramWorkload lowerWorkload(const WorkloadSpec &spec);

} // namespace qla::serve

#endif // QLA_SERVE_ENGINE_CACHE_H
