/**
 * @file
 * The benchmark's workloads. Each runs its operations for
 * Options::seconds, checks every result, and fills Result with the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run). See perfbench/README.md for the metric definitions.
 */

#ifndef QLA_PERFBENCH_WORKLOADS_H
#define QLA_PERFBENCH_WORKLOADS_H

#include "harness.h"

namespace perfbench {

/** fig7-window (tail = false) and fig7-tail (tail = true). */
void runFig7(const Options &options, bool tail, Result &result);
void runCoSimMesh(const Options &options, Result &result);
void runServeQueue(const Options &options, Result &result);

/** Check-trip tests and replica identity at the smallest size;
 *  returns the number of failed self-test cases. */
int runSelfTest(const Options &options);

/** Per-layer metrics every traced run reports, plus the serve layer's
 *  when @p serve; layers a workload does not reach are reported as 0. */
void zeroLayerMetrics(Result &result, bool serve = false);

/** Prints the serve layer's metrics, one "name unit" line each. */
void printServeMetrics();

/** Sets setup_s, the three latency/throughput metrics and peak_rss_mb
 *  from the untraced samples. */
void setEndToEnd(Result &result, const std::vector<double> &setup_s,
                 const std::vector<double> &op_seconds,
                 const std::vector<double> &work_per_s,
                 const char *work_unit_note);

/** Derived span metrics shared by the scheduler-driven workloads. */
void setSchedulerMetrics(Result &result, const SpanAccounting &acc,
                         const std::vector<double> &speedups);

} // namespace perfbench

#endif // QLA_PERFBENCH_WORKLOADS_H
