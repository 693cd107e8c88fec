#include <cstdio>
#include <utility>

#include "workloads.h"

namespace perfbench {

namespace {

/** Every per-layer metric with its unit (BENCHMARK.json per_layer). */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"arq.record_s", "s"},
    {"arq.recordings", "count"},
    {"arq.replay_s", "s"},
    {"arq.l1_ns_per_shot", "ns"},
    {"arq.l2_ns_per_shot", "ns"},
    {"arq.prep_attempts_per_shot", "count"},
    {"arq.syndrome_rate", "fraction"},
    {"arq.failures", "count"},
    {"sim.busy_frac", "fraction"},
    {"sim.straggler_s", "s"},
    {"sim.max_job_frac", "fraction"},
    {"sim.jobs", "count"},
    {"sim.speedup", "x"},
    {"apps.circuit_s", "s"},
    {"network.lower_s", "s"},
    {"network.run_s", "s"},
    {"network.ns_per_pair", "ns"},
    {"network.slowest_point_s", "s"},
    {"network.window_us_p50", "us"},
    {"network.window_us_p90", "us"},
    {"network.windows", "count"},
    {"network.stall_windows", "count"},
    {"network.pairs_requested", "count"},
    {"network.pairs_dropped", "count"},
    {"network.retry_attempts", "count"},
    {"network.reroutes", "count"},
    {"network.deferred_pair_windows", "count"},
    {"network.mem_misses", "count"},
    {"bench.trace_overhead_frac", "fraction"},
    {"bench.coverage_frac", "fraction"},
};

/** The serve layer's metrics. Only serve-queue reaches that layer, and
 *  BENCHMARK.json does not list serve-queue (see README.md), so these
 *  names are not in its per_layer list either. */
const std::pair<const char *, const char *> kServeMetrics[] = {
    {"serve.partition_us", "us"},
    {"serve.ckpt_save_ms", "ms"},
    {"serve.ckpt_load_ms", "ms"},
    {"serve.ckpt_bytes", "bytes"},
    {"serve.trace_recordings", "count"},
    {"serve.trace_replays", "count"},
    {"serve.exp_hit_ratio", "fraction"},
    {"serve.workload_lowerings", "count"},
    {"serve.result_hits", "count"},
    {"serve.cold_jobs", "count"},
    {"serve.warm_jobs", "count"},
    {"serve.hit_jobs", "count"},
    {"serve.cold_job_ms_p50", "ms"},
    {"serve.cold_job_ms_p90", "ms"},
    {"serve.warm_job_ms_p50", "ms"},
    {"serve.warm_job_ms_p90", "ms"},
    {"serve.hit_job_us_p50", "us"},
    {"serve.hit_job_us_p90", "us"},
};

} // namespace

void
zeroLayerMetrics(Result &result, bool serve)
{
    for (const auto &[name, unit] : kLayerMetrics)
        result.set(name, 0.0, unit, 0);
    if (serve)
        for (const auto &[name, unit] : kServeMetrics)
            result.set(name, 0.0, unit, 0);
}

void
printServeMetrics()
{
    for (const auto &[name, unit] : kServeMetrics)
        std::printf("%s %s\n", name, unit);
}

void
setEndToEnd(Result &result, const std::vector<double> &setup_s,
            const std::vector<double> &op_seconds,
            const std::vector<double> &work_per_s,
            const char *work_unit_note)
{
    const std::size_t n = op_seconds.size();
    result.set("setup_s", median(setup_s), "s", setup_s.size());
    result.set("work_per_s", median(work_per_s), "1/s", work_per_s.size());
    result.set("op_ms_p50", quantile(op_seconds, 0.5) * 1e3, "ms", n);
    result.set("op_ms_p90", quantile(op_seconds, 0.9) * 1e3, "ms", n);
    result.set("peak_rss_mb", peakRssMb(), "MB");
    result.note(work_unit_note, median(work_per_s), "1/s",
                work_per_s.size());
}

void
setSchedulerMetrics(Result &result, const SpanAccounting &acc,
                    const std::vector<double> &speedups)
{
    const double runs = acc.runs ? static_cast<double>(acc.runs) : 1.0;
    result.set("sim.busy_frac",
               acc.schedulerCapacity > 0.0
                   ? acc.jobTime / acc.schedulerCapacity
                   : 0.0,
               "fraction", acc.runs);
    result.set("sim.straggler_s", acc.straggler / runs, "s", acc.runs);
    result.set("sim.max_job_frac", acc.maxJobFrac / runs, "fraction",
               acc.runs);
    result.set("sim.jobs", static_cast<double>(acc.jobs) / runs, "count",
               acc.runs);
    result.set("sim.speedup", median(speedups), "x", speedups.size());
}

} // namespace perfbench
