/**
 * @file
 * cosim-mesh: network::runCoSimSweep over the apps/ QCLA adder,
 * Toffoli network and banded QFT, swept over bandwidth, in three
 * slices -- clean; noisy (link faults, purification, a delivery
 * threshold: retry and abandonment run); CQLA split (compute fraction
 * < 1: fetch and eviction run).
 *
 * One operation is one slice sweep (threads = workers); operations
 * cycle through the slices. The traced run drives the same points
 * through the calls runCoSimSweep makes -- sim::ShotScheduler::run and
 * one ProgramCoSimulator::run per point -- and must reproduce every
 * report field for field.
 */

#include <algorithm>
#include <optional>

#include "apps/qcla.h"
#include "apps/qft.h"
#include "apps/toffoli.h"
#include "checks.h"
#include "network/cosim.h"
#include "sim/shot_scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace {

using qla::network::CoSimSweepConfig;
using qla::network::CoSimSweepPoint;
using qla::network::ProgramWorkload;

enum class App { Qcla, Toffoli, Qft };

struct AppSize
{
    App app;
    std::size_t size;
    std::size_t depth; ///< Toffoli layers (unused otherwise).
};

struct Slice
{
    const char *name;
    std::vector<AppSize> apps;
    CoSimSweepConfig config; ///< seeds filled per operation.
};

std::vector<Slice>
slices()
{
    std::vector<Slice> out;

    Slice clean{"clean",
                {{App::Qcla, 128, 0}, {App::Toffoli, 60, 42},
                 {App::Qft, 128, 0}},
                {}};
    clean.config.bandwidths = {1, 2, 3, 4};
    out.push_back(clean);

    Slice noisy{"noisy",
                {{App::Qcla, 32, 0}, {App::Toffoli, 15, 12},
                 {App::Qft, 128, 0}},
                {}};
    noisy.config.bandwidths = {3};
    noisy.config.faultRates = {0.02};
    noisy.config.purificationLevels = {0, 1};
    noisy.config.linkFidelities = {0.96};
    noisy.config.base.fidelity.opError = 1e-4;
    noisy.config.base.fidelity.deliveryThreshold = 0.88;
    noisy.config.base.fidelity.retryBudget = 2;
    out.push_back(noisy);

    Slice cqla{"cqla",
               {{App::Qcla, 32, 0}, {App::Toffoli, 27, 21},
                {App::Qft, 128, 0}},
               {}};
    cqla.config.bandwidths = {2};
    cqla.config.computeFractions = {0.5, 0.2};
    cqla.config.memoryCodeLevels = {1};
    out.push_back(cqla);
    return out;
}

qla::circuit::QuantumCircuit
generate(const AppSize &app)
{
    switch (app.app) {
    case App::Qcla:
        return qla::apps::qclaAdderCircuit(app.size);
    case App::Toffoli:
        return qla::apps::toffoliNetworkCircuit(app.size, app.depth);
    case App::Qft:
    default:
        return qla::apps::bandedQftCircuit(
            app.size, qla::apps::qftBandWidth(app.size));
    }
}

/** Circuits + lowering of every slice; optionally traced. */
std::vector<std::vector<ProgramWorkload>>
lowerAll(const std::vector<Slice> &all, Tracer *tracer, std::uint32_t group)
{
    std::vector<std::vector<ProgramWorkload>> lowered;
    Tracer::Scope root(tracer, 0, SpanName::BenchOp, group);
    for (const Slice &slice : all) {
        lowered.emplace_back();
        for (const AppSize &app : slice.apps) {
            std::optional<qla::circuit::QuantumCircuit> circuit;
            {
                Tracer::Scope span(tracer, 0, SpanName::AppsCircuit, group);
                circuit.emplace(generate(app));
            }
            Tracer::Scope span(tracer, 0, SpanName::NetworkLower, group);
            lowered.back().emplace_back(std::move(*circuit));
        }
    }
    return lowered;
}

CoSimSweepConfig
opConfig(const Slice &slice, std::uint64_t seed, int workers)
{
    CoSimSweepConfig config = slice.config;
    // Two seeds per point: twice the jobs, so the slow points share the
    // workers instead of one of them setting the makespan alone.
    config.seeds = {seed % 1000003 + 1, (seed >> 32) % 1000003 + 1};
    config.threads = workers;
    return config;
}

/** The point list of runCoSimSweep, in its nesting order. */
std::vector<CoSimSweepPoint>
enumeratePoints(std::size_t workloads, const CoSimSweepConfig &config)
{
    std::vector<CoSimSweepPoint> points;
    for (std::size_t w = 0; w < workloads; ++w)
        for (const int bandwidth : config.bandwidths)
            for (const double fault_rate : config.faultRates)
                for (const int level : config.purificationLevels)
                    for (const double fidelity : config.linkFidelities)
                        for (const double fraction : config.computeFractions)
                            for (const int mem_level :
                                 config.memoryCodeLevels)
                                for (const std::uint64_t seed : config.seeds) {
                                    CoSimSweepPoint point;
                                    point.workload = w;
                                    point.bandwidth = bandwidth;
                                    point.faultRate = fault_rate;
                                    point.purificationLevel = level;
                                    point.linkFidelity = fidelity;
                                    point.computeFraction = fraction;
                                    point.memoryLevel = mem_level;
                                    point.seed = seed;
                                    points.push_back(point);
                                }
    return points;
}

struct TracedCoSim
{
    std::vector<CoSimSweepPoint> points;
    double rootSeconds = 0.0;
    double slowestPoint = 0.0;
};

/** Host-time gaps between WindowProbe callbacks, per worker. */
using WindowGaps = std::vector<std::vector<double>>;

TracedCoSim
tracedSweep(const std::vector<ProgramWorkload> &workloads,
            const CoSimSweepConfig &config, int workers, Tracer &tracer,
            std::uint32_t group, WindowGaps *gaps)
{
    TracedCoSim out;
    const double t0 = tracer.now();
    Tracer::Scope root(&tracer, 0, SpanName::BenchOp, group);
    out.points = enumeratePoints(workloads.size(), config);
    std::vector<double> point_seconds(out.points.size(), 0.0);
    std::optional<qla::sim::ShotScheduler> scheduler;
    {
        Tracer::Scope span(&tracer, 0, SpanName::SimStart, group);
        scheduler.emplace(workers);
    }
    {
        Tracer::Scope run(&tracer, 0, SpanName::SimRun, group);
        const std::int64_t run_id = run.id();
        scheduler->run(out.points.size(), [&](std::size_t job, int worker) {
            Tracer::Scope job_span(&tracer, worker, SpanName::SimJob, group,
                                   run_id);
            CoSimSweepPoint &point = out.points[job];
            qla::network::CoSimConfig cosim = config.base;
            cosim.bandwidth = point.bandwidth;
            cosim.seed = point.seed;
            cosim.linkFaults = config.base.linkFaults.atRate(point.faultRate);
            cosim.fidelity.elementaryFidelity = point.linkFidelity;
            cosim.fidelity.purificationLevel = point.purificationLevel;
            cosim.memory.computeFraction = point.computeFraction;
            cosim.memory.memoryCodeLevel = point.memoryLevel;
            qla::network::ProgramCoSimulator simulator(
                workloads[point.workload], cosim);
            Tracer::Scope span(&tracer, worker, SpanName::NetworkRun, group);
            const auto start = Clock::now();
            if (gaps) {
                std::vector<double> &mine = (*gaps)[worker];
                auto last = start;
                point.report = simulator.run(
                    [&](const qla::network::WindowProbe &) {
                        const auto now = Clock::now();
                        if (last != start)
                            mine.push_back(
                                std::chrono::duration<double>(now - last)
                                    .count());
                        last = now;
                    });
            } else {
                point.report = simulator.run();
            }
            point_seconds[job] = secondsSince(start);
        });
    }
    {
        Tracer::Scope span(&tracer, 0, SpanName::SimStop, group);
        scheduler.reset();
    }
    out.rootSeconds = tracer.now() - t0;
    out.slowestPoint
        = *std::max_element(point_seconds.begin(), point_seconds.end());
    return out;
}

Problems
checkSweep(const std::vector<CoSimSweepPoint> &points)
{
    Problems problems;
    for (const CoSimSweepPoint &point : points)
        for (auto &p : checkCoSimReport(point.report))
            problems.push_back(p);
    return problems;
}

double
windowsOf(const std::vector<CoSimSweepPoint> &points)
{
    double windows = 0.0;
    for (const CoSimSweepPoint &point : points)
        windows += static_cast<double>(point.report.windows);
    return windows;
}

/** Simulated counts of the first cycle (one sweep per slice). */
void
setCounts(Result &result,
          const std::vector<std::vector<CoSimSweepPoint>> &cycle)
{
    double windows = 0, stall = 0, requested = 0, dropped = 0, retries = 0,
           reroutes = 0, deferred = 0, misses = 0;
    for (const auto &points : cycle)
        for (const CoSimSweepPoint &point : points) {
            const auto &r = point.report;
            windows += static_cast<double>(r.windows);
            stall += static_cast<double>(r.stallWindows);
            requested += static_cast<double>(r.pairsRequested);
            dropped += static_cast<double>(r.pairsDropped);
            retries += static_cast<double>(r.retryAttempts);
            reroutes += static_cast<double>(r.backoffReroutes);
            deferred += static_cast<double>(r.deferredPairWindows);
            misses += static_cast<double>(r.memMisses);
        }
    result.set("network.windows", windows, "count");
    result.set("network.stall_windows", stall, "count");
    result.set("network.pairs_requested", requested, "count");
    result.set("network.pairs_dropped", dropped, "count");
    result.set("network.retry_attempts", retries, "count");
    result.set("network.reroutes", reroutes, "count");
    result.set("network.deferred_pair_windows", deferred, "count");
    result.set("network.mem_misses", misses, "count");
}

void
runUntraced(const Options &options, Result &result)
{
    const std::vector<Slice> all = slices();
    // Set-up is timed before the first operation and again after every
    // cycle, so its median spans the same stretch of the run as the
    // operations' (see fig7.cc).
    std::vector<double> setup;
    std::vector<std::vector<ProgramWorkload>> lowered;
    auto set_up = [&] {
        const auto start = Clock::now();
        lowered = lowerAll(all, nullptr, 0);
        setup.push_back(secondsSince(start));
    };
    for (int rep = 0; rep < 3; ++rep)
        set_up();
    for (std::size_t s = 0; s < all.size(); ++s)
        qla::network::runCoSimSweep(
            lowered[s], opConfig(all[s], options.seed, options.workers));

    std::vector<double> latency, rate;
    std::vector<std::vector<CoSimSweepPoint>> first_cycle;
    double cycle_windows = 0.0, cycle_seconds = 0.0;
    const auto start = Clock::now();
    for (std::uint64_t op = 0;
         op < all.size() || secondsSince(start) < options.seconds; ++op) {
        const std::size_t s = op % all.size();
        const auto t0 = Clock::now();
        const std::vector<CoSimSweepPoint> points
            = qla::network::runCoSimSweep(
                lowered[s],
                opConfig(all[s], mixSeed(options.seed, op), options.workers));
        const double seconds = secondsSince(t0);
        latency.push_back(seconds);
        cycle_windows += windowsOf(points);
        cycle_seconds += seconds;
        result.operation(checkSweep(points));
        if (op < all.size())
            first_cycle.push_back(points);
        if (s + 1 == all.size()) {
            rate.push_back(cycle_windows / cycle_seconds);
            cycle_windows = cycle_seconds = 0.0;
            set_up();
        }
    }
    // Thread-count invariance of the first cycle.
    for (std::size_t s = 0; s < all.size(); ++s)
        result.operation(compareCoSimSweeps(
            first_cycle[s],
            qla::network::runCoSimSweep(
                lowered[s], opConfig(all[s], mixSeed(options.seed, s), 1)),
            std::string(all[s].name) + " slice at 1 worker vs "
                + std::to_string(options.workers)));

    setEndToEnd(result, setup, latency, rate, "windows_per_s");
}

void
runTraced(const Options &options, Result &result)
{
    const std::vector<Slice> all = slices();
    Tracer setup_tracer(1);
    std::vector<std::vector<ProgramWorkload>> lowered;
    for (int rep = 0; rep < 15; ++rep)
        lowered = lowerAll(all, &setup_tracer, static_cast<std::uint32_t>(rep));
    const SpanAccounting setup_acc = accountSpans(setup_tracer.spans(), 1);

    Tracer tracer(options.workers);
    Tracer serial(1);
    WindowGaps gaps(options.workers);
    std::vector<double> untraced, traced, overhead, speedups, slowest;
    std::vector<std::vector<CoSimSweepPoint>> first_cycle;
    double pairs = 0.0;

    for (std::size_t s = 0; s < all.size(); ++s)
        qla::network::runCoSimSweep(
            lowered[s], opConfig(all[s], options.seed, options.workers));
    const auto start = Clock::now();
    for (std::uint64_t op = 0;
         op < all.size() || secondsSince(start) < options.seconds; ++op) {
        const std::size_t s = op % all.size();
        const CoSimSweepConfig config
            = opConfig(all[s], mixSeed(options.seed, op), options.workers);
        const auto t0 = Clock::now();
        const std::vector<CoSimSweepPoint> points
            = qla::network::runCoSimSweep(lowered[s], config);
        untraced.push_back(secondsSince(t0));

        const TracedCoSim replica
            = tracedSweep(lowered[s], config, options.workers, tracer,
                          static_cast<std::uint32_t>(op), &gaps);
        traced.push_back(replica.rootSeconds);
        overhead.push_back(replica.rootSeconds / untraced.back() - 1.0);
        slowest.push_back(replica.slowestPoint);
        for (const CoSimSweepPoint &point : points)
            pairs += static_cast<double>(point.report.pairsRequested);
        Problems problems = checkSweep(points);
        for (auto &p : compareCoSimSweeps(points, replica.points,
                                          "traced replica vs runCoSimSweep"))
            problems.push_back(p);
        if (op < all.size()) {
            first_cycle.push_back(points);
            const TracedCoSim one = tracedSweep(
                lowered[s], config, 1, serial,
                static_cast<std::uint32_t>(op), nullptr);
            speedups.push_back(one.rootSeconds / replica.rootSeconds);
            for (auto &p : compareCoSimSweeps(points, one.points,
                                              "1-worker traced replica"))
                problems.push_back(p);
        }
        result.operation(problems);
    }

    tracer.dump(options.outDir + "/spans-" + options.workload + "-"
                + std::to_string(options.seed) + ".csv");
    const SpanAccounting acc = accountSpans(tracer.spans(), options.workers);
    const double ops = static_cast<double>(traced.size());
    const std::size_t n = traced.size();
    zeroLayerMetrics(result);
    auto self = [](const SpanAccounting &a, SpanName name) {
        const auto it = a.selfTime.find(name);
        return it == a.selfTime.end() ? 0.0 : it->second;
    };
    const double reps = static_cast<double>(setup_acc.roots);
    result.set("apps.circuit_s",
               self(setup_acc, SpanName::AppsCircuit) / reps, "s",
               setup_acc.roots);
    result.set("network.lower_s",
               self(setup_acc, SpanName::NetworkLower) / reps, "s",
               setup_acc.roots);
    const double run_s = self(acc, SpanName::NetworkRun);
    result.set("network.run_s", run_s / ops, "s", n);
    result.set("network.ns_per_pair", run_s / pairs * 1e9, "ns", n);
    result.set("network.slowest_point_s", median(slowest), "s", n);
    std::vector<double> all_gaps;
    for (const auto &mine : gaps)
        all_gaps.insert(all_gaps.end(), mine.begin(), mine.end());
    result.set("network.window_us_p50", quantile(all_gaps, 0.5) * 1e6, "us",
               all_gaps.size());
    result.set("network.window_us_p90", quantile(all_gaps, 0.9) * 1e6, "us",
               all_gaps.size());
    setCounts(result, first_cycle);
    setSchedulerMetrics(result, acc, speedups);
    result.set("bench.trace_overhead_frac", median(overhead), "fraction", n);
    result.set("bench.coverage_frac", acc.covered / acc.rootCapacity,
               "fraction", n);
}

} // namespace

void
runCoSimMesh(const Options &options, Result &result)
{
    if (options.trace)
        runTraced(options, result);
    else
        runUntraced(options, result);
}

} // namespace perfbench
