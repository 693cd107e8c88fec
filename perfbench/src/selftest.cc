/**
 * @file
 * Self-test of the benchmark's correctness checks: each check passes
 * on a real (small) result and fails once that result is corrupted.
 * Metric names and replica identity are covered by perfbench/run.py
 * --selftest, which runs every workload at its smallest size.
 */

#include <cstdio>
#include <functional>

#include "arq/monte_carlo.h"
#include "apps/qcla.h"
#include "apps/toffoli.h"
#include "checks.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Tally
{
    int failed = 0;
    int passed = 0;

    /** @p expect_pass: the check must report nothing (true) or at
     *  least one problem (false). */
    void expect(const char *name, const Problems &problems,
                bool expect_pass)
    {
        const bool ok = problems.empty() == expect_pass;
        std::fprintf(stderr, "selftest %-58s %s\n", name,
                     ok ? "ok" : "FAILED");
        if (!ok) {
            ++failed;
            for (const std::string &p : problems)
                std::fprintf(stderr, "    %s\n", p.c_str());
        } else {
            ++passed;
        }
    }
};

void
fig7Checks(Tally &tally, int workers)
{
    using qla::arq::ThresholdPoint;
    const std::vector<double> tail = {4.0e-3, 6.0e-3, 8.0e-3};
    qla::arq::McRunOptions options;
    options.threads = workers;
    const std::vector<ThresholdPoint> points
        = qla::arq::thresholdSweep(tail, 1024, 7, options);
    options.threads = 1;
    const std::vector<ThresholdPoint> serial
        = qla::arq::thresholdSweep(tail, 1024, 7, options);

    tally.expect("fig7 tail sweep passes", checkFig7Sweep(tail, points,
                                                          false, true),
                 true);
    auto corrupted = points;
    std::swap(corrupted[1].level1Failure, corrupted[1].level2Failure);
    tally.expect("fig7 tail with L1/L2 swapped at one point fails",
                 checkFig7Sweep(tail, corrupted, false, true), false);
    corrupted = points;
    corrupted[0].level1Failure = 1.5;
    tally.expect("fig7 rate outside [0, 1] fails",
                 checkFig7Sweep(tail, corrupted, false, false), false);
    corrupted = points;
    corrupted.pop_back();
    tally.expect("fig7 missing point fails",
                 checkFig7Sweep(tail, corrupted, false, false), false);

    // Crossing window: the paper's curve shape crosses inside the band;
    // the same curve with level 2 raised everywhere does not cross.
    const std::vector<double> window = {1.0e-3, 2.0e-3, 3.0e-3};
    std::vector<ThresholdPoint> curve = {{1.0e-3, 4e-4, 0, 1e-4, 0},
                                         {2.0e-3, 9e-4, 0, 9e-4, 0},
                                         {3.0e-3, 2e-3, 0, 6e-3, 0}};
    tally.expect("fig7 crossing inside the paper band passes",
                 checkFig7Sweep(window, curve, true, false), true);
    for (ThresholdPoint &point : curve)
        point.level2Failure += 1e-2;
    tally.expect("fig7 curve without a crossing fails",
                 checkFig7Sweep(window, curve, true, false), false);

    tally.expect("fig7 1 vs N workers identical",
                 compareSweeps(points, serial, "1 vs N"), true);
    corrupted = serial;
    corrupted[2].level2Error = std::nextafter(corrupted[2].level2Error, 1.0);
    tally.expect("fig7 one-ulp difference fails",
                 compareSweeps(points, corrupted, "1 vs N"), false);
}

void
cosimChecks(Tally &tally, int workers)
{
    using qla::network::CoSimSweepPoint;
    std::vector<qla::network::ProgramWorkload> programs;
    programs.emplace_back(qla::apps::qclaAdderCircuit(32));
    programs.emplace_back(qla::apps::toffoliNetworkCircuit(15, 12));
    qla::network::CoSimSweepConfig config;
    config.bandwidths = {2, 3};
    config.faultRates = {0.02};
    config.linkFidelities = {0.96};
    config.computeFractions = {1.0, 0.2};
    config.base.fidelity.opError = 1e-4;
    config.base.fidelity.deliveryThreshold = 0.88;
    config.base.fidelity.retryBudget = 2;
    config.threads = workers;
    const std::vector<CoSimSweepPoint> points
        = qla::network::runCoSimSweep(programs, config);
    config.threads = 1;
    const std::vector<CoSimSweepPoint> serial
        = qla::network::runCoSimSweep(programs, config);

    Problems all;
    bool dropped = false, misses = false;
    for (const CoSimSweepPoint &point : points) {
        for (auto &p : checkCoSimReport(point.report))
            all.push_back(p);
        dropped |= point.report.pairsDropped > 0;
        misses |= point.report.memMisses > 0;
    }
    tally.expect("cosim noisy + split sweep passes its ledgers", all, true);
    tally.expect("cosim sweep exercises drops and memory misses",
                 dropped && misses ? Problems{} : Problems{"no drops/misses"},
                 true);

    const auto &base = points.back().report;
    using Corrupt = std::function<void(qla::network::CoSimReport &)>;
    const std::pair<const char *, Corrupt> corruptions[] = {
        {"cosim incomplete run fails",
         [](auto &r) { r.completed = false; }},
        {"cosim extra dropped pair fails",
         [](auto &r) { ++r.pairsDropped; }},
        {"cosim lost pair not in drops fails",
         [](auto &r) { ++r.pairsLostInTransit; }},
        {"cosim per-gate stall off by one fails",
         [](auto &r) { ++r.perGate.front().stallWindows; }},
        {"cosim per-gate retry off by one fails",
         [](auto &r) { ++r.perGate.back().retryAttempts; }},
        {"cosim cache hit not in touches fails",
         [](auto &r) { ++r.memHits; }},
    };
    for (const auto &[name, corrupt] : corruptions) {
        qla::network::CoSimReport report = base;
        corrupt(report);
        tally.expect(name, checkCoSimReport(report), false);
    }

    tally.expect("cosim 1 vs N workers identical",
                 compareCoSimSweeps(points, serial, "1 vs N"), true);
    auto corrupted = serial;
    ++corrupted.front().report.deferredPairWindows;
    tally.expect("cosim one counter differing fails",
                 compareCoSimSweeps(points, corrupted, "1 vs N"), false);
}

void
serveChecks(Tally &tally, int workers)
{
    qla::serve::SweepService service;
    qla::serve::SweepRequest request;
    request.name = "selftest";
    request.spec.threshold.physicalErrors = {2.0e-3, 3.0e-3};
    request.spec.threshold.shots = 512;
    request.options.workers = workers;
    service.submit(request);
    service.submit(request);
    const std::vector<qla::serve::SweepResponse> replies = service.drain();
    tally.expect("serve repeat replays from the result cache",
                 replies[1].fromResultCache ? Problems{}
                                            : Problems{"not cached"},
                 true);
    tally.expect("serve cold and result-cache bytes identical",
                 compareBytes(replies[0].output, replies[1].output, "hit"),
                 true);
    std::string corrupted = replies[1].output;
    corrupted[corrupted.size() / 2] ^= 1;
    tally.expect("serve one flipped byte fails",
                 compareBytes(replies[0].output, corrupted, "hit"), false);
}

} // namespace

int
runSelfTest(const Options &options)
{
    Tally tally;
    fig7Checks(tally, options.workers);
    cosimChecks(tally, options.workers);
    serveChecks(tally, options.workers);
    std::fprintf(stderr, "selftest: %d passed, %d failed\n", tally.passed,
                 tally.failed);
    return tally.failed;
}

} // namespace perfbench
