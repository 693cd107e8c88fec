#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

std::string
format(const char *fmt, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, a, b, c);
    return buf;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
validRate(double rate)
{
    return std::isfinite(rate) && rate >= 0.0 && rate <= 1.0;
}

} // namespace

Problems
checkFig7Sweep(const std::vector<double> &physical_errors,
               const std::vector<qla::arq::ThresholdPoint> &points,
               bool crossing_window, bool above_threshold)
{
    Problems problems;
    if (points.size() != physical_errors.size()) {
        problems.push_back("fig7: sweep returned the wrong point count");
        return problems;
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &point = points[i];
        if (!sameBits(point.physicalError, physical_errors[i]))
            problems.push_back(format("fig7: point %g reports p=%g",
                                      physical_errors[i],
                                      point.physicalError));
        if (!validRate(point.level1Failure)
            || !validRate(point.level2Failure)
            || !std::isfinite(point.level1Error)
            || !std::isfinite(point.level2Error))
            problems.push_back(format("fig7: point %g has a rate outside "
                                      "[0, 1]",
                                      point.physicalError));
        if (above_threshold && !(point.level2Failure > point.level1Failure))
            problems.push_back(format("fig7: above threshold at p=%g but "
                                      "L2=%g <= L1=%g",
                                      point.physicalError,
                                      point.level2Failure,
                                      point.level1Failure));
    }
    if (crossing_window) {
        const double threshold = qla::arq::estimateThreshold(points);
        if (!(threshold >= kPaperThresholdLow
              && threshold <= kPaperThresholdHigh)) {
            std::string curve;
            for (const auto &point : points)
                curve += format(" p=%g:L1=%g,L2=%g", point.physicalError,
                                point.level1Failure, point.level2Failure);
            problems.push_back(format("fig7: crossing estimate %g outside "
                                      "the paper's (2.1 +- 1.8)e-3;",
                                      threshold)
                               + curve);
        }
    }
    return problems;
}

Problems
compareSweeps(const std::vector<qla::arq::ThresholdPoint> &a,
              const std::vector<qla::arq::ThresholdPoint> &b,
              const std::string &what)
{
    Problems problems;
    if (a.size() != b.size()) {
        problems.push_back("fig7: " + what + ": point counts differ");
        return problems;
    }
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i].physicalError, b[i].physicalError)
            || !sameBits(a[i].level1Failure, b[i].level1Failure)
            || !sameBits(a[i].level1Error, b[i].level1Error)
            || !sameBits(a[i].level2Failure, b[i].level2Failure)
            || !sameBits(a[i].level2Error, b[i].level2Error))
            problems.push_back("fig7: " + what + ": point "
                               + std::to_string(i) + " differs");
    return problems;
}

Problems
checkCoSimReport(const qla::network::CoSimReport &r)
{
    Problems problems;
    auto require = [&](bool ok, const char *identity) {
        if (!ok)
            problems.push_back(std::string("cosim: ") + identity);
    };
    require(r.completed, "run did not complete");
    require(r.pairsRequested
                == r.pairsDelivered() + r.pairsDropped + r.pairsAbandoned,
            "requested != delivered + dropped + abandoned");
    require(r.pairsDropped == r.pairsLostInTransit + r.pairsRejectedFidelity,
            "dropped != lost + rejected");
    require(r.operandTouches == r.memHits + r.memMisses,
            "operandTouches != memHits + memMisses");
    std::uint64_t stall = 0, retries = 0, penalty = 0, abandoned = 0;
    for (const auto &gate : r.perGate) {
        stall += gate.stallWindows;
        retries += gate.retryAttempts;
        penalty += gate.penaltyWindows;
        abandoned += gate.pairsAbandoned;
    }
    require(r.perGate.size() == r.gates, "perGate size != gates");
    require(stall == r.stallWindows, "perGate stall sum != stallWindows");
    require(retries == r.retryAttempts,
            "perGate retry sum != retryAttempts");
    require(penalty == r.fallbackPenaltyWindows,
            "perGate penalty sum != fallbackPenaltyWindows");
    require(abandoned == r.pairsAbandoned,
            "perGate abandoned sum != pairsAbandoned");
    return problems;
}

namespace {

bool
sameReport(const qla::network::CoSimReport &a,
           const qla::network::CoSimReport &b)
{
    if (a.perGate.size() != b.perGate.size())
        return false;
    for (std::size_t g = 0; g < a.perGate.size(); ++g) {
        const auto &x = a.perGate[g];
        const auto &y = b.perGate[g];
        if (x.stallWindows != y.stallWindows
            || x.retryAttempts != y.retryAttempts
            || x.penaltyWindows != y.penaltyWindows
            || x.pairsAbandoned != y.pairsAbandoned)
            return false;
    }
    return a.completed == b.completed && a.windows == b.windows
        && a.warmupWindows == b.warmupWindows
        && sameBits(a.makespan, b.makespan)
        && a.criticalPathWindows == b.criticalPathWindows
        && a.gates == b.gates && a.interactions == b.interactions
        && a.pairsRequested == b.pairsRequested
        && a.pairsRoutedOnMesh == b.pairsRoutedOnMesh
        && a.pairsLocal == b.pairsLocal && a.pairsDropped == b.pairsDropped
        && a.pairsLostInTransit == b.pairsLostInTransit
        && a.pairsRejectedFidelity == b.pairsRejectedFidelity
        && a.pairsAbandoned == b.pairsAbandoned
        && a.demandsAbandoned == b.demandsAbandoned
        && a.gatesDegraded == b.gatesDegraded
        && a.retryAttempts == b.retryAttempts
        && a.retryBackoffWindows == b.retryBackoffWindows
        && a.fallbackPenaltyWindows == b.fallbackPenaltyWindows
        && a.deferredPairWindows == b.deferredPairWindows
        && a.fidelityPairs == b.fidelityPairs
        && sameBits(a.deliveredFidelitySum, b.deliveredFidelitySum)
        && sameBits(a.deliveredFidelityMin, b.deliveredFidelityMin)
        && a.operandTouches == b.operandTouches && a.memHits == b.memHits
        && a.memMisses == b.memMisses
        && a.memInPlaceMisses == b.memInPlaceMisses
        && a.memEvictions == b.memEvictions
        && a.fetchPairsRequested == b.fetchPairsRequested
        && a.writebackPairsRequested == b.writebackPairsRequested
        && a.missConversionWindows == b.missConversionWindows
        && a.computeTiles == b.computeTiles
        && a.memoryTiles == b.memoryTiles
        && a.stallWindows == b.stallWindows
        && a.gatesStalled == b.gatesStalled
        && a.allocationStallWindows == b.allocationStallWindows
        && a.driftMoves == b.driftMoves
        && a.backoffReroutes == b.backoffReroutes
        && sameBits(a.utilization, b.utilization)
        && sameBits(a.averageRouteLength, b.averageRouteLength);
}

} // namespace

Problems
compareCoSimSweeps(const std::vector<qla::network::CoSimSweepPoint> &a,
                   const std::vector<qla::network::CoSimSweepPoint> &b,
                   const std::string &what)
{
    Problems problems;
    if (a.size() != b.size()) {
        problems.push_back("cosim: " + what + ": point counts differ");
        return problems;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.workload != y.workload || x.bandwidth != y.bandwidth
            || !sameBits(x.faultRate, y.faultRate)
            || x.purificationLevel != y.purificationLevel
            || !sameBits(x.linkFidelity, y.linkFidelity)
            || !sameBits(x.computeFraction, y.computeFraction)
            || x.memoryLevel != y.memoryLevel || x.seed != y.seed
            || !sameReport(x.report, y.report))
            problems.push_back("cosim: " + what + ": point "
                               + std::to_string(i) + " differs");
    }
    return problems;
}

Problems
compareBytes(const std::string &a, const std::string &b,
             const std::string &what)
{
    if (a == b)
        return {};
    return {"serve: " + what + ": outputs differ"};
}

} // namespace perfbench
