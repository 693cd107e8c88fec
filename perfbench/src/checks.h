/**
 * @file
 * Correctness checks of the benchmark's workloads. Each returns the
 * list of problems it found (empty = pass), so a run can count a
 * failed operation and the self-test can show that every check trips
 * on a corrupted result.
 */

#ifndef QLA_PERFBENCH_CHECKS_H
#define QLA_PERFBENCH_CHECKS_H

#include <string>
#include <vector>

#include "arq/monte_carlo.h"
#include "network/cosim.h"

namespace perfbench {

using Problems = std::vector<std::string>;

/** The paper's crossing estimate (2.1 +- 1.8)e-3. */
inline constexpr double kPaperThresholdLow = 0.3e-3;
inline constexpr double kPaperThresholdHigh = 3.9e-3;

/**
 * Shape and physics of one Figure-7 sweep result: one point per input
 * rate, rates in [0, 1]; on the crossing window the L1/L2 crossing
 * lies in the paper's band; on the above-threshold tail level 2 fails
 * more often than level 1 at every point.
 */
Problems checkFig7Sweep(const std::vector<double> &physical_errors,
                        const std::vector<qla::arq::ThresholdPoint> &points,
                        bool crossing_window, bool above_threshold);

/** Bit-for-bit equality of two sweeps (@p what names the pair). */
Problems compareSweeps(const std::vector<qla::arq::ThresholdPoint> &a,
                       const std::vector<qla::arq::ThresholdPoint> &b,
                       const std::string &what);

/**
 * Ledger identities of one co-simulated run: completed; requested =
 * delivered + dropped + abandoned; dropped = lost + rejected; per-gate
 * attribution sums to the totals; operandTouches = memHits +
 * memMisses.
 */
Problems checkCoSimReport(const qla::network::CoSimReport &report);

/** Field-for-field equality of two sweeps' points and reports. */
Problems compareCoSimSweeps(
    const std::vector<qla::network::CoSimSweepPoint> &a,
    const std::vector<qla::network::CoSimSweepPoint> &b,
    const std::string &what);

/** Byte equality of two served outputs of one spec. */
Problems compareBytes(const std::string &a, const std::string &b,
                      const std::string &what);

} // namespace perfbench

#endif // QLA_PERFBENCH_CHECKS_H
