#include "arq/frame_trace.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace qla::arq {

namespace {

/** Qubit index narrowed to the packed-op width. */
std::uint16_t
q16(std::size_t q)
{
    qla_assert(q <= 0xffff, "qubit index exceeds packed trace width");
    return static_cast<std::uint16_t>(q);
}

} // namespace

std::uint8_t
NoiseClassTable::classOf(double p)
{
    // NaN would never match a stored class and overflow the table.
    qla_assert(p >= 0.0 && p <= 1.0, "noise class probability ", p,
               " is not in [0, 1]");
    for (std::size_t i = 0; i < probs_.size(); ++i)
        if (probs_[i] == p)
            return static_cast<std::uint8_t>(i);
    qla_assert(probs_.size() < 0xff, "noise class table overflow");
    probs_.push_back(p);
    return static_cast<std::uint8_t>(probs_.size() - 1);
}

std::uint8_t
NoiseClassTable::newClass(double p)
{
    qla_assert(p >= 0.0 && p <= 1.0, "noise class probability ", p,
               " is not in [0, 1]");
    qla_assert(probs_.size() < 0xff, "noise class table overflow");
    probs_.push_back(p);
    return static_cast<std::uint8_t>(probs_.size() - 1);
}

void
FrameTraceBuilder::h(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::H, 0, 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::s(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::S, 0, 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::cnot(std::size_t control, std::size_t target)
{
    trace_.ops.push_back({FrameOp::Kind::Cnot, 0, 0, 0, q16(control), q16(target)});
}

void
FrameTraceBuilder::cz(std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Cz, 0, 0, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::swapGate(std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Swap, 0, 0, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::reset(std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::Reset, 0, 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::noise1(double p, std::size_t q)
{
    trace_.ops.push_back({FrameOp::Kind::Noise1, classes_.classOf(p), 0, 0, q16(q), 0});
}

void
FrameTraceBuilder::noise2(double p, std::size_t a, std::size_t b)
{
    trace_.ops.push_back({FrameOp::Kind::Noise2, classes_.classOf(p), 0, 0, q16(a), q16(b)});
}

void
FrameTraceBuilder::noisyH(std::size_t q, double p1)
{
    trace_.ops.push_back({FrameOp::Kind::NoisyH, classes_.classOf(p1), 0,
                          0, q16(q), 0});
}

void
FrameTraceBuilder::noisyCnot(std::size_t control, std::size_t target,
                             std::size_t moved, double p_move, double p2)
{
    qla_assert(moved == control || moved == target);
    const auto kind = moved == target ? FrameOp::Kind::NoisyCnotMT
                                      : FrameOp::Kind::NoisyCnotMC;
    trace_.ops.push_back({kind, classes_.classOf(p_move),
                          classes_.classOf(p2), 0, q16(control),
                          q16(target)});
}

void
FrameTraceBuilder::noisyCnotMeas(std::size_t control, std::size_t target,
                                 std::size_t moved, double p_move,
                                 double p2, bool measure_x,
                                 double readout_error)
{
    qla_assert(moved == control || moved == target);
    FrameOp::Kind kind;
    if (moved == target)
        kind = measure_x ? FrameOp::Kind::NoisyCnotMTMeasX
                         : FrameOp::Kind::NoisyCnotMTMeasZ;
    else
        kind = measure_x ? FrameOp::Kind::NoisyCnotMCMeasX
                         : FrameOp::Kind::NoisyCnotMCMeasZ;
    trace_.ops.push_back({kind, classes_.classOf(p_move),
                          classes_.classOf(p2),
                          classes_.classOf(readout_error), q16(control),
                          q16(target)});
    ++trace_.numMeasurements;
}

void
FrameTraceBuilder::noise1Range(std::size_t first, std::size_t count,
                               double p)
{
    qla_assert(count > 0);
    q16(first + count - 1);
    trace_.ops.push_back({FrameOp::Kind::Noise1Range, classes_.classOf(p),
                          0, 0, q16(first),
                          static_cast<std::uint16_t>(count)});
}

void
FrameTraceBuilder::measureRange(std::size_t first, std::size_t count,
                                bool measure_x, double readout_error)
{
    qla_assert(count > 0);
    q16(first + count - 1);
    trace_.ops.push_back({measure_x ? FrameOp::Kind::MeasureXRange
                                    : FrameOp::Kind::MeasureZRange,
                          classes_.classOf(readout_error), 0, 0, q16(first),
                          static_cast<std::uint16_t>(count)});
    trace_.numMeasurements += count;
}

void
FrameTraceBuilder::resetRange(std::size_t first, std::size_t count)
{
    qla_assert(count > 0);
    q16(first + count - 1);
    trace_.ops.push_back({FrameOp::Kind::ResetRange, 0, 0, 0, q16(first),
                          static_cast<std::uint16_t>(count)});
}

void
FrameTraceBuilder::measureZ(std::size_t q, double readout_error)
{
    trace_.ops.push_back({FrameOp::Kind::MeasureZ,
                          classes_.classOf(readout_error), 0, 0, q16(q),
                          0});
    ++trace_.numMeasurements;
}

void
FrameTraceBuilder::measureX(std::size_t q, double readout_error)
{
    trace_.ops.push_back({FrameOp::Kind::MeasureX,
                          classes_.classOf(readout_error), 0, 0, q16(q),
                          0});
    ++trace_.numMeasurements;
}

FrameTrace
FrameTraceBuilder::take()
{
    FrameTrace out = std::move(trace_);
    trace_ = FrameTrace{};
    return out;
}

void
finalizeTraceClassSites(FrameTrace &trace, const NoiseClassTable &classes)
{
    // One entry per sampler call the replay switch makes, in class id
    // space; verifyTracePlans cross-checks these rules against the
    // actual replay, so the two cannot drift silently.
    const std::size_t num_classes = classes.probabilities().size();
    trace.classSites.assign(num_classes, 0);
    auto &sites = trace.classSites;
    for (const FrameOp &op : trace.ops) {
        switch (op.kind) {
          case FrameOp::Kind::Noise1:
          case FrameOp::Kind::Noise2:
          case FrameOp::Kind::NoisyH:
            sites[op.cls] += 1;
            break;
          case FrameOp::Kind::NoisyCnotMT:
          case FrameOp::Kind::NoisyCnotMC:
            sites[op.cls] += 2; // shuttle in + shuttle back
            sites[op.cls2] += 1;
            break;
          case FrameOp::Kind::NoisyCnotMTMeasZ:
          case FrameOp::Kind::NoisyCnotMTMeasX:
          case FrameOp::Kind::NoisyCnotMCMeasZ:
          case FrameOp::Kind::NoisyCnotMCMeasX:
            sites[op.cls] += 2;
            sites[op.cls2] += 1;
            sites[op.cls3] += 1; // readout flip
            break;
          case FrameOp::Kind::Noise1Range:
          case FrameOp::Kind::MeasureZRange:
          case FrameOp::Kind::MeasureXRange:
            sites[op.cls] += op.b;
            break;
          case FrameOp::Kind::MeasureZ:
          case FrameOp::Kind::MeasureX:
            sites[op.cls] += 1;
            break;
          default:
            break;
        }
    }

    // Fire-plan skeleton: record once, per trace, which classes the
    // replay samples and whether their probability is degenerate --
    // the part of per-word planning that does not depend on
    // lane clocks. Degeneracy is a property of the class table, which
    // is append-only, so the classification cannot go stale.
    trace.walkPlan.clear();
    const auto &probs = classes.probabilities();
    for (std::size_t c = 0; c < num_classes; ++c) {
        if (!sites[c])
            continue;
        TraceClassWalk entry;
        entry.cls = static_cast<std::uint8_t>(c);
        entry.sites = sites[c];
        entry.degenerate = probs[c] <= 0.0 || probs[c] >= 1.0;
        entry.degenerateFires = probs[c] >= 1.0 ? ~std::uint64_t{0} : 0;
        trace.walkPlan.push_back(entry);
    }
}

BatchedNoiseModel::BatchedNoiseModel(const NoiseClassTable &classes)
{
    const auto &probs = classes.probabilities();
    draws.reserve(probs.size());
    for (double p : probs)
        draws.emplace_back(p);
    plans.resize(probs.size());
}

void
BatchedNoiseModel::rearm(const RngFamily &family, std::uint64_t first_shot)
{
    for (std::size_t l = 0; l < kBatchLanes; ++l)
        lanes[l] = family.stream(first_shot + l);
    for (auto &draw : draws)
        draw.disarm();
}

namespace {

/** Scheduled-ordinal hit: pop the fired word. Outlined so the inlined
 *  miss path of plannedFire stays a compare and an increment. */
[[gnu::noinline]] std::uint64_t
popPlannedFire(ClassDrawPlan &plan, std::uint32_t ord, std::uint64_t active)
{
    if (plan.degenerate) {
        // Always-fires class: every ordinal is scheduled.
        plan.nextFireOrd = ord + 1;
        return plan.degenerate_fires & active;
    }
    // Fired lanes are a subset of active by construction (only active
    // lanes were walked).
    const std::uint64_t fired = plan.eventMask[plan.next];
    ++plan.next;
    plan.nextFireOrd = plan.next < plan.eventOrd.size()
                           ? plan.eventOrd[plan.next]
                           : ClassDrawPlan::kNoFire;
    return fired;
}

/** The fired lanes of class @p cls's next site, popped from the
 *  pre-walked per-trace plan. */
[[gnu::always_inline]] inline std::uint64_t
plannedFire(BatchedNoiseModel &model, std::uint8_t cls, std::uint64_t active)
{
    ClassDrawPlan &plan = model.plans[cls];
    const std::uint32_t ord = plan.ordinal++;
    if (plan.dense) {
        // Dense plan: every ordinal is scheduled; serve straight from
        // the walk scratch, zeroing it back for the next planning pass.
        // Kept on the inline path: far above threshold every site of a
        // dense class lands here.
        const std::uint64_t fired = plan.fires[ord];
        plan.fires[ord] = 0;
        return fired;
    }
    // Sparse plans make almost every site a miss, priced at one compare
    // against the next scheduled fire ordinal.
    if (ord != plan.nextFireOrd) [[likely]]
        return 0;
    return popPlannedFire(plan, ord, active);
}

/**
 * Drain the dense walk scratch into the plan's sparse event arrays,
 * zeroing it back to all-zero as it goes. Ordinals come out ascending
 * because the scratch is indexed by site ordinal.
 */
void
drainFiresToEvents(ClassDrawPlan &plan, std::uint32_t sites,
                   std::int64_t scatters)
{
    plan.eventOrd.clear();
    plan.eventMask.clear();
    std::uint64_t *fires = plan.fires.data();
    // Each scatter set exactly one lane bit, so the popcounts of the
    // touched entries sum to the scatter count: stop scanning as soon
    // as every scattered bit is accounted for.
    for (std::uint32_t i = 0; scatters > 0 && i < sites; ++i) {
        if (!fires[i])
            continue;
        scatters -= std::popcount(fires[i]);
        plan.eventOrd.push_back(i);
        plan.eventMask.push_back(fires[i]);
        fires[i] = 0;
    }
    plan.next = 0;
    plan.nextFireOrd
        = plan.eventOrd.empty() ? ClassDrawPlan::kNoFire : plan.eventOrd[0];
}

/**
 * Pick a freshly walked plan's representation from the walk's scatter
 * count: no fires collapses to a never-fires plan, rare fires re-pack
 * as sparse events (replay misses cost one compare), and frequent
 * fires -- the far-above-threshold regime -- keep the dense scratch,
 * which the replay then drains site by site. The threshold only trades
 * replay cost against drain cost; the fired words are identical.
 */
void
packWalkedPlan(ClassDrawPlan &plan, std::uint32_t sites,
               std::int64_t scatters)
{
    if (scatters == 0) {
        plan.dense = false;
        plan.nextFireOrd = ClassDrawPlan::kNoFire;
        return;
    }
    if (scatters * 6 >= static_cast<std::int64_t>(sites)) {
        plan.dense = true;
        plan.nextFireOrd = 0;
        return;
    }
    plan.dense = false;
    drainFiresToEvents(plan, sites, scatters);
}

/**
 * Walk every active lane's clock over the whole trace, one walk per
 * non-degenerate class the trace samples (its walkPlan skeleton), and
 * leave the sorted fire schedules in model.plans. This is the replay's
 * core saving: a no-fire (class, lane) pair costs one counter update
 * for the entire trace instead of one trial per site. An empty
 * @p active walks nothing. Plans of classes outside the skeleton are
 * stale but unreachable -- the replay switch never fires a class
 * without sites.
 */
void
planTraceDraws(const FrameTrace &trace, BatchedNoiseModel &model,
               std::uint64_t active)
{
    if (!active)
        return;
    qla_assert(trace.classSites.size() == model.draws.size(),
               "trace not finalized against this class table");
    for (const TraceClassWalk &entry : trace.walkPlan) {
        ClassDrawPlan &plan = model.plans[entry.cls];
        plan.ordinal = 0;
        if (entry.degenerate) {
            // Degenerate probabilities consume no stream (like
            // Rng::bernoulli); replay still advances the ordinal.
            plan.degenerate = true;
            plan.dense = false;
            plan.degenerate_fires = entry.degenerateFires;
            plan.nextFireOrd
                = entry.degenerateFires ? 0 : ClassDrawPlan::kNoFire;
            continue;
        }
        plan.degenerate = false;
        if (plan.fires.size() < entry.sites)
            plan.fires.resize(entry.sites); // value-init to zero
        const std::int64_t scatters = model.draws[entry.cls].walkWord(
            active, entry.sites, model.lanes, plan.fires.data());
        packWalkedPlan(plan, entry.sites, scatters);
    }
}

/** Every plan of an active word must be exactly consumed by the replay
 *  it was built for. */
void
verifyTracePlans(const FrameTrace &trace, const BatchedNoiseModel &model,
                 std::uint64_t active)
{
    if (!active)
        return;
    for (const TraceClassWalk &entry : trace.walkPlan) {
        qla_assert(model.plans[entry.cls].ordinal == entry.sites,
                   "replay visited ", model.plans[entry.cls].ordinal,
                   " sites of class ", entry.cls, ", trace declares ",
                   entry.sites);
    }
}

/**
 * Replay @p trace on a W-word SIMD plane: word i of the tile replays
 * under masks[i] with models[i], its frame planes at x/z[q * stride + i]
 * and its flip words appended to flips[i].
 *
 * The gate cases are W-length word loops over adjacent memory -- the
 * auto-vectorizable kernels this file exists for. The noise and readout
 * cases go through fire1/fire2/readout, which loop sub-words and skip
 * inactive ones, because fire plans are per word: each word's lanes
 * consume randomness in exactly the order a per-word replay would, so
 * results are bit-identical for every tile width.
 *
 * StaticStride != 0 folds the row stride into the addressing at
 * compile time; the single-word fast paths instantiate StaticStride
 * = 1, which turns every q * stride + i access into a plain q index.
 */
template <int W, int StaticStride = 0>
void
replayTraceTile(const FrameTrace &trace, std::uint64_t *x,
                std::uint64_t *z, std::size_t dyn_stride,
                BatchedNoiseModel *models, const std::uint64_t *masks,
                std::vector<std::uint64_t> *flips)
{
    const std::size_t stride
        = StaticStride ? std::size_t{StaticStride} : dyn_stride;
    std::uint64_t m[W];
    for (int i = 0; i < W; ++i)
        m[i] = masks[i];

    const auto fire1 = [&](std::uint8_t cls, std::size_t q) {
        for (int i = 0; i < W; ++i) {
            if (!m[i])
                continue;
            const std::uint64_t fired
                = plannedFire(models[i], cls, m[i]);
            if (!fired)
                continue;
            const auto d = quantum::drawPauli1(fired, models[i].lanes);
            x[q * stride + i] ^= d.fx;
            z[q * stride + i] ^= d.fz;
        }
    };
    const auto fire2 = [&](std::uint8_t cls, std::size_t a,
                           std::size_t b) {
        for (int i = 0; i < W; ++i) {
            if (!m[i])
                continue;
            const std::uint64_t fired
                = plannedFire(models[i], cls, m[i]);
            if (!fired)
                continue;
            const auto d = quantum::drawPauli2(fired, models[i].lanes);
            x[a * stride + i] ^= d.fxa;
            z[a * stride + i] ^= d.fza;
            x[b * stride + i] ^= d.fxb;
            z[b * stride + i] ^= d.fzb;
        }
    };
    // Inactive words still push a zero flip word so every word's flip
    // buffer stays index-aligned with the trace's measurement order.
    const auto readout = [&](std::size_t q, bool measure_x,
                             std::uint8_t cls) {
        for (int i = 0; i < W; ++i) {
            std::uint64_t word = 0;
            if (m[i]) {
                std::uint64_t &xq = x[q * stride + i];
                std::uint64_t &zq = z[q * stride + i];
                word = (measure_x ? zq : xq) & m[i];
                xq &= ~m[i];
                zq &= ~m[i];
                word ^= plannedFire(models[i], cls, m[i]);
            }
            flips[i].push_back(word);
        }
    };

    for (const FrameOp &op : trace.ops) {
        switch (op.kind) {
          case FrameOp::Kind::H:
          case FrameOp::Kind::NoisyH:
            for (int i = 0; i < W; ++i) {
                std::uint64_t &xq = x[op.a * stride + i];
                std::uint64_t &zq = z[op.a * stride + i];
                const std::uint64_t d = (xq ^ zq) & m[i];
                xq ^= d;
                zq ^= d;
            }
            if (op.kind == FrameOp::Kind::NoisyH)
                fire1(op.cls, op.a);
            break;
          case FrameOp::Kind::S:
            for (int i = 0; i < W; ++i)
                z[op.a * stride + i] ^= x[op.a * stride + i] & m[i];
            break;
          case FrameOp::Kind::Cnot:
            for (int i = 0; i < W; ++i) {
                x[op.b * stride + i] ^= x[op.a * stride + i] & m[i];
                z[op.a * stride + i] ^= z[op.b * stride + i] & m[i];
            }
            break;
          case FrameOp::Kind::Cz:
            for (int i = 0; i < W; ++i) {
                const std::uint64_t xa = x[op.a * stride + i];
                z[op.a * stride + i] ^= x[op.b * stride + i] & m[i];
                z[op.b * stride + i] ^= xa & m[i];
            }
            break;
          case FrameOp::Kind::Swap:
            for (int i = 0; i < W; ++i) {
                std::uint64_t &xa = x[op.a * stride + i];
                std::uint64_t &xb = x[op.b * stride + i];
                std::uint64_t &za = z[op.a * stride + i];
                std::uint64_t &zb = z[op.b * stride + i];
                const std::uint64_t dx = (xa ^ xb) & m[i];
                const std::uint64_t dz = (za ^ zb) & m[i];
                xa ^= dx;
                xb ^= dx;
                za ^= dz;
                zb ^= dz;
            }
            break;
          case FrameOp::Kind::Reset:
            for (int i = 0; i < W; ++i) {
                x[op.a * stride + i] &= ~m[i];
                z[op.a * stride + i] &= ~m[i];
            }
            break;
          case FrameOp::Kind::Noise1:
            fire1(op.cls, op.a);
            break;
          case FrameOp::Kind::Noise2:
            fire2(op.cls, op.a, op.b);
            break;
          case FrameOp::Kind::NoisyCnotMT:
          case FrameOp::Kind::NoisyCnotMTMeasZ:
          case FrameOp::Kind::NoisyCnotMTMeasX:
            // Shuttle fault on the target, CNOT, two-qubit fault
            // (control, target), shuttle-back fault -- the scalar
            // transversal step's exact order.
            fire1(op.cls, op.b);
            for (int i = 0; i < W; ++i) {
                x[op.b * stride + i] ^= x[op.a * stride + i] & m[i];
                z[op.a * stride + i] ^= z[op.b * stride + i] & m[i];
            }
            fire2(op.cls2, op.a, op.b);
            fire1(op.cls, op.b);
            if (op.kind == FrameOp::Kind::NoisyCnotMTMeasZ)
                readout(op.b, false, op.cls3);
            else if (op.kind == FrameOp::Kind::NoisyCnotMTMeasX)
                readout(op.b, true, op.cls3);
            break;
          case FrameOp::Kind::NoisyCnotMC:
          case FrameOp::Kind::NoisyCnotMCMeasZ:
          case FrameOp::Kind::NoisyCnotMCMeasX:
            fire1(op.cls, op.a);
            for (int i = 0; i < W; ++i) {
                x[op.b * stride + i] ^= x[op.a * stride + i] & m[i];
                z[op.a * stride + i] ^= z[op.b * stride + i] & m[i];
            }
            fire2(op.cls2, op.b, op.a);
            fire1(op.cls, op.a);
            if (op.kind == FrameOp::Kind::NoisyCnotMCMeasZ)
                readout(op.a, false, op.cls3);
            else if (op.kind == FrameOp::Kind::NoisyCnotMCMeasX)
                readout(op.a, true, op.cls3);
            break;
          case FrameOp::Kind::ResetRange:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                for (int i = 0; i < W; ++i) {
                    x[q * stride + i] &= ~m[i];
                    z[q * stride + i] &= ~m[i];
                }
            break;
          case FrameOp::Kind::Noise1Range:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                fire1(op.cls, q);
            break;
          case FrameOp::Kind::MeasureZRange:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                readout(q, false, op.cls);
            break;
          case FrameOp::Kind::MeasureXRange:
            for (std::size_t q = op.a; q < op.a + std::size_t{op.b}; ++q)
                readout(q, true, op.cls);
            break;
          case FrameOp::Kind::MeasureZ:
            readout(op.a, false, op.cls);
            break;
          case FrameOp::Kind::MeasureX:
            readout(op.a, true, op.cls);
            break;
        }
    }
}

/** Widest SIMD plane the group replay carves, in 64-bit words. */
constexpr std::size_t kTileWords = 4;

/** Run one tile of width 4, 2 or 1. */
void
replayTile(std::size_t tile, const FrameTrace &trace, std::uint64_t *x,
           std::uint64_t *z, std::size_t stride, BatchedNoiseModel *models,
           const std::uint64_t *masks, std::vector<std::uint64_t> *flips)
{
    switch (tile) {
      case 4:
        replayTraceTile<4>(trace, x, z, stride, models, masks, flips);
        break;
      case 2:
        replayTraceTile<2>(trace, x, z, stride, models, masks, flips);
        break;
      default:
        replayTraceTile<1>(trace, x, z, stride, models, masks, flips);
        break;
    }
}

} // namespace

void
replayTraceGroup(const FrameTrace &trace,
                 quantum::GroupPauliFrames &frames,
                 BatchedNoiseModel *models, const std::uint64_t *masks,
                 std::size_t num_words, std::vector<std::uint64_t> *flips)
{
    // The group's rows must be packed (or over-provisioned) for this
    // batch: reset(num_words) is the batch prologue that guarantees it.
    qla_assert(num_words <= frames.stride());
    const std::size_t stride = frames.stride();
    std::uint64_t *x = frames.xData();
    std::uint64_t *z = frames.zData();

    for (std::size_t w = 0; w < num_words; ++w) {
        flips[w].clear();
        flips[w].reserve(trace.numMeasurements);
    }

    // Single-word fast path: a one-word group with packed rows skips
    // the tile-carving loop and runs the compile-time-stride-1 kernel
    // directly -- the retry pool's every replay and the L2 failureRate
    // probe's whole batch.
    if (num_words == 1 && stride == 1) {
        if (!masks[0])
            return;
        planTraceDraws(trace, models[0], masks[0]);
        replayTraceTile<1, 1>(trace, x, z, 1, models, masks, flips);
        verifyTracePlans(trace, models[0], masks[0]);
        return;
    }

    std::size_t w0 = 0;
    while (w0 < num_words) {
        const std::size_t tile
            = std::min(kTileWords, std::bit_floor(num_words - w0));
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < tile; ++i)
            any |= masks[w0 + i];
        if (!any) {
            w0 += tile;
            continue;
        }
        for (std::size_t i = 0; i < tile; ++i)
            planTraceDraws(trace, models[w0 + i], masks[w0 + i]);
        replayTile(tile, trace, x + w0, z + w0, stride, models + w0,
                   masks + w0, flips + w0);
        for (std::size_t i = 0; i < tile; ++i)
            verifyTracePlans(trace, models[w0 + i], masks[w0 + i]);
        w0 += tile;
    }
}

} // namespace qla::arq
