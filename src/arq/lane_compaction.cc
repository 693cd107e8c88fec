#include "arq/lane_compaction.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace qla::arq {

std::size_t
gatherLaneRefs(const LaneSet &mask, LaneRef *refs)
{
    std::size_t count = 0;
    for (std::uint32_t w = 0; w < mask.n; ++w) {
        std::uint64_t lanes = mask.w[w];
        while (lanes) {
            const int l = std::countr_zero(lanes);
            lanes &= lanes - 1;
            refs[count++] = {static_cast<std::uint8_t>(w),
                             static_cast<std::uint8_t>(l)};
        }
    }
    return count;
}

LaneChunkPlan::LaneChunkPlan(const LaneRef *refs, std::size_t count)
{
    for (std::size_t j = 0; j < count; ++j) {
        const LaneRef ref = refs[j];
        if (!home[ref.word])
            slot0[ref.word] = static_cast<std::uint8_t>(j);
        home[ref.word] |= std::uint64_t{1} << ref.lane;
        words |= std::uint32_t{1} << ref.word;
    }
}

std::size_t
SegmentPool::plan(const LaneSet &mask)
{
    count_ = gatherLaneRefs(mask, refs_.data());
    for (std::size_t k = 0; k < chunkCount(); ++k)
        plans_[k] = LaneChunkPlan(refs_.data() + k * kBatchLanes,
                                  chunkLanes(k));
    return count_;
}

LaneSet
SegmentPool::denseSet() const
{
    LaneSet dense;
    dense.n = static_cast<std::uint32_t>(chunkCount());
    for (std::uint32_t k = 0; k < dense.n; ++k)
        dense.w[k] = chunkMask(k);
    return dense;
}

void
SegmentPool::transplantIn(std::size_t k,
                          std::vector<BatchedNoiseModel> &home,
                          BatchedNoiseModel &dense,
                          const SamplerClassMap &classes) const
{
    // Each migrated lane carries its identity: rng stream by value,
    // noise clocks exported from the home word's clocks and imported
    // into the dense word's clocks of the mapped class. The loops run
    // class-outer rather than lane-outer purely for locality: clock
    // moves between distinct (clock, lane) slots commute, and with the
    // refs (word, lane)-sorted each home word's clock -- and the dense
    // word's -- stays cache-hot across its whole run of lanes.
    const LaneRef *refs = refs_.data() + k * kBatchLanes;
    const std::size_t lanes = chunkLanes(k);
    for (std::size_t j = 0; j < lanes; ++j)
        dense.lanes[j] = home[refs[j].word].lanes[refs[j].lane];
    for (std::size_t c = 0; c < classes.count; ++c) {
        const std::uint8_t hc = classes.home[c];
        const std::uint8_t dc = classes.dense[c];
        for (std::size_t j = 0; j < lanes; ++j)
            home[refs[j].word].draws[hc].moveLaneTo(dense.draws[dc], j,
                                                    refs[j].lane);
    }
}

void
SegmentPool::transplantOut(std::size_t k,
                           std::vector<BatchedNoiseModel> &home,
                           BatchedNoiseModel &dense,
                           const SamplerClassMap &classes) const
{
    const LaneRef *refs = refs_.data() + k * kBatchLanes;
    const std::size_t lanes = chunkLanes(k);
    for (std::size_t j = 0; j < lanes; ++j)
        home[refs[j].word].lanes[refs[j].lane] = dense.lanes[j];
    for (std::size_t c = 0; c < classes.count; ++c) {
        const std::uint8_t hc = classes.home[c];
        const std::uint8_t dc = classes.dense[c];
        for (std::size_t j = 0; j < lanes; ++j)
            dense.draws[dc].moveLaneTo(home[refs[j].word].draws[hc],
                                       refs[j].lane, j);
    }
}

void
SegmentPool::gatherRow(std::size_t k, const quantum::GroupPauliFrames &home,
                       std::size_t home_q, quantum::GroupPauliFrames &dense,
                       std::size_t dense_word, std::size_t dense_q) const
{
    // The refs are (word, lane)-sorted, so the lanes of each home word
    // sit in one contiguous run of dense slots and every (qubit, word)
    // pair is a single bit extract / deposit.
    const LaneChunkPlan &plan = plans_[k];
    std::uint64_t x_acc = 0;
    std::uint64_t z_acc = 0;
    for (std::uint32_t ws = plan.words; ws; ws &= ws - 1) {
        const std::size_t w = std::countr_zero(ws);
        x_acc |= extractBits(home.xWord(w, home_q), plan.home[w])
            << plan.slot0[w];
        z_acc |= extractBits(home.zWord(w, home_q), plan.home[w])
            << plan.slot0[w];
    }
    dense.storeMasked(dense_word, dense_q, chunkMask(k), x_acc, z_acc);
}

void
SegmentPool::scatterRow(std::size_t k, quantum::GroupPauliFrames &home,
                        std::size_t home_q,
                        const quantum::GroupPauliFrames &dense,
                        std::size_t dense_word, std::size_t dense_q) const
{
    const LaneChunkPlan &plan = plans_[k];
    const std::uint64_t x_word = dense.xWord(dense_word, dense_q);
    const std::uint64_t z_word = dense.zWord(dense_word, dense_q);
    for (std::uint32_t ws = plan.words; ws; ws &= ws - 1) {
        const std::size_t w = std::countr_zero(ws);
        home.storeMasked(
            w, home_q, plan.home[w],
            depositBits(x_word >> plan.slot0[w], plan.home[w]),
            depositBits(z_word >> plan.slot0[w], plan.home[w]));
    }
}

void
SegmentPool::scatterPlane(std::size_t k, std::uint64_t dense_plane,
                          std::uint64_t *out, std::size_t word_stride) const
{
    const LaneChunkPlan &plan = plans_[k];
    for (std::uint32_t ws = plan.words; ws; ws &= ws - 1) {
        const std::size_t w = std::countr_zero(ws);
        out[w * word_stride] |= depositBits(
            dense_plane >> plan.slot0[w], plan.home[w]);
    }
}

PrepRetryPool::PrepRetryPool(const ecc::CssCode &code,
                             const TileRowRecorder &recorder,
                             int max_prep_attempts,
                             const NoiseClassTable &parent_classes,
                             const std::vector<std::uint8_t>
                                 &shadow_of_primary)
    : n_(code.blockLength()), max_prep_attempts_(max_prep_attempts),
      frame_(2 * code.blockLength(), 1),
      model_([&]() -> const NoiseClassTable & {
          // Record the relocated prep rounds with the same recorder that
          // produced the parent traces: identical op sequences,
          // pool-local class ids.
          for (const bool plus : {false, true}) {
              FrameTraceBuilder prep(classes_);
              recorder.prepRound(prep, 0, code.blockLength(), plus);
              prep_traces_[plus ? 1 : 0] = prep.take();
          }
          return classes_;
      }())
{
    // The class table is final only now (recording above may have added
    // classes), so the per-class site counts and fire-plan skeletons
    // that drive trace-level batched draws are finalized here.
    for (FrameTrace &trace : prep_traces_)
        finalizeTraceClassSites(trace, classes_);

    // Map each pool class to the parent's *shadow* class of the same
    // probability: pooled retries always replay shadow sites, so a
    // migrated lane's clock transplants between its home shadow sampler
    // and the pool sampler of the matching class. Probabilities
    // identify the class uniquely because classOf deduplicates. The
    // pool records nothing but the prep traces, so every pool class is
    // one they sample and the map covers the whole table.
    const auto &pool_probs = classes_.probabilities();
    const auto &parent_probs = parent_classes.probabilities();
    for (std::size_t c = 0; c < pool_probs.size(); ++c) {
        bool found = false;
        for (std::size_t k = 0; k < shadow_of_primary.size(); ++k) {
            if (parent_probs[k] == pool_probs[c]) {
                home_classes_.push_back(shadow_of_primary[k]);
                pool_classes_.push_back(static_cast<std::uint8_t>(c));
                found = true;
                break;
            }
        }
        qla_assert(found, "pool noise class missing from parent table");
    }

    for (const ecc::QubitMask row : code.xChecks())
        x_check_bits_.push_back(bitListOf(row));
    for (const ecc::QubitMask row : code.zChecks())
        z_check_bits_.push_back(bitListOf(row));
    logical_x_bits_ = bitListOf(code.logicalX());
    logical_z_bits_ = bitListOf(code.logicalZ());
    flips_.reserve(n_);
}

void
PrepRetryPool::runRetries(bool plus, const LaneSet &mask, int first_attempt,
                          quantum::GroupPauliFrames &frames,
                          std::vector<BatchedNoiseModel> &models,
                          std::size_t role_q0, ExperimentStats *stats)
{
    mig_.plan(mask);
    const SamplerClassMap map = classMap();
    for (std::size_t k = 0; k < mig_.chunkCount(); ++k) {
        mig_.transplantIn(k, models, model_, map);
        runAttempts(plus, mig_.chunkMask(k), first_attempt, stats);
        // Only the prepared row survives: the verification row is
        // re-encoded (reset first) before every later use, so its
        // residual is dead state and needs no scatter.
        for (std::size_t i = 0; i < n_; ++i)
            mig_.scatterRow(k, frames, role_q0 + i, frame_, 0, i);
        mig_.transplantOut(k, models, model_, map);
    }
}

void
PrepRetryPool::runPrepSeries(bool plus, const LaneSet &mask,
                             const std::size_t *site_role_q0,
                             std::size_t num_sites,
                             quantum::GroupPauliFrames &frames,
                             std::vector<BatchedNoiseModel> &models,
                             ExperimentStats *stats)
{
    mig_.plan(mask);
    const SamplerClassMap map = classMap();
    for (std::size_t k = 0; k < mig_.chunkCount(); ++k) {
        mig_.transplantIn(k, models, model_, map);
        for (std::size_t s = 0; s < num_sites; ++s) {
            runAttempts(plus, mig_.chunkMask(k), 1, stats);
            for (std::size_t i = 0; i < n_; ++i)
                mig_.scatterRow(k, frames, site_role_q0[s] + i, frame_, 0,
                                i);
        }
        mig_.transplantOut(k, models, model_, map);
    }
}

void
PrepRetryPool::runAttempts(bool plus, std::uint64_t mask,
                           int first_attempt, ExperimentStats *stats)
{
    const std::size_t num_checks = plus ? x_check_bits_.size()
                                        : z_check_bits_.size();
    const BitList &logical = plus ? logical_x_bits_ : logical_z_bits_;
    const FrameTrace &trace = prep_traces_[plus ? 1 : 0];
    // Mirrors the in-place retry loop of prepVerified exactly: the
    // first dense replay is attempt number first_attempt for every
    // migrated lane (they all survived the same earlier attempts).
    int attempt = first_attempt;
    for (;;) {
        // A one-word packed group: replayTraceGroup's single-word fast
        // path, the same replayTraceTile<1, 1> kernel as any one-word
        // group.
        replayTraceGroup(trace, frame_, &model_, &mask, 1, &flips_);
        SyndromePlanes synd{};
        const auto &rows = plus ? x_check_bits_ : z_check_bits_;
        for (std::size_t j = 0; j < rows.size(); ++j)
            synd[j] = parityPlane(rows[j], flips_.data());
        std::uint64_t bad = orPlanes(synd, num_checks);
        bad |= parityPlane(logical, flips_.data());
        bad &= mask;
        const std::uint64_t exited = attempt == max_prep_attempts_
            ? mask : (mask & ~bad);
        if (stats && exited)
            stats->prepAttempts.addRepeated(attempt,
                                            std::popcount(exited));
        mask &= bad;
        if (!mask || attempt >= max_prep_attempts_)
            break;
        ++attempt;
    }
}

} // namespace qla::arq
