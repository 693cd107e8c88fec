#include "quantum/batched_frame.h"

#include <algorithm>
#include <bit>

namespace qla::quantum {

void
BatchedPauliFrame::reset()
{
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
}

void
GroupPauliFrames::reset()
{
    stride_ = words_;
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
}

void
GroupPauliFrames::reset(std::size_t num_words)
{
    qla_assert(num_words >= 1 && num_words <= words_);
    // Repack to the batch's own width: the live planes become one
    // contiguous prefix of the allocation, so the wipe is a single
    // bulk clear and the replay working set shrinks with the batch.
    stride_ = num_words;
    std::fill_n(x_.begin(), n_ * num_words, 0);
    std::fill_n(z_.begin(), n_ * num_words, 0);
}

Pauli1Draw
drawPauli1(std::uint64_t fired, LaneRngs &lanes)
{
    std::uint64_t fx = 0, fz = 0;
    while (fired) {
        const int l = std::countr_zero(fired);
        fired &= fired - 1;
        const std::uint64_t bit = std::uint64_t{1} << l;
        // Same X/Y/Z encoding as the scalar PauliFrame::depolarize1.
        switch (lanes[l].uniformInt(3)) {
          case 0:
            fx |= bit;
            break;
          case 1:
            fx |= bit;
            fz |= bit;
            break;
          default:
            fz |= bit;
            break;
        }
    }
    return {fx, fz};
}

Pauli2Draw
drawPauli2(std::uint64_t fired, LaneRngs &lanes)
{
    std::uint64_t fxa = 0, fza = 0, fxb = 0, fzb = 0;
    while (fired) {
        const int l = std::countr_zero(fired);
        fired &= fired - 1;
        const std::uint64_t bit = std::uint64_t{1} << l;
        // Uniform over the 15 non-identity pairs; encoding matches the
        // scalar PauliFrame::depolarize2 (pa, pb in {I,X,Y,Z}).
        const std::uint64_t k = lanes[l].uniformInt(15) + 1;
        const std::uint64_t pa = k / 4;
        const std::uint64_t pb = k % 4;
        if (pa == 1 || pa == 2)
            fxa |= bit;
        if (pa == 2 || pa == 3)
            fza |= bit;
        if (pb == 1 || pb == 2)
            fxb |= bit;
        if (pb == 2 || pb == 3)
            fzb |= bit;
    }
    return {fxa, fza, fxb, fzb};
}

void
applyDepolarize1(BatchedPauliFrame &frame, std::size_t q,
                 std::uint64_t fired, LaneRngs &lanes)
{
    const Pauli1Draw d = drawPauli1(fired, lanes);
    if (d.fx)
        frame.injectX(q, d.fx);
    if (d.fz)
        frame.injectZ(q, d.fz);
}

void
applyDepolarize2(BatchedPauliFrame &frame, std::size_t a, std::size_t b,
                 std::uint64_t fired, LaneRngs &lanes)
{
    const Pauli2Draw d = drawPauli2(fired, lanes);
    if (d.fxa)
        frame.injectX(a, d.fxa);
    if (d.fza)
        frame.injectZ(a, d.fza);
    if (d.fxb)
        frame.injectX(b, d.fxb);
    if (d.fzb)
        frame.injectZ(b, d.fzb);
}

void
depolarize1(GroupPauliFrames &frames, std::size_t w, std::size_t q,
            ClassDrawSampler &sampler, LaneRngs &lanes,
            std::uint64_t active)
{
    const std::uint64_t fired = sampler.sample(active, lanes);
    if (!fired)
        return;
    const Pauli1Draw d = drawPauli1(fired, lanes);
    if (d.fx)
        frames.injectX(w, q, d.fx);
    if (d.fz)
        frames.injectZ(w, q, d.fz);
}

} // namespace qla::quantum
