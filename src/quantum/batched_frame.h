/**
 * @file
 * 64-shot-per-word Pauli-frame engine.
 *
 * Stim-style batched error propagation: for each qubit the X and Z frame
 * components of 64 independent Monte-Carlo shots are packed into one
 * 64-bit word (bit l = shot lane l), so every Clifford conjugation,
 * error injection and flip readout is a constant number of bitwise word
 * operations for all shots at once. Combined with geometric-gap noise
 * sampling (common/batched_sampler.h) this turns the Figure-7 threshold
 * Monte Carlo from per-shot interpretation into word-parallel replay.
 * The hot operations are defined inline: trace replay calls them on the
 * concrete type, and each is a couple of word ops.
 *
 * The scalar PauliFrame remains the single-shot reference engine; the
 * differential suite in tests/test_batched_frame.cc checks this engine
 * against it lane by lane.
 */

#ifndef QLA_QUANTUM_BATCHED_FRAME_H
#define QLA_QUANTUM_BATCHED_FRAME_H

#include <cstdint>
#include <vector>

#include "common/batched_sampler.h"
#include "common/logging.h"
#include "quantum/backend.h"

namespace qla::quantum {

/**
 * Error frames of 64 shots over n qubits, one X and one Z word per qubit
 * with lanes across the word. The masked operations skip bounds
 * checking: they are driven by traces whose operands were validated at
 * record time (see arq/frame_trace.h), and this is the replay hot path.
 */
class BatchedPauliFrame final : public BatchedFrameBackend
{
  public:
    explicit BatchedPauliFrame(std::size_t num_qubits)
        : n_(num_qubits), x_(num_qubits, 0), z_(num_qubits, 0)
    {
    }

    const char *backendName() const override { return "batched-frame"; }
    std::size_t numQubits() const override { return n_; }

    void reset() override;

    void h(std::size_t q, std::uint64_t lanes) override
    {
        const std::uint64_t d = (x_[q] ^ z_[q]) & lanes;
        x_[q] ^= d;
        z_[q] ^= d;
    }

    void s(std::size_t q, std::uint64_t lanes) override
    {
        z_[q] ^= x_[q] & lanes;
    }

    void cnot(std::size_t control, std::size_t target,
              std::uint64_t lanes) override
    {
        x_[target] ^= x_[control] & lanes;
        z_[control] ^= z_[target] & lanes;
    }

    void cz(std::size_t a, std::size_t b, std::uint64_t lanes) override
    {
        const std::uint64_t xa = x_[a];
        z_[a] ^= x_[b] & lanes;
        z_[b] ^= xa & lanes;
    }

    void swap(std::size_t a, std::size_t b, std::uint64_t lanes) override
    {
        const std::uint64_t dx = (x_[a] ^ x_[b]) & lanes;
        const std::uint64_t dz = (z_[a] ^ z_[b]) & lanes;
        x_[a] ^= dx;
        x_[b] ^= dx;
        z_[a] ^= dz;
        z_[b] ^= dz;
    }

    void injectX(std::size_t q, std::uint64_t lanes) override
    {
        x_[q] ^= lanes;
    }

    void injectZ(std::size_t q, std::uint64_t lanes) override
    {
        z_[q] ^= lanes;
    }

    std::uint64_t measureZFlip(std::size_t q, std::uint64_t lanes) override
    {
        const std::uint64_t flips = x_[q] & lanes;
        x_[q] &= ~lanes;
        z_[q] &= ~lanes;
        return flips;
    }

    std::uint64_t measureXFlip(std::size_t q, std::uint64_t lanes) override
    {
        const std::uint64_t flips = z_[q] & lanes;
        x_[q] &= ~lanes;
        z_[q] &= ~lanes;
        return flips;
    }

    void resetQubit(std::size_t q, std::uint64_t lanes) override
    {
        x_[q] &= ~lanes;
        z_[q] &= ~lanes;
    }

    /**
     * Overwrite the frame of qubit @p q on the lanes in @p lanes with
     * the corresponding bits of @p x_bits / @p z_bits (lane compaction
     * scatters regrouped shots back through this).
     */
    void storeMasked(std::size_t q, std::uint64_t lanes,
                     std::uint64_t x_bits, std::uint64_t z_bits)
    {
        x_[q] = (x_[q] & ~lanes) | (x_bits & lanes);
        z_[q] = (z_[q] & ~lanes) | (z_bits & lanes);
    }

    //
    // Lane-plane inspection (bit-sliced decoding and tests).
    //

    /** X frame bits of qubit @p q, one bit per lane. */
    std::uint64_t xWord(std::size_t q) const
    {
        qla_assert(q < n_);
        return x_[q];
    }

    /** Z frame bits of qubit @p q, one bit per lane. */
    std::uint64_t zWord(std::size_t q) const
    {
        qla_assert(q < n_);
        return z_[q];
    }

    bool xBit(std::size_t q, std::size_t lane) const
    {
        qla_assert(lane < kLanes);
        return (xWord(q) >> lane) & 1ULL;
    }

    bool zBit(std::size_t q, std::size_t lane) const
    {
        qla_assert(lane < kLanes);
        return (zWord(q) >> lane) & 1ULL;
    }

    //
    // Raw plane access for the width-templated replay kernel
    // (arq/frame_trace.cc): a single-word frame is the W = 1, stride-1
    // case of the generic qubit-major layout.
    //

    std::uint64_t *xData() { return x_.data(); }
    std::uint64_t *zData() { return z_.data(); }

  private:
    std::size_t n_;
    std::vector<std::uint64_t> x_;
    std::vector<std::uint64_t> z_;
};

/**
 * Error frames of a whole shot group: @p words adjacent 64-lane words
 * over n qubits in one contiguous qubit-major allocation
 * (x_[q * words + w], likewise z_). Keeping a group's words adjacent --
 * instead of one BatchedPauliFrame object per word -- lets the replay
 * kernel process W words of the same qubit as one W x 64-bit SIMD plane:
 * the per-qubit word rows are exactly the contiguous arrays the
 * width-templated kernels in arq/frame_trace.cc vectorize over.
 *
 * The per-word accessors mirror BatchedPauliFrame with the word index
 * first; all single-word semantics (lane masks, flip readout, masked
 * stores) are unchanged, so a GroupPauliFrames behaves exactly like
 * `words` independent 64-shot frames that happen to share storage.
 *
 * A batch that occupies fewer words than the capacity is stored
 * *packed*: reset(n) sets the row stride to n, so the batch's live
 * planes are one contiguous prefix of the allocation. A single-word
 * probe on a 32-word group then touches the same few kilobytes a
 * standalone BatchedPauliFrame would, instead of one cache line per
 * qubit row across the whole capacity allocation.
 */
class GroupPauliFrames
{
  public:
    GroupPauliFrames(std::size_t num_qubits, std::size_t words)
        : n_(num_qubits), words_(words), stride_(words),
          x_(num_qubits * words, 0), z_(num_qubits * words, 0)
    {
    }

    std::size_t numQubits() const { return n_; }

    /** Word capacity of a qubit row (the group width in 64-shot words). */
    std::size_t words() const { return words_; }

    /** Distance between the same word of adjacent qubits: the word
     *  count of the current batch (reset(n) packs rows to n words). */
    std::size_t stride() const { return stride_; }

    void reset();

    /**
     * Start a batch of @p num_words words: repack the rows to stride
     * @p num_words and clear them. A batch that fills fewer words than
     * the group's capacity (a partial final batch, or a single-word
     * failureRate probe on a wide group) thereby gets a dense frame
     * store the size of its own planes -- a capacity-strided layout
     * would cost one cache line per qubit row and a wipe of hundreds of
     * kilobytes on a tile-sized store, which dominates small-batch
     * runs. Word indices >= @p num_words are invalid until the next
     * reset; every engine read is word-masked by the batch's active
     * set, so none are ever formed.
     */
    void reset(std::size_t num_words);

    void injectX(std::size_t w, std::size_t q, std::uint64_t lanes)
    {
        x_[q * stride_ + w] ^= lanes;
    }

    void injectZ(std::size_t w, std::size_t q, std::uint64_t lanes)
    {
        z_[q * stride_ + w] ^= lanes;
    }

    void storeMasked(std::size_t w, std::size_t q, std::uint64_t lanes,
                     std::uint64_t x_bits, std::uint64_t z_bits)
    {
        auto &x = x_[q * stride_ + w];
        auto &z = z_[q * stride_ + w];
        x = (x & ~lanes) | (x_bits & lanes);
        z = (z & ~lanes) | (z_bits & lanes);
    }

    std::uint64_t xWord(std::size_t w, std::size_t q) const
    {
        qla_assert(q < n_ && w < stride_);
        return x_[q * stride_ + w];
    }

    std::uint64_t zWord(std::size_t w, std::size_t q) const
    {
        qla_assert(q < n_ && w < stride_);
        return z_[q * stride_ + w];
    }

    bool xBit(std::size_t w, std::size_t q, std::size_t lane) const
    {
        return (xWord(w, q) >> lane) & 1ULL;
    }

    bool zBit(std::size_t w, std::size_t q, std::size_t lane) const
    {
        return (zWord(w, q) >> lane) & 1ULL;
    }

    std::uint64_t *xData() { return x_.data(); }
    std::uint64_t *zData() { return z_.data(); }

  private:
    std::size_t n_;
    std::size_t words_;
    std::size_t stride_;
    std::vector<std::uint64_t> x_;
    std::vector<std::uint64_t> z_;
};

//
// Batched depolarizing-noise injection. The apply* functions are the
// fire path -- they draw each fired lane's Pauli from that lane's own
// stream, with the same distribution as the scalar PauliFrame helpers --
// while the sampler decides which lanes fault (one trial per active
// lane). They take the concrete frame: fires are the dominant per-lane
// cost of the batched Monte Carlo and must not dispatch virtually.
//

/** X/Z injection words of one random single-qubit Pauli per fired lane. */
struct Pauli1Draw {
    std::uint64_t fx;
    std::uint64_t fz;
};

/**
 * Draw each fired lane's single-qubit Pauli from that lane's stream
 * (same X/Y/Z encoding as the scalar PauliFrame::depolarize1).
 */
Pauli1Draw drawPauli1(std::uint64_t fired, LaneRngs &lanes);

/** X/Z injection words of one random two-qubit Pauli per fired lane. */
struct Pauli2Draw {
    std::uint64_t fxa;
    std::uint64_t fza;
    std::uint64_t fxb;
    std::uint64_t fzb;
};

/**
 * Draw each fired lane's two-qubit Pauli pair, uniform over the 15
 * non-identity pairs (encoding matches the scalar depolarize2).
 */
Pauli2Draw drawPauli2(std::uint64_t fired, LaneRngs &lanes);

/** Apply random single-qubit Paulis to the @p fired lanes of @p q. */
void applyDepolarize1(BatchedPauliFrame &frame, std::size_t q,
                      std::uint64_t fired, LaneRngs &lanes);

/** Apply random two-qubit Paulis (15 non-identity pairs, uniform). */
void applyDepolarize2(BatchedPauliFrame &frame, std::size_t a,
                      std::size_t b, std::uint64_t fired, LaneRngs &lanes);

/**
 * Depolarize qubit @p q of word @p w of a group frame with the sampler's
 * probability on @p active lanes (one correction site: the sampler
 * takes one trial per active lane).
 */
void depolarize1(GroupPauliFrames &frames, std::size_t w, std::size_t q,
                 ClassDrawSampler &sampler, LaneRngs &lanes,
                 std::uint64_t active);

} // namespace qla::quantum

#endif // QLA_QUANTUM_BATCHED_FRAME_H
