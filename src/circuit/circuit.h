/**
 * @file
 * Quantum-circuit intermediate representation.
 *
 * ARQ's input is the circuit model of quantum computation (paper Section
 * 1, contribution 3): a sequence of gates over named qubits. The IR here
 * carries the common universal gate set plus preparation and measurement
 * ops; the ARQ mapper lowers it onto a physical QCCD layout.
 */

#ifndef QLA_CIRCUIT_CIRCUIT_H
#define QLA_CIRCUIT_CIRCUIT_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace qla::circuit {

/** Operation kinds in the circuit IR. */
enum class OpKind : std::uint8_t
{
    PrepZ,     ///< Initialize to |0>.
    PrepX,     ///< Initialize to |+>.
    H,
    S,
    Sdg,
    T,         ///< Non-Clifford; cost-modeled, not stabilizer-simulable.
    Tdg,
    X,
    Y,
    Z,
    Cnot,
    Cz,
    Swap,
    Toffoli,   ///< Lowered to the fault-tolerant gadget by the QLA model.
    MeasureZ,
    MeasureX,
};

/** Number of qubit operands for each kind. */
int opArity(OpKind kind);

/** True for Clifford + prep/measure ops (stabilizer simulable). */
bool opIsClifford(OpKind kind);

/** Short mnemonic, e.g. "cnot". */
const char *opName(OpKind kind);

/** An op's operands trimmed to its arity, held inline: reads like a
 *  container and never touches the heap. */
struct Operands
{
    std::array<std::size_t, 3> q{};
    std::size_t count = 0;

    std::size_t size() const { return count; }
    const std::size_t *begin() const { return q.data(); }
    const std::size_t *end() const { return q.data() + count; }
    std::size_t operator[](std::size_t i) const { return q[i]; }
};

/** One operation; unused operand slots hold kInvalidQubit. */
struct Op
{
    static constexpr std::size_t kInvalidQubit = ~std::size_t{0};

    OpKind kind;
    std::size_t q0 = kInvalidQubit;
    std::size_t q1 = kInvalidQubit;
    std::size_t q2 = kInvalidQubit;
    /**
     * Classical condition: when >= 0, the op executes only if the
     * condition-th measurement outcome (in program order) was 1. Used
     * for teleportation fix-ups.
     */
    int condition = -1;

    /** Operand list trimmed to the op's arity. */
    Operands qubits() const
    {
        return {{q0, q1, q2}, static_cast<std::size_t>(opArity(kind))};
    }
};

/**
 * A straight-line quantum circuit over a fixed-size qubit register.
 */
class QuantumCircuit
{
  public:
    explicit QuantumCircuit(std::size_t num_qubits,
                            std::string name = "circuit");

    std::size_t numQubits() const { return num_qubits_; }
    const std::string &name() const { return name_; }
    const std::vector<Op> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }

    //
    // Builder API.
    //

    void prepZ(std::size_t q) { push({OpKind::PrepZ, q}); }
    void prepX(std::size_t q) { push({OpKind::PrepX, q}); }
    void h(std::size_t q) { push({OpKind::H, q}); }
    void s(std::size_t q) { push({OpKind::S, q}); }
    void sdg(std::size_t q) { push({OpKind::Sdg, q}); }
    void t(std::size_t q) { push({OpKind::T, q}); }
    void tdg(std::size_t q) { push({OpKind::Tdg, q}); }
    void x(std::size_t q) { push({OpKind::X, q}); }
    void y(std::size_t q) { push({OpKind::Y, q}); }
    void z(std::size_t q) { push({OpKind::Z, q}); }
    void cnot(std::size_t c, std::size_t t) { push({OpKind::Cnot, c, t}); }
    void cz(std::size_t a, std::size_t b) { push({OpKind::Cz, a, b}); }
    void swapGate(std::size_t a, std::size_t b)
    {
        push({OpKind::Swap, a, b});
    }
    void toffoli(std::size_t c1, std::size_t c2, std::size_t t)
    {
        push({OpKind::Toffoli, c1, c2, t});
    }
    void measureZ(std::size_t q) { push({OpKind::MeasureZ, q}); }
    void measureX(std::size_t q) { push({OpKind::MeasureX, q}); }

    /** X on @p q conditioned on measurement @p meas_index being 1. */
    void xIf(std::size_t q, int meas_index);
    /** Z on @p q conditioned on measurement @p meas_index being 1. */
    void zIf(std::size_t q, int meas_index);

    /** Number of measurement ops in the circuit. */
    std::size_t measurementCount() const;

    /** Append all ops of @p other (same register width required). */
    void append(const QuantumCircuit &other);

    //
    // Analysis.
    //

    /** Count of ops of a given kind. */
    std::size_t countKind(OpKind kind) const;

    /** True when every op is Clifford/prep/measure. */
    bool isClifford() const;

    /**
     * ASAP layering: op i executes at layer[i], where ops in the same
     * layer touch disjoint qubits. Returns the per-op layer indices.
     */
    std::vector<std::size_t> asapLayers() const;

    /** Circuit depth (number of ASAP layers). */
    std::size_t depth() const;

    /** Human-readable listing (one op per line). */
    std::string toString() const;

  private:
    void push(Op op);

    std::size_t num_qubits_;
    std::string name_;
    std::vector<Op> ops_;
};

} // namespace qla::circuit

#endif // QLA_CIRCUIT_CIRCUIT_H
