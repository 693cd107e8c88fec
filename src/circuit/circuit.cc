#include "circuit/circuit.h"

#include <algorithm>
#include <sstream>

namespace qla::circuit {

int
opArity(OpKind kind)
{
    switch (kind) {
      case OpKind::Cnot:
      case OpKind::Cz:
      case OpKind::Swap:
        return 2;
      case OpKind::Toffoli:
        return 3;
      default:
        return 1;
    }
}

bool
opIsClifford(OpKind kind)
{
    switch (kind) {
      case OpKind::T:
      case OpKind::Tdg:
      case OpKind::Toffoli:
        return false;
      default:
        return true;
    }
}

const char *
opName(OpKind kind)
{
    switch (kind) {
      case OpKind::PrepZ:
        return "prep_z";
      case OpKind::PrepX:
        return "prep_x";
      case OpKind::H:
        return "h";
      case OpKind::S:
        return "s";
      case OpKind::Sdg:
        return "sdg";
      case OpKind::T:
        return "t";
      case OpKind::Tdg:
        return "tdg";
      case OpKind::X:
        return "x";
      case OpKind::Y:
        return "y";
      case OpKind::Z:
        return "z";
      case OpKind::Cnot:
        return "cnot";
      case OpKind::Cz:
        return "cz";
      case OpKind::Swap:
        return "swap";
      case OpKind::Toffoli:
        return "toffoli";
      case OpKind::MeasureZ:
        return "measure_z";
      case OpKind::MeasureX:
        return "measure_x";
    }
    return "?";
}

QuantumCircuit::QuantumCircuit(std::size_t num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name))
{
    qla_assert(num_qubits > 0, "empty circuit register");
}

void
QuantumCircuit::push(Op op)
{
    const Operands operands = op.qubits();
    for (std::size_t q : operands)
        qla_assert(q < num_qubits_, "qubit index ", q, " out of range in ",
                   opName(op.kind));
    for (std::size_t i = 0; i < operands.size(); ++i)
        for (std::size_t j = i + 1; j < operands.size(); ++j)
            qla_assert(operands[i] != operands[j],
                       "repeated operand in ", opName(op.kind));
    ops_.push_back(op);
}

void
QuantumCircuit::append(const QuantumCircuit &other)
{
    qla_assert(other.num_qubits_ == num_qubits_,
               "appending circuit with different register width");
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

void
QuantumCircuit::xIf(std::size_t q, int meas_index)
{
    qla_assert(meas_index >= 0, "bad measurement index");
    Op op{OpKind::X, q};
    op.condition = meas_index;
    push(op);
}

void
QuantumCircuit::zIf(std::size_t q, int meas_index)
{
    qla_assert(meas_index >= 0, "bad measurement index");
    Op op{OpKind::Z, q};
    op.condition = meas_index;
    push(op);
}

std::size_t
QuantumCircuit::measurementCount() const
{
    return countKind(OpKind::MeasureZ) + countKind(OpKind::MeasureX);
}

std::size_t
QuantumCircuit::countKind(OpKind kind) const
{
    return static_cast<std::size_t>(
        std::count_if(ops_.begin(), ops_.end(),
                      [kind](const Op &op) { return op.kind == kind; }));
}

bool
QuantumCircuit::isClifford() const
{
    return std::all_of(ops_.begin(), ops_.end(), [](const Op &op) {
        return opIsClifford(op.kind);
    });
}

std::vector<std::size_t>
QuantumCircuit::asapLayers() const
{
    std::vector<std::size_t> qubit_ready(num_qubits_, 0);
    std::vector<std::size_t> layers;
    layers.reserve(ops_.size());
    for (const Op &op : ops_) {
        std::size_t layer = 0;
        for (std::size_t q : op.qubits())
            layer = std::max(layer, qubit_ready[q]);
        layers.push_back(layer);
        for (std::size_t q : op.qubits())
            qubit_ready[q] = layer + 1;
    }
    return layers;
}

std::size_t
QuantumCircuit::depth() const
{
    const auto layers = asapLayers();
    std::size_t depth = 0;
    for (std::size_t layer : layers)
        depth = std::max(depth, layer + 1);
    return depth;
}

std::string
QuantumCircuit::toString() const
{
    std::ostringstream oss;
    oss << "# " << name_ << " (" << num_qubits_ << " qubits, "
        << ops_.size() << " ops)\n";
    for (const Op &op : ops_) {
        oss << opName(op.kind);
        for (std::size_t q : op.qubits())
            oss << ' ' << q;
        oss << '\n';
    }
    return oss.str();
}

} // namespace qla::circuit
