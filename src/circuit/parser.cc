#include "circuit/parser.h"

#include <charconv>
#include <sstream>

namespace qla::circuit {

namespace {

/** All parseable op kinds, in opName() order. */
const OpKind kAllKinds[] = {
    OpKind::PrepZ, OpKind::PrepX, OpKind::H,       OpKind::S,
    OpKind::Sdg,   OpKind::T,     OpKind::Tdg,     OpKind::X,
    OpKind::Y,     OpKind::Z,     OpKind::Cnot,    OpKind::Cz,
    OpKind::Swap,  OpKind::Toffoli, OpKind::MeasureZ,
    OpKind::MeasureX,
};

std::optional<OpKind>
kindFromName(const std::string &name)
{
    for (OpKind kind : kAllKinds)
        if (name == opName(kind))
            return kind;
    return std::nullopt;
}

/** Parse @p token as a decimal index: digits only (no sign, no
 *  trailing characters) and no overflow. */
bool
parseIndex(const std::string &token, std::size_t &out)
{
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    return !token.empty() && ec == std::errc{} && ptr == end;
}

std::string
located(std::size_t line, const std::string &message)
{
    std::ostringstream oss;
    oss << "line " << line << ": " << message;
    return oss.str();
}

} // namespace

ParseResult
parseCircuit(const std::string &text)
{
    ParseResult result;
    std::istringstream input(text);
    std::string line;
    std::size_t line_number = 0;

    std::optional<QuantumCircuit> circuit;
    std::string name = "parsed";
    std::size_t measurements = 0;

    while (std::getline(input, line)) {
        ++line_number;
        // Strip comments.
        const auto hash = line.find('#');
        std::string body = hash == std::string::npos
            ? line
            : line.substr(0, hash);
        // Keep the circuit name from a leading comment header.
        if (hash != std::string::npos && line_number == 1
            && body.find_first_not_of(" \t") == std::string::npos) {
            const auto start = line.find_first_not_of(" \t", hash + 1);
            if (start != std::string::npos)
                name = line.substr(start);
        }

        std::istringstream tokens(body);
        std::string mnemonic;
        if (!(tokens >> mnemonic))
            continue; // blank line

        if (mnemonic == "qubits") {
            std::string token;
            std::size_t count = 0;
            if (!(tokens >> token) || !parseIndex(token, count)
                || count == 0) {
                result.error = located(line_number,
                                       "bad qubit count");
                return result;
            }
            if (circuit.has_value()) {
                result.error = located(line_number,
                                       "duplicate qubits directive");
                return result;
            }
            circuit.emplace(count, name);
            continue;
        }

        if (!circuit.has_value()) {
            result.error = located(line_number,
                                   "ops before the qubits directive");
            return result;
        }

        const auto kind = kindFromName(mnemonic);
        if (!kind.has_value()) {
            result.error = located(line_number,
                                   "unknown op '" + mnemonic + "'");
            return result;
        }

        const int arity = opArity(*kind);
        std::size_t operands[3] = {};
        for (int i = 0; i < arity; ++i) {
            std::string token;
            std::size_t &q = operands[i];
            if (!(tokens >> token) || !parseIndex(token, q)) {
                result.error = located(line_number,
                                       "expected operand for '"
                                           + mnemonic + "'");
                return result;
            }
            if (q >= circuit->numQubits()) {
                result.error = located(line_number,
                                       "qubit index out of range");
                return result;
            }
            for (int j = 0; j < i; ++j) {
                if (operands[j] == q) {
                    result.error = located(line_number,
                                           "repeated operand");
                    return result;
                }
            }
        }

        // Optional condition suffix: "? m<k>".
        int condition = -1;
        std::string suffix;
        if (tokens >> suffix) {
            std::string mref;
            std::size_t index = 0;
            if (suffix != "?" || !(tokens >> mref) || mref[0] != 'm'
                || !parseIndex(mref.substr(1), index) || (tokens >> mref)) {
                result.error = located(line_number,
                                       "trailing tokens; expected "
                                       "'? m<k>'");
                return result;
            }
            if (index >= measurements) {
                result.error = located(
                    line_number,
                    "condition references a later measurement");
                return result;
            }
            condition = static_cast<int>(index);
        }

        switch (*kind) {
          case OpKind::MeasureZ:
            circuit->measureZ(operands[0]);
            ++measurements;
            break;
          case OpKind::MeasureX:
            circuit->measureX(operands[0]);
            ++measurements;
            break;
          case OpKind::X:
            if (condition >= 0) {
                circuit->xIf(operands[0], condition);
            } else {
                circuit->x(operands[0]);
            }
            break;
          case OpKind::Z:
            if (condition >= 0) {
                circuit->zIf(operands[0], condition);
            } else {
                circuit->z(operands[0]);
            }
            break;
          case OpKind::PrepZ:
            circuit->prepZ(operands[0]);
            break;
          case OpKind::PrepX:
            circuit->prepX(operands[0]);
            break;
          case OpKind::H:
            circuit->h(operands[0]);
            break;
          case OpKind::S:
            circuit->s(operands[0]);
            break;
          case OpKind::Sdg:
            circuit->sdg(operands[0]);
            break;
          case OpKind::T:
            circuit->t(operands[0]);
            break;
          case OpKind::Tdg:
            circuit->tdg(operands[0]);
            break;
          case OpKind::Y:
            circuit->y(operands[0]);
            break;
          case OpKind::Cnot:
            circuit->cnot(operands[0], operands[1]);
            break;
          case OpKind::Cz:
            circuit->cz(operands[0], operands[1]);
            break;
          case OpKind::Swap:
            circuit->swapGate(operands[0], operands[1]);
            break;
          case OpKind::Toffoli:
            circuit->toffoli(operands[0], operands[1], operands[2]);
            break;
        }
        if (condition >= 0 && *kind != OpKind::X && *kind != OpKind::Z) {
            result.error = located(line_number,
                                   "only x/z support conditions");
            return result;
        }
    }

    if (!circuit.has_value()) {
        result.error = "missing qubits directive";
        return result;
    }
    result.circuit = std::move(circuit);
    return result;
}

std::string
serializeCircuit(const QuantumCircuit &circuit)
{
    std::ostringstream oss;
    oss << "# " << circuit.name() << "\n";
    oss << "qubits " << circuit.numQubits() << "\n";
    for (const Op &op : circuit.ops()) {
        oss << opName(op.kind);
        for (std::size_t q : op.qubits())
            oss << ' ' << q;
        if (op.condition >= 0)
            oss << " ? m" << op.condition;
        oss << "\n";
    }
    return oss.str();
}

} // namespace qla::circuit
