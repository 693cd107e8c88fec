#include "arq/mapper.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace qla::arq {

namespace {

const char *
kindName(PhysicalOp::Kind kind)
{
    switch (kind) {
      case PhysicalOp::Kind::LaserGate1:
        return "gate1";
      case PhysicalOp::Kind::LaserGate2:
        return "gate2";
      case PhysicalOp::Kind::Measure:
        return "measure";
      case PhysicalOp::Kind::Move:
        return "move";
      case PhysicalOp::Kind::Cool:
        return "cool";
    }
    return "?";
}

} // namespace

std::string
PulseSchedule::toString() const
{
    std::ostringstream oss;
    oss << "# pulse schedule: " << ops.size() << " physical ops, "
        << "makespan " << makespan * 1e6 << " us, error budget "
        << totalErrorBudget << "\n";
    for (const auto &op : ops) {
        oss << kindName(op.kind) << " t=" << op.start * 1e6 << "us"
            << " d=" << op.duration * 1e6 << "us q=[";
        for (std::size_t i = 0; i < op.qubits.size(); ++i) {
            if (i)
                oss << ' ';
            oss << op.qubits[i];
        }
        oss << "] p=" << op.errorProbability;
        if (op.kind == PhysicalOp::Kind::Move)
            oss << " cells=" << op.movement.distance << " turns="
                << op.movement.turns;
        oss << "\n";
    }
    return oss.str();
}

LayoutMapper::LayoutMapper(const qccd::TrapGrid &grid,
                           const TechnologyParameters &tech,
                           std::vector<qccd::Coord> home_traps)
    : grid_(grid), tech_(tech), homes_(std::move(home_traps)),
      router_(grid_)
{
    for (const auto &home : homes_)
        qla_assert(grid_.isTraversable(home),
                   "home trap is not traversable");
}

PulseSchedule
LayoutMapper::map(const circuit::QuantumCircuit &circuit) const
{
    qla_assert(circuit.numQubits() <= homes_.size(),
               "layout has fewer traps than circuit qubits");

    PulseSchedule schedule;
    std::vector<Seconds> qubit_free(circuit.numQubits(), 0.0);

    const auto emit = [&](PhysicalOp op) {
        schedule.totalErrorBudget += op.errorProbability;
        if (op.kind == PhysicalOp::Kind::Move) {
            schedule.totalCellsMoved += op.movement.distance;
            schedule.totalTurns += op.movement.turns;
            schedule.totalSplits += op.movement.splits;
        }
        schedule.makespan = std::max(schedule.makespan,
                                     op.start + op.duration);
        schedule.ops.push_back(std::move(op));
    };

    for (std::size_t idx = 0; idx < circuit.ops().size(); ++idx) {
        const auto &op = circuit.ops()[idx];
        const circuit::Operands qs = op.qubits();
        const std::vector<std::size_t> operands(qs.begin(), qs.end());
        Seconds start = 0.0;
        for (std::size_t q : operands)
            start = std::max(start, qubit_free[q]);

        Seconds end = start;
        using circuit::OpKind;
        switch (op.kind) {
          case OpKind::MeasureZ:
          case OpKind::MeasureX: {
            PhysicalOp p;
            p.kind = PhysicalOp::Kind::Measure;
            p.qubits = operands;
            p.start = start;
            p.duration = tech_.measureTime;
            p.errorProbability = tech_.measureError;
            p.sourceOp = idx;
            end = start + p.duration;
            emit(std::move(p));
            break;
          }
          case OpKind::Cnot:
          case OpKind::Cz:
          case OpKind::Swap:
          case OpKind::Toffoli: {
            // Shuttle every secondary operand to the first operand's
            // trap, interact, and shuttle back.
            const qccd::Coord target_home = homes_[operands[0]];
            Seconds shuttle_in = 0.0;
            double move_error = 0.0;
            std::vector<qccd::MovementPlan> plans;
            for (std::size_t k = 1; k < operands.size(); ++k) {
                const auto plan = router_.plan(homes_[operands[k]],
                                               target_home);
                qla_assert(plan.has_value(),
                           "no <=2-turn route between traps");
                shuttle_in = std::max(shuttle_in, plan->latency(tech_));
                move_error += plan->errorProbability(tech_);
                plans.push_back(*plan);
            }
            for (auto &plan : plans) {
                PhysicalOp p;
                p.kind = PhysicalOp::Kind::Move;
                p.qubits = operands;
                p.start = start;
                p.duration = plan.latency(tech_);
                p.errorProbability = plan.errorProbability(tech_);
                p.movement = plan;
                p.sourceOp = idx;
                emit(std::move(p));
            }
            PhysicalOp gate;
            gate.kind = PhysicalOp::Kind::LaserGate2;
            gate.qubits = operands;
            gate.start = start + shuttle_in;
            gate.duration = op.kind == OpKind::Toffoli
                ? 3.0 * tech_.doubleGateTime // decomposed 2q pulses
                : tech_.doubleGateTime;
            gate.errorProbability = op.kind == OpKind::Toffoli
                ? 3.0 * tech_.doubleGateError
                : tech_.doubleGateError;
            gate.sourceOp = idx;
            const Seconds gate_end = gate.start + gate.duration;
            emit(std::move(gate));
            // Return trips mirror the inbound moves.
            Seconds shuttle_out = 0.0;
            for (auto &plan : plans) {
                PhysicalOp p;
                p.kind = PhysicalOp::Kind::Move;
                p.qubits = operands;
                p.start = gate_end;
                p.duration = plan.latency(tech_);
                p.errorProbability = plan.errorProbability(tech_);
                std::swap(plan.from, plan.to);
                std::reverse(plan.waypoints.begin(),
                             plan.waypoints.end());
                p.movement = plan;
                p.sourceOp = idx;
                shuttle_out = std::max(shuttle_out, p.duration);
                emit(std::move(p));
            }
            // Sympathetic recooling after transport.
            PhysicalOp cool;
            cool.kind = PhysicalOp::Kind::Cool;
            cool.qubits = operands;
            cool.start = gate_end + shuttle_out;
            cool.duration = tech_.coolingTime;
            cool.errorProbability = 0.0;
            cool.sourceOp = idx;
            end = cool.start + cool.duration;
            emit(std::move(cool));
            (void)move_error;
            break;
          }
          default: {
            PhysicalOp p;
            p.kind = PhysicalOp::Kind::LaserGate1;
            p.qubits = operands;
            p.start = start;
            p.duration = tech_.singleGateTime;
            p.errorProbability = tech_.singleGateError;
            p.sourceOp = idx;
            end = start + p.duration;
            emit(std::move(p));
            break;
          }
        }
        for (std::size_t q : operands)
            qubit_free[q] = end;
    }
    return schedule;
}

std::pair<qccd::TrapGrid, std::vector<qccd::Coord>>
makeLinearLayout(std::size_t num_qubits, Cells spacing)
{
    qla_assert(num_qubits >= 1 && spacing >= 1);
    const Cells width = static_cast<Cells>(num_qubits) * spacing + 2;
    qccd::TrapGrid grid(width, 3);
    grid.carveChannel({0, 1}, {width - 1, 1});
    std::vector<qccd::Coord> homes;
    for (std::size_t q = 0; q < num_qubits; ++q) {
        const qccd::Coord at{static_cast<Cells>(q) * spacing + 1, 1};
        grid.placeTrap(at);
        grid.addIon(qccd::IonKind::Data, at);
        homes.push_back(at);
    }
    return {std::move(grid), std::move(homes)};
}

} // namespace qla::arq
