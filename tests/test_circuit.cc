/**
 * @file
 * Circuit-IR tests: construction, analysis, builders, and the executor
 * on both back-ends (including classically conditioned teleportation
 * fix-ups).
 */

#include <gtest/gtest.h>

#include <vector>

#include "arq/executor.h"
#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "common/rng.h"
#include "quantum/statevector.h"
#include "quantum/tableau.h"

using namespace qla;
using namespace qla::circuit;

TEST(CircuitIr, ArityAndClifford)
{
    EXPECT_EQ(opArity(OpKind::H), 1);
    EXPECT_EQ(opArity(OpKind::Cnot), 2);
    EXPECT_EQ(opArity(OpKind::Toffoli), 3);
    EXPECT_TRUE(opIsClifford(OpKind::Cnot));
    EXPECT_FALSE(opIsClifford(OpKind::T));
    EXPECT_FALSE(opIsClifford(OpKind::Toffoli));
}

TEST(CircuitIr, OperandViewMatchesArity)
{
    // Every kind's operand view holds exactly its first opArity()
    // operand slots, in order.
    for (int k = 0; k <= static_cast<int>(OpKind::MeasureX); ++k) {
        const auto kind = static_cast<OpKind>(k);
        const Op op{kind, 7, 8, 9};
        const Operands qs = op.qubits();
        ASSERT_EQ(qs.size(), static_cast<std::size_t>(opArity(kind)))
            << opName(kind);
        const std::vector<std::size_t> expected{7, 8, 9};
        EXPECT_EQ(std::vector<std::size_t>(qs.begin(), qs.end()),
                  std::vector<std::size_t>(expected.begin(),
                                           expected.begin() + qs.size()))
            << opName(kind);
        for (std::size_t i = 0; i < qs.size(); ++i)
            EXPECT_EQ(qs[i], expected[i]);
    }
    EXPECT_EQ(Operands().size(), 0u);
}

TEST(CircuitIr, CountsAndCliffordDetection)
{
    QuantumCircuit c(3);
    c.h(0);
    c.cnot(0, 1);
    c.cnot(1, 2);
    EXPECT_EQ(c.countKind(OpKind::Cnot), 2u);
    EXPECT_TRUE(c.isClifford());
    c.t(2);
    EXPECT_FALSE(c.isClifford());
}

TEST(CircuitIr, AsapLayersRespectDependencies)
{
    QuantumCircuit c(3);
    c.h(0);        // layer 0
    c.cnot(0, 1);  // layer 1 (waits for h)
    c.h(2);        // layer 0 (independent)
    c.cnot(1, 2);  // layer 2
    const auto layers = c.asapLayers();
    EXPECT_EQ(layers, (std::vector<std::size_t>{0, 1, 0, 2}));
    EXPECT_EQ(c.depth(), 3u);
}

TEST(CircuitIr, MeasurementCount)
{
    const auto c = teleportation();
    EXPECT_EQ(c.measurementCount(), 2u);
}

TEST(CircuitIr, ToStringListsOps)
{
    QuantumCircuit c(2, "demo");
    c.h(0);
    c.cnot(0, 1);
    const std::string text = c.toString();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("h 0"), std::string::npos);
    EXPECT_NE(text.find("cnot 0 1"), std::string::npos);
}

TEST(Builders, BellAndGhzShapes)
{
    EXPECT_EQ(bellPair().numQubits(), 2u);
    EXPECT_EQ(ghz(7).numQubits(), 7u);
    EXPECT_EQ(ghz(7).countKind(OpKind::Cnot), 6u);
}

TEST(Builders, QftGateCount)
{
    // n H gates, n(n-1)/2 controlled rotations, floor(n/2) swaps.
    const auto c = qft(6);
    EXPECT_EQ(c.countKind(OpKind::H), 6u);
    EXPECT_EQ(c.countKind(OpKind::Cz), 15u);
    EXPECT_EQ(c.countKind(OpKind::Swap), 3u);
}

TEST(Executor, GhzOnTableau)
{
    Rng rng(21);
    for (int trial = 0; trial < 16; ++trial) {
        quantum::StabilizerTableau state(4);
        arq::executeOnTableau(ghz(4), state, rng);
        const bool first = state.measureZ(0, rng);
        for (std::size_t q = 1; q < 4; ++q)
            EXPECT_EQ(state.measureZ(q, rng), first);
    }
}

TEST(Executor, TeleportationMovesStateOnTableau)
{
    // Teleport |+>: the received qubit must satisfy X = +1.
    Rng rng(22);
    for (int trial = 0; trial < 32; ++trial) {
        quantum::StabilizerTableau state(3);
        state.h(0); // source |+>
        arq::executeOnTableau(teleportation(), state, rng);
        const auto x2 = state.deterministicValue(
            quantum::PauliString::fromString("IIX"));
        ASSERT_TRUE(x2.has_value());
        EXPECT_FALSE(*x2);
    }
}

TEST(Executor, TeleportationExactOnDense)
{
    Rng rng(23);
    for (int trial = 0; trial < 8; ++trial) {
        quantum::StateVector psi(3);
        psi.h(0);
        psi.t(0);
        psi.s(0); // arbitrary non-Clifford source state
        arq::executeOnStateVector(teleportation(), psi, rng);
        quantum::StateVector ref(1);
        ref.h(0);
        ref.t(0);
        ref.s(0);
        // Received Bloch vector matches the reference exactly.
        EXPECT_NEAR(psi.expectation(
                        quantum::PauliString::fromString("IIX")),
                    ref.expectation(
                        quantum::PauliString::fromString("X")),
                    1e-9);
        EXPECT_NEAR(psi.expectation(
                        quantum::PauliString::fromString("IIZ")),
                    ref.expectation(
                        quantum::PauliString::fromString("Z")),
                    1e-9);
    }
}

TEST(Executor, ConditionalOpsOnlyFireOnOne)
{
    // measure |0> (always 0) and condition an X on it: never applied.
    QuantumCircuit c(2);
    c.measureZ(0);
    c.xIf(1, 0);
    Rng rng(24);
    quantum::StabilizerTableau state(2);
    arq::executeOnTableau(c, state, rng);
    EXPECT_FALSE(state.measureZ(1, rng));

    // Now force the measured qubit to 1.
    QuantumCircuit c2(2);
    c2.x(0);
    c2.measureZ(0);
    c2.xIf(1, 0);
    quantum::StabilizerTableau state2(2);
    arq::executeOnTableau(c2, state2, rng);
    EXPECT_TRUE(state2.measureZ(1, rng));
}

TEST(Executor, MeasurementRecordOrder)
{
    QuantumCircuit c(3);
    c.x(1);
    c.measureZ(0);
    c.measureZ(1);
    c.measureZ(2);
    Rng rng(25);
    quantum::StabilizerTableau state(3);
    const auto result = arq::executeOnTableau(c, state, rng);
    ASSERT_EQ(result.measurements.size(), 3u);
    EXPECT_FALSE(result.measurements[0]);
    EXPECT_TRUE(result.measurements[1]);
    EXPECT_FALSE(result.measurements[2]);
}

TEST(Executor, PrepResetsToZero)
{
    QuantumCircuit c(1);
    c.prepZ(0);
    c.measureZ(0);
    Rng rng(26);
    quantum::StabilizerTableau state(1);
    state.x(0); // dirty
    const auto result = arq::executeOnTableau(c, state, rng);
    EXPECT_FALSE(result.measurements[0]);
}

TEST(Executor, TableauRejectsNonClifford)
{
    QuantumCircuit c(1);
    c.t(0);
    Rng rng(27);
    quantum::StabilizerTableau state(1);
    EXPECT_DEATH(
        { arq::executeOnTableau(c, state, rng); }, "stabilizer");
}
