/**
 * @file
 * Figure-6 circuit generation tests: the explicit syndrome-extraction
 * circuits executed on the stabilizer tableau must produce trivial
 * syndromes on clean codewords, locate injected errors, and preserve
 * the encoded data.
 */

#include <gtest/gtest.h>

#include "arq/executor.h"
#include "common/rng.h"
#include "ecc/ft_circuits.h"
#include "ecc/steane.h"
#include "quantum/tableau.h"

using namespace qla;
using namespace qla::ecc;

namespace {

/** Tableau with the data row of a block register encoded as |0>_L. */
quantum::StabilizerTableau
encodedBlock(const CssCode &code)
{
    const BlockRegisters reg(code);
    quantum::StabilizerTableau state(reg.total);
    Rng rng(1);
    arq::executeOnTableau(code.zeroEncoderCircuit(), state, rng);
    // The encoder writes qubits [0, n) == the data row.
    return state;
}

ExtractionReadout
extractOnTableau(const CssCode &code, quantum::StabilizerTableau &state,
                 bool detect_x, Rng &rng)
{
    const auto circuit = syndromeExtractionCircuit(code, detect_x);
    const auto result = arq::executeOnTableau(circuit, state, rng);
    return interpretExtraction(code, detect_x, result.measurements);
}

} // namespace

TEST(FtCircuits, CleanCodewordGivesTrivialSyndromes)
{
    const auto &code = steaneCode();
    Rng rng(2);
    for (const bool detect_x : {true, false}) {
        auto state = encodedBlock(code);
        const auto readout = extractOnTableau(code, state, detect_x, rng);
        EXPECT_FALSE(readout.verificationFailed) << detect_x;
        EXPECT_EQ(readout.syndrome, 0u) << detect_x;
    }
}

class InjectedErrorTest : public ::testing::TestWithParam<int>
{
};

TEST_P(InjectedErrorTest, XErrorLocatedByXSyndrome)
{
    const auto &code = steaneCode();
    const std::size_t bad = static_cast<std::size_t>(GetParam());
    Rng rng(3);
    auto state = encodedBlock(code);
    state.x(BlockRegisters(code).data(bad));
    const auto readout = extractOnTableau(code, state, true, rng);
    EXPECT_FALSE(readout.verificationFailed);
    EXPECT_EQ(code.xCorrection(readout.syndrome),
              ecc::QubitMask{1} << bad);
}

TEST_P(InjectedErrorTest, ZErrorLocatedByZSyndrome)
{
    const auto &code = steaneCode();
    const std::size_t bad = static_cast<std::size_t>(GetParam());
    Rng rng(4);
    auto state = encodedBlock(code);
    state.z(BlockRegisters(code).data(bad));
    const auto readout = extractOnTableau(code, state, false, rng);
    EXPECT_FALSE(readout.verificationFailed);
    EXPECT_EQ(code.zCorrection(readout.syndrome),
              ecc::QubitMask{1} << bad);
}

TEST_P(InjectedErrorTest, WrongTypeIsInvisible)
{
    // Z errors are invisible to the X-error extraction and vice versa.
    const auto &code = steaneCode();
    const std::size_t bad = static_cast<std::size_t>(GetParam());
    Rng rng(5);
    auto state = encodedBlock(code);
    state.z(BlockRegisters(code).data(bad));
    EXPECT_EQ(extractOnTableau(code, state, true, rng).syndrome, 0u);
}

INSTANTIATE_TEST_SUITE_P(Qubits, InjectedErrorTest,
                         ::testing::Range(0, 7));

TEST(FtCircuits, ExtractionPreservesTheLogicalState)
{
    // After a full EC cycle the data still satisfies all checks and
    // logical Z (the input was |0>_L).
    const auto &code = steaneCode();
    Rng rng(6);
    auto state = encodedBlock(code);
    arq::executeOnTableau(ecCycleCircuit(code), state, rng);

    quantum::PauliString logical_z(BlockRegisters(code).total);
    for (std::size_t q = 0; q < code.blockLength(); ++q)
        logical_z.set(q, quantum::Pauli::Z);
    EXPECT_EQ(state.deterministicValue(logical_z),
              std::optional<bool>(false));
}

TEST(FtCircuits, RepeatedCyclesStayClean)
{
    const auto &code = steaneCode();
    Rng rng(7);
    auto state = encodedBlock(code);
    for (int round = 0; round < 3; ++round) {
        for (const bool detect_x : {true, false}) {
            const auto readout = extractOnTableau(code, state, detect_x,
                                                  rng);
            EXPECT_EQ(readout.syndrome, 0u)
                << "round " << round << " type " << detect_x;
        }
    }
}

TEST(FtCircuits, CircuitShapes)
{
    const auto &code = steaneCode();
    const auto x_circuit = syndromeExtractionCircuit(code, true);
    // 2n measurements (verification + ancilla).
    EXPECT_EQ(x_circuit.measurementCount(), 14u);
    EXPECT_EQ(x_circuit.numQubits(), 21u);
    EXPECT_TRUE(x_circuit.isClifford());
    const auto cycle = ecCycleCircuit(code);
    EXPECT_EQ(cycle.measurementCount(), 28u);
}

TEST(FtCircuits, WorksForShorCodeToo)
{
    const auto &code = shorCode();
    Rng rng(8);
    auto state = encodedBlock(code);
    state.x(BlockRegisters(code).data(4));
    const auto readout = extractOnTableau(code, state, true, rng);
    // Weight-1 correction restores the codeword (any equivalent qubit
    // within the affected triple is acceptable for Shor's degenerate
    // code: the residual must be non-logical).
    const ecc::QubitMask residual = (ecc::QubitMask{1} << 4)
        ^ code.xCorrection(readout.syndrome);
    EXPECT_FALSE(maskParity(residual & code.logicalZ()));
}
