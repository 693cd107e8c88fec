/**
 * @file
 * Circuit text-format tests: round trips, error reporting, and executing
 * parsed circuits.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "arq/executor.h"
#include "circuit/builders.h"
#include "circuit/parser.h"
#include "common/rng.h"
#include "quantum/tableau.h"

using namespace qla;
using namespace qla::circuit;

TEST(Parser, MinimalCircuit)
{
    const auto result = parseCircuit("qubits 2\nh 0\ncnot 0 1\n");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.circuit->numQubits(), 2u);
    EXPECT_EQ(result.circuit->size(), 2u);
    EXPECT_EQ(result.circuit->ops()[1].kind, OpKind::Cnot);
}

TEST(Parser, CommentsAndBlankLines)
{
    const auto result = parseCircuit(
        "# my circuit\n\nqubits 1\n  # indented comment\nx 0 # flip\n");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.circuit->size(), 1u);
    EXPECT_EQ(result.circuit->name(), "my circuit");
}

TEST(Parser, ConditionalSuffix)
{
    const auto result = parseCircuit(
        "qubits 2\nmeasure_z 0\nx 1 ? m0\n");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.circuit->ops()[1].condition, 0);
}

TEST(Parser, ErrorUnknownOp)
{
    const auto result = parseCircuit("qubits 1\nfrobnicate 0\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("line 2"), std::string::npos);
    EXPECT_NE(result.error.find("frobnicate"), std::string::npos);
}

TEST(Parser, ErrorMissingQubitsDirective)
{
    EXPECT_FALSE(parseCircuit("h 0\n").ok());
    EXPECT_FALSE(parseCircuit("").ok());
}

TEST(Parser, ErrorOutOfRangeOperand)
{
    const auto result = parseCircuit("qubits 2\ncnot 0 2\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("out of range"), std::string::npos);
}

TEST(Parser, ErrorMissingOperand)
{
    EXPECT_FALSE(parseCircuit("qubits 3\ntoffoli 0 1\n").ok());
}

TEST(Parser, ErrorForwardCondition)
{
    // Condition on a measurement that has not happened yet.
    EXPECT_FALSE(parseCircuit("qubits 2\nx 1 ? m0\nmeasure_z 0\n").ok());
}

TEST(Parser, ErrorDuplicateQubits)
{
    EXPECT_FALSE(parseCircuit("qubits 2\nqubits 3\n").ok());
}

namespace {

class RoundTripTest
    : public ::testing::TestWithParam<const char *>
{
  public:
    static QuantumCircuit
    build(const std::string &which)
    {
        if (which == "bell")
            return bellPair();
        if (which == "ghz")
            return ghz(6);
        if (which == "teleport")
            return teleportation();
        return qft(5);
    }
};

} // namespace

TEST_P(RoundTripTest, SerializeParseSerialize)
{
    const auto original = build(GetParam());
    const std::string text = serializeCircuit(original);
    const auto parsed = parseCircuit(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(serializeCircuit(*parsed.circuit), text);
    EXPECT_EQ(parsed.circuit->size(), original.size());
    EXPECT_EQ(parsed.circuit->numQubits(), original.numQubits());
}

INSTANTIATE_TEST_SUITE_P(Builders, RoundTripTest,
                         ::testing::Values("bell", "ghz", "teleport",
                                           "qft"));

TEST(Parser, ParsedTeleportationStillTeleports)
{
    const auto parsed = parseCircuit(
        serializeCircuit(teleportation()));
    ASSERT_TRUE(parsed.ok());
    Rng rng(13);
    for (int trial = 0; trial < 16; ++trial) {
        quantum::StabilizerTableau state(3);
        state.h(0); // teleport |+>
        arq::executeOnTableau(*parsed.circuit, state, rng);
        const auto x2 = state.deterministicValue(
            quantum::PauliString::fromString("IIX"));
        ASSERT_TRUE(x2.has_value());
        EXPECT_FALSE(*x2);
    }
}

namespace {

/** A valid circuit using every op kind and both condition forms. */
QuantumCircuit
everyKind()
{
    QuantumCircuit c(4, "every kind");
    c.prepZ(0);
    c.prepX(1);
    c.h(2);
    c.s(3);
    c.sdg(0);
    c.t(1);
    c.tdg(2);
    c.x(3);
    c.y(0);
    c.z(1);
    c.cnot(0, 1);
    c.cz(1, 2);
    c.swapGate(2, 3);
    c.toffoli(0, 1, 3);
    c.measureZ(0);
    c.measureX(1);
    c.xIf(2, 0);
    c.zIf(3, 1);
    return c;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        const std::size_t stop = end == std::string::npos ? text.size()
                                                          : end;
        lines.push_back(text.substr(start, stop - start));
        start = stop + 1;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + '\n';
    return out;
}

/** One seeded mutation of @p text: a byte flip, a truncation, a
 *  duplicated line, or a numeric token replaced by an edge case (zero,
 *  negative, 2^64 and beyond, a repeated operand, an out-of-range
 *  qubit, a malformed condition). */
std::string
mutate(const std::string &text, std::size_t num_qubits, Rng &rng)
{
    static const char *const kNumbers[] = {
        "0", "-1", "-0", "+1", "18446744073709551616",
        "18446744073709551615", "4294967296", "2147483648",
        "99999999999999999999999", "1e3", "0x10", "01", "", "?", "m0",
    };
    std::string out = text;
    if (out.empty())
        return out;
    switch (rng.uniformInt(5)) {
      case 0: { // flip bytes
        const std::uint64_t flips = 1 + rng.uniformInt(3);
        for (std::uint64_t f = 0; f < flips && !out.empty(); ++f)
            out[rng.uniformInt(out.size())] =
                static_cast<char>(rng.uniformInt(256));
        return out;
      }
      case 1: // truncate
        return out.substr(0, rng.uniformInt(out.size() + 1));
      case 2: { // duplicate a line somewhere
        auto lines = splitLines(out);
        const std::string copy = lines[rng.uniformInt(lines.size())];
        lines.insert(lines.begin()
                         + static_cast<std::ptrdiff_t>(
                             rng.uniformInt(lines.size() + 1)),
                     copy);
        return joinLines(lines);
      }
      default: { // replace a numeric token of one line
        auto lines = splitLines(out);
        std::string &line = lines[rng.uniformInt(lines.size())];
        std::vector<std::string> tokens;
        std::istringstream in(line);
        for (std::string token; in >> token;)
            tokens.push_back(token);
        if (tokens.size() < 2)
            return joinLines(lines);
        const std::size_t at = 1 + rng.uniformInt(tokens.size() - 1);
        switch (rng.uniformInt(4)) {
          case 0:
            tokens[at] = kNumbers[rng.uniformInt(std::size(kNumbers))];
            break;
          case 1: // repeat another operand of the same op
            tokens[at] = tokens[1 + rng.uniformInt(tokens.size() - 1)];
            break;
          case 2: // just out of range
            tokens[at] = std::to_string(num_qubits
                                        + rng.uniformInt(2));
            break;
          default: // a condition on a nonsense measurement
            tokens.push_back("?");
            tokens.push_back(rng.bernoulli(0.5)
                                 ? "m99999999999999999999"
                                 : "m-1");
            break;
        }
        line.clear();
        for (const std::string &token : tokens)
            line += (line.empty() ? "" : " ") + token;
        return joinLines(lines);
      }
    }
}

} // namespace

TEST(Parser, MutationFuzzParsesOrReportsNeverAborts)
{
    // The parser's contract is "never throws or exits": every mutated
    // input either parses -- and then round-trips through the printer
    // exactly -- or is refused with an error message.
    const std::vector<QuantumCircuit> seeds{
        bellPair(), ghz(5), teleportation(), qft(4), everyKind()};
    Rng rng(2718);
    int parsed = 0;
    int refused = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const QuantumCircuit &seed = seeds[rng.uniformInt(seeds.size())];
        std::string text = serializeCircuit(seed);
        for (std::uint64_t m = 1 + rng.uniformInt(3); m > 0; --m)
            text = mutate(text, seed.numQubits(), rng);
        const ParseResult result = parseCircuit(text);
        if (!result.ok()) {
            EXPECT_FALSE(result.error.empty()) << text;
            ++refused;
            continue;
        }
        ++parsed;
        const std::string printed = serializeCircuit(*result.circuit);
        const ParseResult again = parseCircuit(printed);
        ASSERT_TRUE(again.ok()) << again.error << "\n" << printed;
        EXPECT_EQ(serializeCircuit(*again.circuit), printed) << text;
        EXPECT_EQ(again.circuit->toString(), result.circuit->toString())
            << text;
        EXPECT_EQ(again.circuit->name(), result.circuit->name()) << text;
    }
    // Both outcomes are exercised.
    EXPECT_GT(parsed, 400);
    EXPECT_GT(refused, 400);
}

TEST(Parser, ErrorRepeatedOperand)
{
    EXPECT_FALSE(parseCircuit("qubits 2\ncnot 1 1\n").ok());
    EXPECT_FALSE(parseCircuit("qubits 3\ntoffoli 0 2 0\n").ok());
}

TEST(Parser, ErrorMalformedNumbers)
{
    EXPECT_FALSE(parseCircuit("qubits -1\n").ok());
    EXPECT_FALSE(parseCircuit("qubits 18446744073709551616\n").ok());
    EXPECT_FALSE(parseCircuit("qubits 2\nh -0\n").ok());
    EXPECT_FALSE(parseCircuit("qubits 2\nh +1\n").ok());
    EXPECT_FALSE(parseCircuit("qubits 2\nh 1x\n").ok());
    EXPECT_FALSE(
        parseCircuit("qubits 2\nmeasure_z 0\nx 1 ? m0x\n").ok());
    EXPECT_FALSE(
        parseCircuit("qubits 2\nmeasure_z 0\nx 1 ? m-0\n").ok());
    EXPECT_FALSE(parseCircuit("qubits 2\nmeasure_z 0\n"
                              "x 1 ? m99999999999999999999\n")
                     .ok());
    EXPECT_FALSE(
        parseCircuit("qubits 2\nmeasure_z 0\nx 1 ? m0 junk\n").ok());
    EXPECT_TRUE(parseCircuit("qubits 2\nmeasure_z 0\nx 1 ? m0\n").ok());
}
