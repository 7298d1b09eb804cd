/**
 * @file
 * Tests for the unified codec layer: the canonical-Huffman LUT decode
 * fast path against the per-bit reference walk (differential, over
 * randomized tables) and the codec::Decoder implementations against
 * the compiled program.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/codec.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "huffman/huffman.hh"
#include "support/bitstream.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
using core::ArtifactKind;
using core::ArtifactRequest;
using huffman::CodeTable;
using huffman::SymbolHistogram;
using support::Rng;

// --- LUT decode vs canonical reference walk --------------------------

/** Encode @p count random symbols; decode with both paths. */
void
expectLutMatchesReference(const CodeTable &table,
                          const std::vector<std::uint64_t> &symbols)
{
    support::BitWriter writer;
    for (auto symbol : symbols)
        table.encode(symbol, writer);

    support::BitReader lut_reader(writer.bytes().data(),
                                  writer.bitSize());
    support::BitReader ref_reader(writer.bytes().data(),
                                  writer.bitSize());
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        const std::uint64_t via_lut = table.decode(lut_reader);
        const std::uint64_t via_ref =
            table.decodeReference(ref_reader);
        ASSERT_EQ(via_lut, via_ref) << "symbol index " << i;
        ASSERT_EQ(via_lut, symbols[i]) << "symbol index " << i;
        ASSERT_EQ(lut_reader.position(), ref_reader.position())
            << "symbol index " << i;
    }
    EXPECT_EQ(lut_reader.position(), writer.bitSize());
}

class LutDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(LutDifferential, MatchesReferenceOnRandomTables)
{
    const std::uint64_t seed =
        std::uint64_t(GetParam()) * 0x9e3779b9u + 17;
    Rng rng(seed);
    // Alphabet sizes from degenerate to larger-than-LUT; code-length
    // bounds straddling the 11-bit first-level window on both sides.
    const std::size_t alphabet = 1 + rng.below(600);
    unsigned max_length = unsigned(4 + rng.below(13));  // 4..16
    while ((std::uint64_t(1) << max_length) < alphabet)
        ++max_length;
    SymbolHistogram hist;
    for (std::size_t s = 0; s < alphabet; ++s)
        hist.add(s, rng.below(10000) + 1);

    const CodeTable table = CodeTable::build(hist, max_length);
    std::vector<std::uint64_t> symbols;
    for (int i = 0; i < 2000; ++i)
        symbols.push_back(rng.below(alphabet));
    expectLutMatchesReference(table, symbols);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LutDifferential,
                         ::testing::Range(0, 20));

TEST(LutDecode, OverflowSlotsFallBackToTheCanonicalWalk)
{
    // Exponentially skewed counts force a deep tree: with a 16-bit
    // bound and 40 symbols whose counts halve, many codes exceed the
    // 11-bit LUT window, so this exercises the overflow path.
    SymbolHistogram hist;
    std::uint64_t count = std::uint64_t(1) << 50;
    for (std::uint64_t s = 0; s < 40; ++s) {
        hist.add(s, count);
        count = count > 1 ? count / 2 : 1;
    }
    const CodeTable table = CodeTable::build(hist, 16);
    ASSERT_GT(table.maxCodeLength(), table.lutBits())
        << "histogram failed to produce codes past the LUT window";
    EXPECT_EQ(table.lutBits(), 11u);

    Rng rng(7);
    std::vector<std::uint64_t> symbols;
    for (int i = 0; i < 4000; ++i)
        symbols.push_back(rng.below(40));  // uniform: hits rare codes
    expectLutMatchesReference(table, symbols);
}

TEST(LutDecode, ShortTablesUseNarrowWindows)
{
    SymbolHistogram hist;
    hist.add(1, 10);
    hist.add(2, 1);
    const CodeTable table = CodeTable::build(hist, 8);
    EXPECT_EQ(table.lutBits(), table.maxCodeLength());
    EXPECT_LE(table.lutBits(), 11u);
    expectLutMatchesReference(table, {1, 2, 1, 1, 2, 1});
}

TEST(LutDecode, ChecksumKernelsAgree)
{
    SymbolHistogram hist;
    Rng rng(3);
    for (int i = 0; i < 300; ++i)
        hist.add(std::uint64_t(i), rng.below(5000) + 1);
    const CodeTable table = CodeTable::build(hist, 16);
    support::BitWriter writer;
    for (int i = 0; i < 5000; ++i)
        table.encode(rng.below(300), writer);

    support::BitReader lut_reader(writer.bytes().data(),
                                  writer.bitSize());
    support::BitReader ref_reader(writer.bytes().data(),
                                  writer.bitSize());
    EXPECT_EQ(codec::decodeChecksum(table, lut_reader, 5000),
              codec::decodeChecksumReference(table, ref_reader, 5000));
}

TEST(SymbolHistogram, TotalCountTracksAdds)
{
    SymbolHistogram hist;
    EXPECT_EQ(hist.totalCount(), 0u);
    hist.add(5);
    hist.add(5, 9);
    hist.add(7, 100);
    EXPECT_EQ(hist.totalCount(), 110u);
    EXPECT_EQ(hist.distinctSymbols(), 2u);
}

// --- Decoder implementations over real artifacts ---------------------

const core::Artifacts &
firArtifacts()
{
    static const core::Artifacts instance =
        core::ArtifactEngine::buildUncached(
            workloads::workloadByName("fir").source,
            ArtifactRequest{ArtifactKind::kBase, ArtifactKind::kByte,
                            ArtifactKind::kStream, ArtifactKind::kFull,
                            ArtifactKind::kTailored},
            {});
    return instance;
}

/** Flatten the program's block @p id into its operation sequence. */
std::vector<isa::Operation>
programOps(const isa::VliwProgram &program, isa::BlockId id)
{
    std::vector<isa::Operation> ops;
    for (const auto &mop : program.blocks()[id].mops)
        for (const auto &op : mop.ops())
            ops.push_back(op);
    return ops;
}

TEST(Decoder, EverySchemeDecodesBackToTheProgram)
{
    const auto &a = firArtifacts();
    const auto &program = a.compiled.program;
    const std::unique_ptr<codec::Decoder> decoders[] = {
        codec::makeBaseDecoder(a.baseImage()),
        codec::makeDecoder(a.byteImage()),
        codec::makeDecoder(a.streamImage(0)),
        codec::makeDecoder(a.fullImage()),
        codec::makeDecoder(a.tailoredIsa(), a.tailoredImage()),
    };
    for (const auto &decoder : decoders) {
        SCOPED_TRACE(decoder->name());
        ASSERT_EQ(decoder->blockCount(), program.blocks().size());
        for (const auto &blk : program.blocks())
            EXPECT_EQ(decoder->decodeBlock(blk.id),
                      programOps(program, blk.id));
    }
}

} // namespace
