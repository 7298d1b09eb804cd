#include "schemes/dictionary.hh"

#include <algorithm>
#include <map>

#include "support/bitstream.hh"
#include "support/logging.hh"

namespace tepic::schemes {

namespace {

unsigned
bitsFor(std::size_t n)
{
    unsigned bits = 1;
    while ((std::size_t(1) << bits) < n)
        ++bits;
    return bits;
}

} // namespace

DictionaryImage
compressDictionary(const isa::VliwProgram &program,
                   const DictionaryOptions &options)
{
    TEPIC_ASSERT(options.entries >= 2, "dictionary too small");

    // Rank whole ops by static frequency.
    std::map<std::uint64_t, std::uint64_t> freq;
    for (const auto &blk : program.blocks())
        for (const auto &mop : blk.mops)
            for (const auto &op : mop.ops())
                ++freq[op.encode()];

    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked;
    ranked.reserve(freq.size());
    for (const auto &[bits, count] : freq)
        ranked.emplace_back(count, bits);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;  // deterministic ties
              });

    DictionaryImage out;
    const std::size_t size =
        std::min<std::size_t>(options.entries, ranked.size());
    out.dictionary.reserve(size);
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    for (std::size_t i = 0; i < size; ++i) {
        out.dictionary.push_back(ranked[i].second);
        index[ranked[i].second] = std::uint32_t(i);
    }
    out.indexBits = bitsFor(options.entries);

    support::BitWriter writer;
    out.image.scheme = "dict" + std::to_string(options.entries);
    out.image.blocks.resize(program.blocks().size());
    std::uint64_t align_pad = 0;
    for (const auto &blk : program.blocks()) {
        const std::size_t before = writer.bitSize();
        writer.alignToByte();
        align_pad += writer.bitSize() - before;
        isa::BlockLayout &layout = out.image.blocks[blk.id];
        layout.bitOffset = writer.bitSize();
        layout.numMops = std::uint32_t(blk.mops.size());
        layout.numOps = std::uint32_t(blk.opCount());
        for (const auto &mop : blk.mops) {
            for (const auto &op : mop.ops()) {
                const std::uint64_t bits = op.encode();
                auto it = index.find(bits);
                if (it != index.end()) {
                    writer.writeBit(true);
                    writer.writeBits(it->second, out.indexBits);
                    ++out.hitOps;
                } else {
                    writer.writeBit(false);
                    writer.writeBits(bits, isa::kOpBits);
                    ++out.escapeOps;
                }
            }
        }
        layout.bitSize = writer.bitSize() - layout.bitOffset;
    }
    out.image.bitSize = writer.bitSize();
    out.image.bytes = writer.takeBytes();
    // Provenance: every op spends one flag bit, then either a
    // dictionary index or a full 40-bit escape.
    out.image.ledger.addBits("flag", out.hitOps + out.escapeOps);
    out.image.ledger.addBits("dict_index",
                             out.hitOps * out.indexBits);
    out.image.ledger.addBits("escape", out.escapeOps * isa::kOpBits);
    out.image.ledger.addBits("align_pad", align_pad);
    out.image.ledger.assertTiles(out.image.bitSize,
                                 out.image.scheme);
    return out;
}

std::vector<std::vector<isa::Operation>>
decompressDictionary(const DictionaryImage &compressed)
{
    return makeBlockDecoder(compressed)->decodeAll();
}

namespace {

class DictionaryBlockDecoder final : public codec::Decoder
{
  public:
    explicit DictionaryBlockDecoder(const DictionaryImage &compressed)
        : compressed_(&compressed)
    {
    }

    const char *name() const override { return "dict"; }

    std::size_t blockCount() const override
    {
        return compressed_->image.blocks.size();
    }

    void
    decodeBlockInto(isa::BlockId id,
                    std::vector<isa::Operation> &ops) const override
    {
        const isa::Image &image = compressed_->image;
        const isa::BlockLayout &layout = image.blocks.at(id);
        support::BitReader reader(image.bytes.data(), image.bitSize);
        reader.seek(layout.bitOffset);
        ops.clear();
        ops.reserve(layout.numOps);
        for (std::uint32_t i = 0; i < layout.numOps; ++i) {
            std::uint64_t bits;
            if (reader.readBit()) {
                const auto idx =
                    reader.readBits(compressed_->indexBits);
                TEPIC_ASSERT(idx < compressed_->dictionary.size(),
                             "bad dictionary index");
                bits = compressed_->dictionary[idx];
            } else {
                bits = reader.readBits(isa::kOpBits);
            }
            ops.push_back(isa::Operation::decode(bits));
        }
    }

  private:
    const DictionaryImage *compressed_;
};

} // namespace

std::unique_ptr<codec::Decoder>
makeBlockDecoder(const DictionaryImage &compressed)
{
    return std::make_unique<DictionaryBlockDecoder>(compressed);
}

std::uint64_t
dictionaryDecoderTransistors(const DictionaryImage &img)
{
    const std::uint64_t cells =
        std::uint64_t(img.dictionary.size()) * isa::kOpBits;
    return 6 * cells + 2 * isa::kOpBits + 2 * img.indexBits;
}

} // namespace tepic::schemes
