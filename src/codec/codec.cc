#include "codec/codec.hh"

#include <algorithm>

#include "isa/baseline.hh"
#include "support/logging.hh"

namespace tepic::codec {

namespace {

/** codec::Decoder over the baseline 40-bit image. */
class BaselineBlockDecoder final : public Decoder
{
  public:
    explicit BaselineBlockDecoder(const isa::Image &image)
        : image_(&image)
    {
    }

    const char *name() const override { return "base"; }

    std::size_t blockCount() const override
    {
        return image_->blocks.size();
    }

    void
    decodeBlockInto(isa::BlockId id,
                    std::vector<isa::Operation> &ops) const override
    {
        const isa::BlockLayout &layout = image_->blocks.at(id);
        TEPIC_ASSERT(layout.bitSize % isa::kOpBits == 0,
                     "baseline block size not a multiple of 40 bits");
        support::BitReader reader(image_->bytes.data(),
                                  image_->bitSize);
        reader.seek(layout.bitOffset);
        ops.clear();
        ops.reserve(layout.numOps);
        for (std::uint32_t i = 0; i < layout.numOps; ++i)
            ops.push_back(isa::Operation::decode(
                reader.readBits(isa::kOpBits)));
    }

  private:
    const isa::Image *image_;
};

} // namespace

std::unique_ptr<Decoder>
makeBaseDecoder(const isa::Image &image)
{
    return std::make_unique<BaselineBlockDecoder>(image);
}

std::unique_ptr<Decoder>
makeDecoder(const schemes::CompressedImage &compressed)
{
    return schemes::makeBlockDecoder(compressed);
}

std::unique_ptr<Decoder>
makeDecoder(const schemes::TailoredIsa &isa, const isa::Image &image)
{
    return schemes::makeBlockDecoder(isa, image);
}

std::unique_ptr<Decoder>
makeDecoder(const schemes::DictionaryImage &compressed)
{
    return schemes::makeBlockDecoder(compressed);
}

DictionaryShape
describeShape(const schemes::CompressedImage &compressed)
{
    DictionaryShape shape;
    shape.tables = compressed.tables.size();
    for (std::size_t t = 0; t < compressed.tables.size(); ++t) {
        shape.maxCodeLength = std::max(
            shape.maxCodeLength, compressed.tables[t].maxCodeLength());
        shape.entries += compressed.tables[t].size();
        shape.maxSymbolBits =
            std::max(shape.maxSymbolBits, compressed.symbolBits[t]);
    }
    return shape;
}

std::uint64_t
decodeChecksum(const huffman::CodeTable &table,
               support::BitReader &reader, std::size_t count)
{
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < count; ++i)
        checksum ^= table.decode(reader) + i;
    return checksum;
}

std::uint64_t
decodeChecksumReference(const huffman::CodeTable &table,
                        support::BitReader &reader, std::size_t count)
{
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < count; ++i)
        checksum ^= table.decodeReference(reader) + i;
    return checksum;
}

} // namespace tepic::codec
