/**
 * @file
 * The unified decode interface.
 *
 * Every encoding scheme in the study (baseline 40-bit, the Huffman
 * alphabets, the tailored ISA, the dictionary scheme) decodes a block
 * of an encoded isa::Image back into its Operation vector. Before
 * this interface existed each consumer reached into per-scheme decode
 * internals (CodeTable::decode, ad-hoc tailored/dictionary readers);
 * codec::Decoder is the one seam they all go through now. Concrete
 * implementations live next to their encoders in src/schemes/ (and
 * src/codec/codec.cc for the baseline); see codec/codec.hh for the
 * factories.
 *
 * This header is deliberately header-only and depends on nothing
 * above src/isa.
 *
 * The fetch simulator never decodes: cycle accounting, L0/ATB state
 * and bus bit flips are computed from the image metadata and the
 * trace (DESIGN.md §10). Decoders serve the round-trip checks, the
 * decode microbenchmarks, the tools and the examples, each of which
 * builds one when it needs it; nothing caches them.
 */

#ifndef TEPIC_CODEC_DECODER_HH
#define TEPIC_CODEC_DECODER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/image.hh"
#include "isa/operation.hh"
#include "isa/program.hh"

namespace tepic::codec {

/**
 * Decodes blocks of one encoded image. Implementations are immutable
 * views over the image (plus whatever tables the scheme needs), must
 * not outlive it, and are safe to share across threads for const use.
 */
class Decoder
{
  public:
    virtual ~Decoder() = default;

    /** Scheme label of the decoded image (e.g. "base", "huff-full"). */
    virtual const char *name() const = 0;

    /** Number of static blocks in the image. */
    virtual std::size_t blockCount() const = 0;

    /** Decode block @p id into @p out (cleared first). */
    virtual void decodeBlockInto(isa::BlockId id,
                                 std::vector<isa::Operation> &out)
        const = 0;

    /** Convenience: decode one block into a fresh vector. */
    std::vector<isa::Operation>
    decodeBlock(isa::BlockId id) const
    {
        std::vector<isa::Operation> ops;
        decodeBlockInto(id, ops);
        return ops;
    }

    /** Convenience: decode the whole image, one vector per block. */
    std::vector<std::vector<isa::Operation>>
    decodeAll() const
    {
        std::vector<std::vector<isa::Operation>> blocks;
        blocks.resize(blockCount());
        for (std::size_t id = 0; id < blocks.size(); ++id)
            decodeBlockInto(isa::BlockId(id), blocks[id]);
        return blocks;
    }
};

} // namespace tepic::codec

#endif // TEPIC_CODEC_DECODER_HH
