#include "schemes/tailored.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "support/bitstream.hh"
#include "support/logging.hh"

namespace tepic::schemes {

namespace {

using isa::FieldKind;
using isa::Format;
using isa::Opcode;
using isa::Operation;
using isa::OpType;

unsigned
bitsFor(std::size_t distinct_values)
{
    TEPIC_ASSERT(distinct_values > 0);
    unsigned bits = 0;
    while ((std::size_t(1) << bits) < distinct_values)
        ++bits;
    return bits;
}

/** Index of @p value in the sorted used-value list. */
unsigned
valueIndex(const std::vector<std::uint32_t> &values,
           std::uint32_t value)
{
    auto it = std::lower_bound(values.begin(), values.end(), value);
    TEPIC_ASSERT(it != values.end() && *it == value,
                 "value ", value, " not in tailored dictionary");
    return unsigned(it - values.begin());
}

} // namespace

TailoredIsa
TailoredIsa::build(const isa::VliwProgram &program)
{
    TailoredIsa isa;

    // Gather used (type, opcode) pairs and per-slot value sets.
    std::set<std::uint32_t> types;
    std::map<std::uint32_t, std::set<std::uint32_t>> opcodes;
    std::array<std::vector<std::set<std::uint32_t>>, isa::kNumFormats>
        slot_values;
    for (unsigned f = 0; f < isa::kNumFormats; ++f)
        slot_values[f].resize(
            isa::formatFields(Format(f)).size());

    for (const auto &blk : program.blocks()) {
        for (const auto &mop : blk.mops) {
            for (const auto &op : mop.ops()) {
                const auto type = std::uint32_t(op.opType());
                const auto opcode = std::uint32_t(op.opcode());
                types.insert(type);
                opcodes[type].insert(opcode);
                const Format format = op.format();
                isa.formats_[unsigned(format)].used = true;
                const auto fields = isa::formatFields(format);
                for (std::size_t s = 0; s < fields.size(); ++s) {
                    const std::uint32_t value =
                        fields[s].kind == FieldKind::kReserved
                            ? 0 : op.field(fields[s].kind);
                    slot_values[unsigned(format)][s].insert(value);
                }
            }
        }
    }
    TEPIC_ASSERT(!types.empty(), "empty program");

    isa.usedTypes_.assign(types.begin(), types.end());
    isa.optWidth_ = bitsFor(isa.usedTypes_.size());
    std::size_t max_opcodes = 1;
    for (auto &[type, set] : opcodes) {
        isa.usedOpcodes_[type].assign(set.begin(), set.end());
        max_opcodes = std::max(max_opcodes, set.size());
    }
    isa.opcWidth_ = bitsFor(max_opcodes);

    // Per-slot tailored widths. Tail, OpType and OpCode live in the
    // fixed header; Reserved slots vanish.
    for (unsigned f = 0; f < isa::kNumFormats; ++f) {
        TailoredFormat &tf = isa.formats_[f];
        if (!tf.used)
            continue;
        const auto fields = isa::formatFields(Format(f));
        for (std::size_t s = 0; s < fields.size(); ++s) {
            const FieldKind kind = fields[s].kind;
            if (kind == FieldKind::kTail || kind == FieldKind::kOpType ||
                kind == FieldKind::kOpcode) {
                continue;
            }
            TailoredField field;
            field.kind = kind;
            field.originalWidth = fields[s].width;
            if (kind == FieldKind::kReserved) {
                field.width = 0;  // dropped entirely
            } else {
                const auto &vals = slot_values[f][s];
                field.values.assign(vals.begin(), vals.end());
                field.width =
                    vals.size() <= 1 ? 0 : bitsFor(vals.size());
            }
            tf.bodyBits += field.width;
            tf.fields.push_back(std::move(field));
        }
    }
    return isa;
}

unsigned
TailoredIsa::typeIndex(std::uint32_t type) const
{
    return valueIndex(usedTypes_, type);
}

unsigned
TailoredIsa::opcodeIndex(std::uint32_t type, std::uint32_t opcode) const
{
    auto it = usedOpcodes_.find(type);
    TEPIC_ASSERT(it != usedOpcodes_.end(), "unknown op type ", type);
    return valueIndex(it->second, opcode);
}

unsigned
TailoredIsa::opBits(OpType type, Opcode opcode) const
{
    const Format format = isa::formatFor(type, opcode);
    const TailoredFormat &tf = formats_[unsigned(format)];
    TEPIC_ASSERT(tf.used, "format not in tailored ISA");
    return headerBits() + tf.bodyBits;
}

isa::Image
TailoredIsa::encode(const isa::VliwProgram &program) const
{
    support::BitWriter writer;
    isa::Image image;
    image.scheme = "tailored";
    image.blocks.resize(program.blocks().size());

    // Size provenance: the fixed per-op header components and each
    // field kind's allotted (tailored) width, accumulated program-
    // wide then charged as ledger leaves below.
    std::uint64_t ops = 0;
    std::uint64_t align_pad = 0;
    std::map<FieldKind, std::uint64_t> field_bits;

    for (const auto &blk : program.blocks()) {
        const std::size_t before = writer.bitSize();
        writer.alignToByte();
        align_pad += writer.bitSize() - before;
        isa::BlockLayout &layout = image.blocks[blk.id];
        layout.bitOffset = writer.bitSize();
        layout.numMops = std::uint32_t(blk.mops.size());
        layout.numOps = std::uint32_t(blk.opCount());
        for (const auto &mop : blk.mops) {
            for (const auto &op : mop.ops()) {
                const auto type = std::uint32_t(op.opType());
                const auto opcode = std::uint32_t(op.opcode());
                writer.writeBit(op.tail());
                writer.writeBits(typeIndex(type), optWidth_);
                writer.writeBits(opcodeIndex(type, opcode), opcWidth_);
                ++ops;
                const TailoredFormat &tf =
                    formats_[unsigned(op.format())];
                for (const auto &field : tf.fields) {
                    if (field.width == 0)
                        continue;
                    const std::uint32_t value = op.field(field.kind);
                    writer.writeBits(
                        valueIndex(field.values, value), field.width);
                    field_bits[field.kind] += field.width;
                }
            }
        }
        layout.bitSize = writer.bitSize() - layout.bitOffset;
    }
    image.bitSize = writer.bitSize();
    image.bytes = writer.takeBytes();
    image.ledger.addBits("header/tail", ops);
    image.ledger.addBits("header/optype", ops * optWidth_);
    image.ledger.addBits("header/opcode", ops * opcWidth_);
    for (const auto &[kind, bits] : field_bits)
        image.ledger.addBits(
            std::string("field/") + isa::fieldKindName(kind), bits);
    image.ledger.addBits("align_pad", align_pad);
    image.ledger.assertTiles(image.bitSize, "tailored");
    return image;
}

void
TailoredIsa::decodeBlockInto(const isa::Image &image, isa::BlockId id,
                             std::vector<Operation> &ops) const
{
    const isa::BlockLayout &layout = image.blocks.at(id);
    support::BitReader reader(image.bytes.data(), image.bitSize);
    reader.seek(layout.bitOffset);
    ops.clear();
    ops.reserve(layout.numOps);
    for (std::uint32_t i = 0; i < layout.numOps; ++i) {
        const bool tail = reader.readBit();
        const auto type_idx =
            unsigned(reader.readBits(optWidth_));
        TEPIC_ASSERT(type_idx < usedTypes_.size(),
                     "bad tailored type index");
        const std::uint32_t type = usedTypes_[type_idx];
        const auto opc_idx = unsigned(reader.readBits(opcWidth_));
        const auto &opcs = usedOpcodes_.at(type);
        TEPIC_ASSERT(opc_idx < opcs.size(),
                     "bad tailored opcode index");
        const std::uint32_t opcode = opcs[opc_idx];

        Operation op =
            Operation::make(OpType(type), Opcode(opcode));
        op.setTail(tail);
        const TailoredFormat &tf = formats_[unsigned(
            isa::formatFor(OpType(type), Opcode(opcode)))];
        for (const auto &field : tf.fields) {
            if (field.kind == FieldKind::kReserved)
                continue;
            std::uint32_t value;
            if (field.width == 0) {
                TEPIC_ASSERT(field.values.size() == 1,
                             "implied field without value");
                value = field.values[0];
            } else {
                const auto idx =
                    unsigned(reader.readBits(field.width));
                TEPIC_ASSERT(idx < field.values.size(),
                             "bad tailored field index");
                value = field.values[idx];
            }
            op.setField(field.kind, value);
        }
        ops.push_back(std::move(op));
    }
}

std::vector<std::vector<Operation>>
TailoredIsa::decode(const isa::Image &image) const
{
    std::vector<std::vector<Operation>> result;
    result.resize(image.blocks.size());
    for (std::size_t id = 0; id < result.size(); ++id)
        decodeBlockInto(image, isa::BlockId(id), result[id]);
    return result;
}

namespace {

class TailoredBlockDecoder final : public codec::Decoder
{
  public:
    TailoredBlockDecoder(const TailoredIsa &isa,
                         const isa::Image &image)
        : isa_(&isa), image_(&image)
    {
    }

    const char *name() const override { return "tailored"; }

    std::size_t blockCount() const override
    {
        return image_->blocks.size();
    }

    void
    decodeBlockInto(isa::BlockId id,
                    std::vector<Operation> &ops) const override
    {
        isa_->decodeBlockInto(*image_, id, ops);
    }

  private:
    const TailoredIsa *isa_;
    const isa::Image *image_;
};

} // namespace

std::unique_ptr<codec::Decoder>
makeBlockDecoder(const TailoredIsa &isa, const isa::Image &image)
{
    return std::make_unique<TailoredBlockDecoder>(isa, image);
}

unsigned
TailoredIsa::distinctOpcodes() const
{
    unsigned count = 0;
    for (const auto &[type, opcs] : usedOpcodes_)
        count += unsigned(opcs.size());
    return count;
}

std::string
TailoredIsa::emitVerilog(const std::string &module_name) const
{
    std::ostringstream os;
    os << "// Generated by TailoredIsa::emitVerilog — decoder for a\n"
          "// program-specific (tailored) TEPIC encoding (§2.3).\n";
    os << "module " << module_name << " (\n"
          "    input  wire [" << 63 << ":0] packed_op,\n"
          "    input  wire [5:0]  op_width,\n"
          "    output reg  [" << isa::kOpBits - 1 << ":0] ctrl\n"
          ");\n";
    os << "  // header: tail(1) | optype(" << optWidth_
       << ") | opcode(" << opcWidth_ << ")\n";
    os << "  wire tail = packed_op[63];\n";
    unsigned pos = 63 - 1;
    if (optWidth_ > 0) {
        os << "  wire [" << optWidth_ - 1 << ":0] opt = packed_op["
           << pos << ":" << pos - optWidth_ + 1 << "];\n";
    } else {
        os << "  wire [0:0] opt = 1'b0;  // single op type, implied\n";
    }
    pos -= optWidth_;
    if (opcWidth_ > 0) {
        os << "  wire [" << opcWidth_ - 1 << ":0] opc = packed_op["
           << pos << ":" << pos - opcWidth_ + 1 << "];\n";
    } else {
        os << "  wire [0:0] opc = 1'b0;  // single opcode, implied\n";
    }
    os << "  always @(*) begin\n"
          "    ctrl = " << isa::kOpBits << "'d0;\n"
          "    case ({opt, opc})\n";
    for (auto type : usedTypes_) {
        const auto &opcs = usedOpcodes_.at(type);
        for (std::size_t oi = 0; oi < opcs.size(); ++oi) {
            const Format format =
                isa::formatFor(OpType(type), Opcode(opcs[oi]));
            const TailoredFormat &tf = formats_[unsigned(format)];
            os << "      {" << optWidth_ << "'d" << typeIndex(type)
               << ", " << opcWidth_ << "'d" << oi << "}: begin  // "
               << isa::opcodeName(OpType(type), Opcode(opcs[oi]))
               << " (" << isa::formatName(format) << ", "
               << headerBits() + tf.bodyBits << "b)\n";
            unsigned in_pos = 63 - headerBits();
            for (const auto &field : tf.fields) {
                if (field.width == 0)
                    continue;
                os << "        // " << isa::fieldKindName(field.kind)
                   << ": " << field.width << "b -> "
                   << field.originalWidth << "b via "
                   << field.values.size() << "-entry map\n"
                   << "        ctrl_" << isa::fieldKindName(field.kind)
                   << "_map(packed_op[" << in_pos << ":"
                   << in_pos - field.width + 1 << "]);\n";
                in_pos -= field.width;
            }
            os << "      end\n";
        }
    }
    os << "      default: ;\n"
          "    endcase\n"
          "  end\n"
          "endmodule\n";
    return os.str();
}

} // namespace tepic::schemes
