#include "sim/emulator.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/logging.hh"

namespace tepic::sim {

namespace {

using isa::Format;
using isa::Opcode;
using isa::Operation;
using isa::OpType;

/** Sign-extend the low @p bits of @p value. */
std::int32_t
signExtend(std::uint32_t value, unsigned bits)
{
    const std::uint32_t mask = 1u << (bits - 1);
    const std::uint32_t ext = value & ((1u << bits) - 1);
    return std::int32_t((ext ^ mask) - mask);
}

std::int32_t
wrap32(std::int64_t v)
{
    return std::int32_t(std::uint32_t(std::uint64_t(v)));
}

/**
 * One dense id per executable operation. Each run of ids follows the
 * opcode numbering of its OpType, so handlerFor() maps by offset.
 */
enum class Handler : std::uint8_t {
    // OpType::kInt, opcodes kAdd..kMov
    kAdd, kSub, kMul, kDiv, kRem, kAnd, kOr, kXor, kShl, kShr, kSra,
    kMov,
    kLdi,
    // OpType::kInt, opcodes kCmppEq..kCmppGe
    kCmppEq, kCmppNe, kCmppLt, kCmppLe, kCmppGt, kCmppGe,
    // OpType::kFloat, opcodes kFadd..kFtoi
    kFadd, kFsub, kFmul, kFdiv, kFmov, kItof, kFtoi,
    // OpType::kFloat, opcodes kFcmppEq..kFcmppLe
    kFcmppEq, kFcmppLt, kFcmppLe,
    kLoad, kFload, kStore, kFstore,
    // OpType::kBranch, opcodes kBr..kBrlc
    kBr, kBrct, kBrcf, kCall, kRet, kBrlc,
    /** Undefined opcode or operand: panics when, and only when, run. */
    kUndecodable,
};

/** Whether handler run [first, last] is as long as opcode run [lo, hi]. */
constexpr bool
sameRun(Handler first, Handler last, Opcode lo, Opcode hi)
{
    return unsigned(last) - unsigned(first) == unsigned(hi) - unsigned(lo);
}
static_assert(sameRun(Handler::kAdd, Handler::kMov, Opcode::kAdd,
                      Opcode::kMov));
static_assert(sameRun(Handler::kCmppEq, Handler::kCmppGe, Opcode::kCmppEq,
                      Opcode::kCmppGe));
static_assert(sameRun(Handler::kFadd, Handler::kFtoi, Opcode::kFadd,
                      Opcode::kFtoi));
static_assert(sameRun(Handler::kFcmppEq, Handler::kFcmppLe,
                      Opcode::kFcmppEq, Opcode::kFcmppLe));
static_assert(sameRun(Handler::kBr, Handler::kBrlc, Opcode::kBr,
                      Opcode::kBrlc));

/** The handler of @p op; kUndecodable if the ISA does not define it. */
Handler
handlerFor(const Operation &op)
{
    const unsigned code = static_cast<unsigned>(op.opcode());
    auto offset = [code](Handler first, Opcode lo, Opcode hi) {
        if (code < static_cast<unsigned>(lo) ||
            code > static_cast<unsigned>(hi)) {
            return Handler::kUndecodable;
        }
        return Handler(unsigned(first) + code - unsigned(lo));
    };
    switch (static_cast<unsigned>(op.opType())) {
      case unsigned(OpType::kInt):
        if (op.opcode() == Opcode::kLdi)
            return Handler::kLdi;
        if (code >= static_cast<unsigned>(Opcode::kCmppEq))
            return offset(Handler::kCmppEq, Opcode::kCmppEq,
                          Opcode::kCmppGe);
        return offset(Handler::kAdd, Opcode::kAdd, Opcode::kMov);
      case unsigned(OpType::kFloat):
        if (code >= static_cast<unsigned>(Opcode::kFcmppEq))
            return offset(Handler::kFcmppEq, Opcode::kFcmppEq,
                          Opcode::kFcmppLe);
        return offset(Handler::kFadd, Opcode::kFadd, Opcode::kFtoi);
      case unsigned(OpType::kMemory):
        // formatFor() sends every opcode but load/fload to the Store
        // format, which stores a word unless the opcode is fstore.
        switch (op.opcode()) {
          case Opcode::kLoad: return Handler::kLoad;
          case Opcode::kFload: return Handler::kFload;
          case Opcode::kFstore: return Handler::kFstore;
          default: return Handler::kStore;
        }
      case unsigned(OpType::kBranch):
        return offset(Handler::kBr, Opcode::kBr, Opcode::kBrlc);
    }
    return Handler::kUndecodable;
}

/** Register file an op's result goes to. */
enum class WriteFile : std::uint8_t { kNone, kGpr, kFpr, kPred };

WriteFile
writeFileOf(Handler h)
{
    switch (h) {
      case Handler::kCmppEq: case Handler::kCmppNe:
      case Handler::kCmppLt: case Handler::kCmppLe:
      case Handler::kCmppGt: case Handler::kCmppGe:
      case Handler::kFcmppEq: case Handler::kFcmppLt:
      case Handler::kFcmppLe:
        return WriteFile::kPred;
      case Handler::kFadd: case Handler::kFsub: case Handler::kFmul:
      case Handler::kFdiv: case Handler::kFmov: case Handler::kItof:
      case Handler::kFload:
        return WriteFile::kFpr;
      case Handler::kStore: case Handler::kFstore:
      case Handler::kBr: case Handler::kBrct: case Handler::kBrcf:
      case Handler::kRet: case Handler::kUndecodable:
        return WriteFile::kNone;
      default:
        return WriteFile::kGpr;
    }
}

/**
 * Writes to r0 and p0 are redirected to this extra slot past the end
 * of the GPR and predicate files, so reads of r0/p0 stay constant
 * without a check at commit.
 */
constexpr std::uint8_t kSinkReg = 32;
static_assert(isa::kNumGpr == kSinkReg && isa::kNumPred == kSinkReg);

/** One operation, flattened so execution reads no Operation field. */
struct DecodedOp
{
    Handler handler = Handler::kUndecodable;
    std::uint8_t guard = 0;    ///< predicate tested first (p0 for brcf)
    std::uint8_t pred = 0;     ///< brcf's real guarding predicate
    std::uint8_t dest = 0;     ///< written register (r0/p0 -> kSinkReg)
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    std::uint8_t counter = 0;  ///< brlc counter read (written via dest)
    /** ldi: the sign-extended immediate; call: the link value;
     *  kUndecodable: index into Machine::undecodable_. */
    std::int32_t imm = 0;
    isa::BlockId target = 0;   ///< branch target
};
static_assert(sizeof(DecodedOp) == 16);

/** Ops [begin, end) of the flat op array. */
struct MopRange
{
    std::uint32_t begin;
    std::uint32_t end;
};

/** MOPs [mopBegin, mopEnd) of the flat MOP array. */
struct DecodedBlock
{
    std::uint32_t mopBegin;
    std::uint32_t mopEnd;
    isa::BlockId fallthrough;
};

/**
 * Pre-decodes a VliwProgram once, then runs it off flat arrays. Every
 * check and diagnostic of the ISA-level interpreter is kept; the rare
 * failure paths re-run that interpreter's assertions out of line so
 * their messages are unchanged.
 */
class Machine
{
  public:
    Machine(const isa::VliwProgram &program,
            const compiler::DataSegment &data,
            const EmulatorConfig &config)
        : program_(program), config_(config)
    {
        memory_.assign(config.memoryBytes, 0);
        TEPIC_ASSERT(data.base + data.bytes.size() <= memory_.size(),
                     "data segment does not fit in memory");
        std::copy(data.bytes.begin(), data.bytes.end(),
                  memory_.begin() + std::ptrdiff_t(data.base));
        gpr_.fill(0);
        fpr_.fill(0.0);
        pred_.fill(false);
        pred_[isa::kPredTrue] = true;
        gpr_[isa::kRegSp] =
            std::int32_t(config.memoryBytes - 16);
        gpr_[isa::kRegLink] = std::int32_t(compiler::kHaltBlockId);
        predecode();
    }

    EmulationResult run();

  private:
    const isa::VliwProgram &program_;
    const EmulatorConfig &config_;
    std::vector<std::uint8_t> memory_;
    std::array<std::int32_t, isa::kNumGpr + 1> gpr_;
    std::array<double, isa::kNumFpr> fpr_;
    std::array<bool, isa::kNumPred + 1> pred_;

    std::vector<DecodedOp> ops_;
    std::vector<MopRange> mops_;
    std::vector<DecodedBlock> blocks_;
    /** Source of each kUndecodable op, for its deferred panic. */
    std::vector<const Operation *> undecodable_;

    // Register writes of the MOP in flight (read-at-issue semantics),
    // committed in op order; each buffer holds the widest MOP.
    template <typename T>
    struct Write
    {
        std::uint8_t reg;
        T value;
    };
    std::vector<Write<std::int32_t>> gprWrites_;
    std::vector<Write<double>> fprWrites_;
    std::vector<Write<bool>> predWrites_;

    void
    predecode()
    {
        std::size_t widest = 0;
        blocks_.reserve(program_.blocks().size());
        for (const auto &blk : program_.blocks()) {
            const auto mop_begin = std::uint32_t(mops_.size());
            for (const auto &mop : blk.mops) {
                const auto begin = std::uint32_t(ops_.size());
                for (const auto &op : mop.ops())
                    ops_.push_back(decode(op, blk));
                mops_.push_back({begin, std::uint32_t(ops_.size())});
                widest = std::max(widest, mop.size());
            }
            blocks_.push_back({mop_begin, std::uint32_t(mops_.size()),
                               blk.fallthrough});
        }
        gprWrites_.resize(widest);
        fprWrites_.resize(widest);
        predWrites_.resize(widest);
    }

    DecodedOp
    decode(const Operation &op, const isa::VliwBlock &blk)
    {
        DecodedOp d;
        d.handler = handlerFor(op);
        bool in_range = true;
        auto reg = [&](isa::FieldKind kind) {
            const std::uint32_t r = op.field(kind);
            in_range = in_range && r < kSinkReg;
            return std::uint8_t(r);
        };
        d.guard = reg(isa::FieldKind::kPred);
        // An op whose guard cannot be read panics whenever reached.
        const bool guard_in_range = in_range;
        if (d.handler == Handler::kBrcf) {
            // Runs under any guard; taken when the predicate is false.
            d.pred = d.guard;
            d.guard = isa::kPredTrue;
        }
        if (d.handler != Handler::kUndecodable) {
            const Format format = op.format();
            switch (format) {
              case Format::kIntAlu:
              case Format::kIntCmpp:
              case Format::kFloatAlu:
              case Format::kStore:
                d.src1 = reg(isa::FieldKind::kSrc1);
                d.src2 = reg(isa::FieldKind::kSrc2);
                break;
              case Format::kLoad:
                d.src1 = reg(isa::FieldKind::kSrc1);
                break;
              case Format::kLoadImm:
                d.imm = signExtend(op.imm(), 20);
                break;
              case Format::kBranch:
                d.target = op.target();
                break;
            }
            if (format != Format::kBranch &&
                writeFileOf(d.handler) != WriteFile::kNone) {
                d.dest = reg(isa::FieldKind::kDest);
            }
            if (d.handler == Handler::kRet) {
                d.src1 = reg(isa::FieldKind::kSrc1);
            } else if (d.handler == Handler::kCall) {
                d.dest = isa::kRegLink;
                d.imm = std::int32_t(blk.fallthrough);
            } else if (d.handler == Handler::kBrlc) {
                d.counter = reg(isa::FieldKind::kCounter);
                d.dest = d.counter;
            }
        }
        if (!in_range)
            d.handler = Handler::kUndecodable;
        if (!guard_in_range)
            d.guard = isa::kPredTrue;
        if (d.handler == Handler::kUndecodable) {
            d.imm = std::int32_t(undecodable_.size());
            undecodable_.push_back(&op);
            return d;
        }
        const WriteFile file = writeFileOf(d.handler);
        if ((file == WriteFile::kGpr && d.dest == isa::kRegZero) ||
            (file == WriteFile::kPred && d.dest == isa::kPredTrue)) {
            d.dest = kSinkReg;
        }
        return d;
    }

    // ---- failure paths (out of line; messages as the ISA-level
    //      interpreter words them) ----

    [[noreturn, gnu::cold, gnu::noinline]] void
    accessFault(std::uint32_t addr, unsigned size) const
    {
        TEPIC_ASSERT(addr % size == 0, "misaligned access at ", addr);
        TEPIC_ASSERT(std::size_t(addr) + size <= memory_.size(),
                     "memory access out of bounds at ", addr);
        TEPIC_PANIC("memory access at ", addr, " flagged but valid");
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    divideFault(Handler h, std::int32_t a, std::int32_t b,
                isa::BlockId cur) const
    {
        const isa::VliwBlock &blk = program_.block(cur);
        if (h == Handler::kDiv) {
            TEPIC_ASSERT(b != 0, "division by zero in ", blk.label);
            TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                         "integer overflow in division");
        } else {
            TEPIC_ASSERT(b != 0, "remainder by zero in ", blk.label);
            TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                         "integer overflow in remainder");
        }
        TEPIC_PANIC("division ", a, " / ", b, " flagged but valid");
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    undecodableOp(std::int32_t index) const
    {
        const Operation &op = *undecodable_[std::size_t(index)];
        if (handlerFor(op) != Handler::kUndecodable)
            TEPIC_PANIC("register field out of range in ", op.toString());
        switch (op.format()) {  // panics on an undefined OpType
          case Format::kIntAlu: TEPIC_PANIC("bad IntAlu opcode");
          case Format::kFloatAlu: TEPIC_PANIC("bad FloatAlu opcode");
          case Format::kBranch: TEPIC_PANIC("bad branch opcode");
          default: break;
        }
        TEPIC_PANIC("undecodable op ", op.toString());
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    badReturn(std::int32_t link) const
    {
        TEPIC_ASSERT(link >= 0, "bad return address ", link);
        TEPIC_PANIC("return address ", link, " flagged but valid");
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    budgetExceeded() const
    {
        TEPIC_FATAL("emulated MOP budget exceeded (",
                    config_.maxMops, "): runaway program?");
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    fellOff(isa::BlockId cur, isa::BlockId next) const
    {
        const isa::VliwBlock &blk = program_.block(cur);
        TEPIC_ASSERT(next != isa::kNoBlock,
                     "fell off block ", cur, " (", blk.label,
                     ") with no successor");
        TEPIC_PANIC("block ", cur, " flagged as falling off");
    }
};

EmulationResult
Machine::run()
{
    EmulationResult result;
    result.blockCounts.assign(blocks_.size(), 0);

    std::uint64_t dynamic_ops = 0;
    std::uint64_t dynamic_mops = 0;
    std::uint64_t dynamic_blocks = 0;
    std::uint64_t *const block_counts = result.blockCounts.data();
    const std::uint64_t max_mops = config_.maxMops;
    const bool record_trace = config_.recordTrace;

    const DecodedOp *const ops = ops_.data();
    std::uint8_t *const mem = memory_.data();
    const std::size_t mem_size = memory_.size();
    std::int32_t *const gpr = gpr_.data();
    double *const fpr = fpr_.data();
    bool *const pred = pred_.data();
    auto *const gpr_writes = gprWrites_.data();
    auto *const fpr_writes = fprWrites_.data();
    auto *const pred_writes = predWrites_.data();

    isa::BlockId cur = program_.entry();
    while (cur != compiler::kHaltBlockId) {
        TEPIC_ASSERT(cur < program_.blocks().size(),
                     "control transfer to bad block ", cur);
        const DecodedBlock &blk = blocks_[cur];
        ++dynamic_blocks;
        ++block_counts[cur];

        isa::BlockId next = blk.fallthrough;
        bool taken = false;
        for (std::uint32_t m = blk.mopBegin; m != blk.mopEnd; ++m) {
            const MopRange range = mops_[m];
            unsigned n_gpr = 0;
            unsigned n_fpr = 0;
            unsigned n_pred = 0;
            auto writeGpr = [&](std::uint8_t reg, std::int32_t v) {
                gpr_writes[n_gpr++] = {reg, v};
            };
            auto writeFpr = [&](std::uint8_t reg, double v) {
                fpr_writes[n_fpr++] = {reg, v};
            };
            auto writePred = [&](std::uint8_t reg, bool v) {
                pred_writes[n_pred++] = {reg, v};
            };
            auto checkAccess = [&](std::uint32_t addr, unsigned size) {
                if ((addr & (size - 1)) != 0 ||
                    std::size_t(addr) + size > mem_size) [[unlikely]]
                    accessFault(addr, size);
            };

            for (std::uint32_t i = range.begin; i != range.end; ++i) {
                const DecodedOp &op = ops[i];
                if (!pred[op.guard])
                    continue;  // guard false: op is a NOP
                const std::int32_t a = gpr[op.src1];
                const std::int32_t b = gpr[op.src2];
                switch (op.handler) {
                  case Handler::kAdd:
                    writeGpr(op.dest, wrap32(std::int64_t(a) + b));
                    break;
                  case Handler::kSub:
                    writeGpr(op.dest, wrap32(std::int64_t(a) - b));
                    break;
                  case Handler::kMul:
                    writeGpr(op.dest, wrap32(std::int64_t(a) * b));
                    break;
                  case Handler::kDiv:
                  case Handler::kRem:
                    if (b == 0 || (a == INT32_MIN && b == -1))
                        [[unlikely]]
                        divideFault(op.handler, a, b, cur);
                    writeGpr(op.dest,
                             op.handler == Handler::kDiv ? a / b : a % b);
                    break;
                  case Handler::kAnd: writeGpr(op.dest, a & b); break;
                  case Handler::kOr: writeGpr(op.dest, a | b); break;
                  case Handler::kXor: writeGpr(op.dest, a ^ b); break;
                  case Handler::kShl:
                    writeGpr(op.dest, wrap32(std::int64_t(a) << (b & 31)));
                    break;
                  case Handler::kShr:
                    writeGpr(op.dest,
                             std::int32_t(std::uint32_t(a) >> (b & 31)));
                    break;
                  case Handler::kSra: writeGpr(op.dest, a >> (b & 31)); break;
                  case Handler::kMov: writeGpr(op.dest, a); break;
                  case Handler::kLdi: writeGpr(op.dest, op.imm); break;

                  case Handler::kCmppEq: writePred(op.dest, a == b); break;
                  case Handler::kCmppNe: writePred(op.dest, a != b); break;
                  case Handler::kCmppLt: writePred(op.dest, a < b); break;
                  case Handler::kCmppLe: writePred(op.dest, a <= b); break;
                  case Handler::kCmppGt: writePred(op.dest, a > b); break;
                  case Handler::kCmppGe: writePred(op.dest, a >= b); break;

                  case Handler::kFadd:
                    writeFpr(op.dest, fpr[op.src1] + fpr[op.src2]);
                    break;
                  case Handler::kFsub:
                    writeFpr(op.dest, fpr[op.src1] - fpr[op.src2]);
                    break;
                  case Handler::kFmul:
                    writeFpr(op.dest, fpr[op.src1] * fpr[op.src2]);
                    break;
                  case Handler::kFdiv:
                    writeFpr(op.dest, fpr[op.src1] / fpr[op.src2]);
                    break;
                  case Handler::kFmov: writeFpr(op.dest, fpr[op.src1]); break;
                  case Handler::kItof: writeFpr(op.dest, double(a)); break;
                  case Handler::kFtoi: {
                    const double v = fpr[op.src1];
                    std::int32_t r = 0;
                    if (std::isfinite(v) &&
                        v >= double(std::numeric_limits<
                                    std::int32_t>::min()) &&
                        v <= double(std::numeric_limits<
                                    std::int32_t>::max())) {
                        r = std::int32_t(v);
                    }
                    writeGpr(op.dest, r);
                    break;
                  }
                  case Handler::kFcmppEq:
                    writePred(op.dest, fpr[op.src1] == fpr[op.src2]);
                    break;
                  case Handler::kFcmppLt:
                    writePred(op.dest, fpr[op.src1] < fpr[op.src2]);
                    break;
                  case Handler::kFcmppLe:
                    writePred(op.dest, fpr[op.src1] <= fpr[op.src2]);
                    break;

                  case Handler::kLoad: {
                    const auto addr = std::uint32_t(a);
                    checkAccess(addr, 4);
                    std::int32_t v;
                    std::memcpy(&v, mem + addr, 4);
                    writeGpr(op.dest, v);
                    break;
                  }
                  case Handler::kFload: {
                    const auto addr = std::uint32_t(a);
                    checkAccess(addr, 8);
                    double v;
                    std::memcpy(&v, mem + addr, 8);
                    writeFpr(op.dest, v);
                    break;
                  }
                  case Handler::kStore: {
                    const auto addr = std::uint32_t(a);
                    checkAccess(addr, 4);
                    std::memcpy(mem + addr, &b, 4);
                    break;
                  }
                  case Handler::kFstore: {
                    const auto addr = std::uint32_t(a);
                    checkAccess(addr, 8);
                    std::memcpy(mem + addr, &fpr[op.src2], 8);
                    break;
                  }

                  case Handler::kBr:
                  case Handler::kBrct:  // guard already tested true
                    next = op.target;
                    taken = true;
                    break;
                  case Handler::kBrcf:
                    if (!pred[op.pred]) {
                        next = op.target;
                        taken = true;
                    }
                    break;
                  case Handler::kCall:
                    writeGpr(op.dest, op.imm);
                    next = op.target;
                    taken = true;
                    break;
                  case Handler::kRet:
                    if (a < 0) [[unlikely]]
                        badReturn(a);
                    next = isa::BlockId(a);
                    taken = true;
                    break;
                  case Handler::kBrlc: {
                    const std::int32_t v =
                        wrap32(std::int64_t(gpr[op.counter]) - 1);
                    writeGpr(op.dest, v);
                    if (v != 0) {
                        next = op.target;
                        taken = true;
                    }
                    break;
                  }
                  case Handler::kUndecodable:
                    undecodableOp(op.imm);
                }
            }

            for (unsigned w = 0; w < n_gpr; ++w)
                gpr[gpr_writes[w].reg] = gpr_writes[w].value;
            for (unsigned w = 0; w < n_fpr; ++w)
                fpr[fpr_writes[w].reg] = fpr_writes[w].value;
            for (unsigned w = 0; w < n_pred; ++w)
                pred[pred_writes[w].reg] = pred_writes[w].value;

            ++dynamic_mops;
            dynamic_ops += range.end - range.begin;
            if (dynamic_mops > max_mops) [[unlikely]]
                budgetExceeded();
        }
        if (next == isa::kNoBlock) [[unlikely]]
            fellOff(cur, next);
        if (record_trace)
            result.trace.events.push_back({cur, next, taken});
        cur = next;
    }
    result.exitValue = gpr[3];
    result.dynamicOps = dynamic_ops;
    result.dynamicMops = dynamic_mops;
    result.dynamicBlocks = dynamic_blocks;
    return result;
}

} // namespace

EmulationResult
emulate(const isa::VliwProgram &program,
        const compiler::DataSegment &data, const EmulatorConfig &config)
{
    Machine machine(program, data, config);
    return machine.run();
}

} // namespace tepic::sim
