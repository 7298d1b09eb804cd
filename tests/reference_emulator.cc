/**
 * @file
 * The emulator's original switch interpreter, kept verbatim as the
 * oracle for the pre-decoded one in src/sim/emulator.cc. It re-derives
 * every field, format and opcode from the Operation on each execution,
 * which is slow but obviously faithful to the ISA model. Test-only:
 * built into the oracle test binary, never into a library.
 */

#include "reference_emulator.hh"

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
    }

    EmulationResult
    run()
    {
        EmulationResult result;
        result.blockCounts.assign(program_.blocks().size(), 0);

        isa::BlockId cur = program_.entry();
        while (cur != compiler::kHaltBlockId) {
            TEPIC_ASSERT(cur < program_.blocks().size(),
                         "control transfer to bad block ", cur);
            const isa::VliwBlock &blk = program_.block(cur);
            ++result.dynamicBlocks;
            ++result.blockCounts[cur];

            isa::BlockId next = blk.fallthrough;
            bool taken = false;
            for (const auto &mop : blk.mops) {
                executeMop(mop, blk, next, taken);
                ++result.dynamicMops;
                result.dynamicOps += mop.size();
                if (result.dynamicMops > config_.maxMops)
                    TEPIC_FATAL("emulated MOP budget exceeded (",
                                config_.maxMops, "): runaway program?");
            }
            TEPIC_ASSERT(next != isa::kNoBlock,
                         "fell off block ", cur, " (", blk.label,
                         ") with no successor");
            if (config_.recordTrace)
                result.trace.events.push_back({cur, next, taken});
            cur = next;
        }
        result.exitValue = gpr_[3];
        return result;
    }

  private:
    const isa::VliwProgram &program_;
    const EmulatorConfig &config_;
    std::vector<std::uint8_t> memory_;
    std::array<std::int32_t, isa::kNumGpr> gpr_;
    std::array<double, isa::kNumFpr> fpr_;
    std::array<bool, isa::kNumPred> pred_;

    // ---- memory helpers ----

    void
    checkAccess(std::uint32_t addr, unsigned size) const
    {
        TEPIC_ASSERT(addr % size == 0, "misaligned access at ", addr);
        TEPIC_ASSERT(std::size_t(addr) + size <= memory_.size(),
                     "memory access out of bounds at ", addr);
    }

    std::int32_t
    load32(std::uint32_t addr) const
    {
        checkAccess(addr, 4);
        std::int32_t v;
        std::memcpy(&v, memory_.data() + addr, 4);
        return v;
    }

    void
    store32(std::uint32_t addr, std::int32_t value)
    {
        checkAccess(addr, 4);
        std::memcpy(memory_.data() + addr, &value, 4);
    }

    double
    load64(std::uint32_t addr) const
    {
        checkAccess(addr, 8);
        double v;
        std::memcpy(&v, memory_.data() + addr, 8);
        return v;
    }

    void
    store64(std::uint32_t addr, double value)
    {
        checkAccess(addr, 8);
        std::memcpy(memory_.data() + addr, &value, 8);
    }

    // ---- register write buffering (VLIW read-at-issue semantics) ----

    struct PendingWrite
    {
        enum Kind : std::uint8_t { kGpr, kFpr, kPred } kind;
        unsigned reg;
        std::int32_t ival;
        double fval;
        bool bval;
    };
    std::vector<PendingWrite> pending_;

    void
    writeGpr(unsigned reg, std::int32_t value)
    {
        pending_.push_back({PendingWrite::kGpr, reg, value, 0.0, false});
    }

    void
    writeFpr(unsigned reg, double value)
    {
        pending_.push_back({PendingWrite::kFpr, reg, 0, value, false});
    }

    void
    writePred(unsigned reg, bool value)
    {
        pending_.push_back({PendingWrite::kPred, reg, 0, 0.0, value});
    }

    void
    commitWrites()
    {
        for (const auto &w : pending_) {
            switch (w.kind) {
              case PendingWrite::kGpr:
                if (w.reg != isa::kRegZero)
                    gpr_[w.reg] = w.ival;
                break;
              case PendingWrite::kFpr:
                fpr_[w.reg] = w.fval;
                break;
              case PendingWrite::kPred:
                if (w.reg != isa::kPredTrue)
                    pred_[w.reg] = w.bval;
                break;
            }
        }
        pending_.clear();
    }

    // ---- execution ----

    static std::int32_t
    wrap32(std::int64_t v)
    {
        return std::int32_t(std::uint32_t(std::uint64_t(v)));
    }

    void
    executeMop(const isa::Mop &mop, const isa::VliwBlock &blk,
               isa::BlockId &next, bool &taken)
    {
        for (const auto &op : mop.ops()) {
            if (!pred_[op.pred()] &&
                !(op.opType() == OpType::kBranch &&
                  op.opcode() == Opcode::kBrcf)) {
                continue;  // guard false: op is a NOP
            }
            executeOp(op, blk, next, taken);
        }
        commitWrites();
    }

    void
    executeOp(const Operation &op, const isa::VliwBlock &blk,
              isa::BlockId &next, bool &taken)
    {
        switch (op.format()) {
          case Format::kIntAlu: {
            const std::int32_t a = gpr_[op.src1()];
            const std::int32_t b = gpr_[op.src2()];
            std::int32_t r = 0;
            switch (op.opcode()) {
              case Opcode::kAdd: r = wrap32(std::int64_t(a) + b); break;
              case Opcode::kSub: r = wrap32(std::int64_t(a) - b); break;
              case Opcode::kMul: r = wrap32(std::int64_t(a) * b); break;
              case Opcode::kDiv:
                TEPIC_ASSERT(b != 0, "division by zero in ", blk.label);
                TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                             "integer overflow in division");
                r = a / b;
                break;
              case Opcode::kRem:
                TEPIC_ASSERT(b != 0, "remainder by zero in ", blk.label);
                TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                             "integer overflow in remainder");
                r = a % b;
                break;
              case Opcode::kAnd: r = a & b; break;
              case Opcode::kOr: r = a | b; break;
              case Opcode::kXor: r = a ^ b; break;
              case Opcode::kShl:
                r = wrap32(std::int64_t(a) << (b & 31));
                break;
              case Opcode::kShr:
                r = std::int32_t(std::uint32_t(a) >> (b & 31));
                break;
              case Opcode::kSra: r = a >> (b & 31); break;
              case Opcode::kMov: r = a; break;
              default:
                TEPIC_PANIC("bad IntAlu opcode");
            }
            writeGpr(op.dest(), r);
            break;
          }
          case Format::kIntCmpp: {
            const std::int32_t a = gpr_[op.src1()];
            const std::int32_t b = gpr_[op.src2()];
            bool r = false;
            switch (op.opcode()) {
              case Opcode::kCmppEq: r = a == b; break;
              case Opcode::kCmppNe: r = a != b; break;
              case Opcode::kCmppLt: r = a < b; break;
              case Opcode::kCmppLe: r = a <= b; break;
              case Opcode::kCmppGt: r = a > b; break;
              case Opcode::kCmppGe: r = a >= b; break;
              default:
                TEPIC_PANIC("bad IntCmpp opcode");
            }
            writePred(op.dest(), r);
            break;
          }
          case Format::kLoadImm:
            writeGpr(op.dest(), signExtend(op.imm(), 20));
            break;
          case Format::kFloatAlu: {
            switch (op.opcode()) {
              case Opcode::kFadd:
                writeFpr(op.dest(),
                         fpr_[op.src1()] + fpr_[op.src2()]);
                break;
              case Opcode::kFsub:
                writeFpr(op.dest(),
                         fpr_[op.src1()] - fpr_[op.src2()]);
                break;
              case Opcode::kFmul:
                writeFpr(op.dest(),
                         fpr_[op.src1()] * fpr_[op.src2()]);
                break;
              case Opcode::kFdiv:
                writeFpr(op.dest(),
                         fpr_[op.src1()] / fpr_[op.src2()]);
                break;
              case Opcode::kFmov:
                writeFpr(op.dest(), fpr_[op.src1()]);
                break;
              case Opcode::kItof:
                writeFpr(op.dest(), double(gpr_[op.src1()]));
                break;
              case Opcode::kFtoi: {
                const double v = fpr_[op.src1()];
                std::int32_t r = 0;
                if (std::isfinite(v) &&
                    v >= double(std::numeric_limits<
                                std::int32_t>::min()) &&
                    v <= double(std::numeric_limits<
                                std::int32_t>::max())) {
                    r = std::int32_t(v);
                }
                writeGpr(op.dest(), r);
                break;
              }
              case Opcode::kFcmppEq:
                writePred(op.dest(),
                          fpr_[op.src1()] == fpr_[op.src2()]);
                break;
              case Opcode::kFcmppLt:
                writePred(op.dest(),
                          fpr_[op.src1()] < fpr_[op.src2()]);
                break;
              case Opcode::kFcmppLe:
                writePred(op.dest(),
                          fpr_[op.src1()] <= fpr_[op.src2()]);
                break;
              default:
                TEPIC_PANIC("bad FloatAlu opcode");
            }
            break;
          }
          case Format::kLoad: {
            const auto addr = std::uint32_t(gpr_[op.src1()]);
            if (op.opcode() == Opcode::kFload)
                writeFpr(op.dest(), load64(addr));
            else
                writeGpr(op.dest(), load32(addr));
            break;
          }
          case Format::kStore: {
            const auto addr = std::uint32_t(gpr_[op.src1()]);
            if (op.opcode() == Opcode::kFstore)
                store64(addr, fpr_[op.src2()]);
            else
                store32(addr, gpr_[op.src2()]);
            break;
          }
          case Format::kBranch:
            executeBranch(op, blk, next, taken);
            break;
        }
    }

    void
    executeBranch(const Operation &op, const isa::VliwBlock &blk,
                  isa::BlockId &next, bool &taken)
    {
        switch (op.opcode()) {
          case Opcode::kBr:
            next = op.target();
            taken = true;
            break;
          case Opcode::kBrct:
            // Guard already evaluated true in executeMop.
            next = op.target();
            taken = true;
            break;
          case Opcode::kBrcf:
            // Taken when the guarding predicate is *false*.
            if (!pred_[op.pred()]) {
                next = op.target();
                taken = true;
            }
            break;
          case Opcode::kCall:
            writeGpr(isa::kRegLink, std::int32_t(blk.fallthrough));
            next = op.target();
            taken = true;
            break;
          case Opcode::kRet: {
            const std::int32_t link = gpr_[op.src1()];
            TEPIC_ASSERT(link >= 0, "bad return address ", link);
            next = isa::BlockId(link);
            taken = true;
            break;
          }
          case Opcode::kBrlc: {
            const unsigned counter =
                op.field(isa::FieldKind::kCounter);
            const std::int32_t v = gpr_[counter] - 1;
            writeGpr(counter, v);
            if (v != 0) {
                next = op.target();
                taken = true;
            }
            break;
          }
          default:
            TEPIC_PANIC("bad branch opcode");
        }
    }
};

} // namespace

EmulationResult
referenceEmulate(const isa::VliwProgram &program,
                 const compiler::DataSegment &data,
                 const EmulatorConfig &config)
{
    Machine machine(program, data, config);
    return machine.run();
}

} // namespace tepic::sim
