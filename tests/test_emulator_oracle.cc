/**
 * @file
 * The pre-decoded emulator (sim::emulate) against its oracle, the
 * ISA-level switch interpreter kept in reference_emulator.cc.
 *
 * Both must agree exactly — exit value, dynamic op/MOP/block counts,
 * per-block counts and every trace event — on all workloads (the
 * profile run with the trace off and the re-laid-out run with it on,
 * as the artifact engine runs them), on the fuzzer's random programs
 * and on random straight-line MOPs over every opcode. Every guest
 * fault must raise the same exception with the same message in both,
 * and an op under a false guard must stay a NOP however malformed it
 * is.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compiler/driver.hh"
#include "sim/emulator.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

#include "program_gen.hh"
#include "reference_emulator.hh"

namespace {

using namespace tepic;

void
expectIdentical(const sim::EmulationResult &fast,
                const sim::EmulationResult &ref)
{
    EXPECT_EQ(fast.exitValue, ref.exitValue);
    EXPECT_EQ(fast.dynamicOps, ref.dynamicOps);
    EXPECT_EQ(fast.dynamicMops, ref.dynamicMops);
    EXPECT_EQ(fast.dynamicBlocks, ref.dynamicBlocks);
    EXPECT_EQ(fast.blockCounts, ref.blockCounts);
    ASSERT_EQ(fast.trace.events.size(), ref.trace.events.size());
    for (std::size_t i = 0; i < ref.trace.events.size(); ++i) {
        const sim::TraceEvent &f = fast.trace.events[i];
        const sim::TraceEvent &r = ref.trace.events[i];
        if (f.block != r.block || f.next != r.next ||
            f.branchTaken != r.branchTaken) {
            ADD_FAILURE() << "first divergent trace event " << i
                          << ": fast {" << f.block << " -> " << f.next
                          << ", taken " << f.branchTaken << "}, reference {"
                          << r.block << " -> " << r.next << ", taken "
                          << r.branchTaken << "}";
            return;
        }
    }
}

/** Run both emulators, require identical results, return one. */
sim::EmulationResult
runBoth(const isa::VliwProgram &program,
        const compiler::DataSegment &data,
        const sim::EmulatorConfig &config)
{
    sim::EmulationResult fast = sim::emulate(program, data, config);
    const sim::EmulationResult ref =
        sim::referenceEmulate(program, data, config);
    expectIdentical(fast, ref);
    return fast;
}

// ---- every workload, as the artifact engine runs it ----

class OracleWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OracleWorkload, ProfileAndTracedRunsMatch)
{
    const workloads::Workload &w = workloads::workloadByName(GetParam());
    auto compiled = compiler::compileSource(w.source);

    sim::EmulatorConfig profile;
    profile.recordTrace = false;
    const auto first = runBoth(compiled.program, compiled.data, profile);
    EXPECT_TRUE(first.trace.events.empty());

    compiler::applyProfileAndRelayout(
        compiled, first.blockCounts,
        isa::MachineConfig::paperDefault());
    const auto second =
        runBoth(compiled.program, compiled.data, sim::EmulatorConfig{});
    EXPECT_EQ(second.exitValue, w.reference());
    EXPECT_EQ(second.trace.events.size(), second.dynamicBlocks);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OracleWorkload,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// ---- the fuzzer's random programs ----

class OracleFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(OracleFuzz, RandomProgramsMatch)
{
    // The seeds of FuzzDifferential.AllConfigsAgree.
    fuzz::ProgramGen gen(std::uint64_t(GetParam()) * 2654435761u + 17);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);

    sim::EmulatorConfig config;
    config.maxMops = 20'000'000;
    compiler::CompileOptions o0;
    o0.opt = compiler::OptConfig::none();
    o0.hoist.enabled = false;
    compiler::CompileOptions narrow;
    narrow.machine.issueWidth = 1;
    narrow.machine.memoryUnits = 1;
    for (const auto &options :
         {compiler::CompileOptions{}, o0, narrow}) {
        const auto compiled = compiler::compileSource(source, options);
        runBoth(compiled.program, compiled.data, config);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleFuzz, ::testing::Range(0, 25));

// ---- hand-built programs: faults and false guards ----

isa::Operation
makeOp(isa::OpType type, isa::Opcode opcode, unsigned dest = 0,
       unsigned src1 = 0, unsigned src2 = 0)
{
    auto op = isa::Operation::make(type, opcode);
    op.setDest(dest);
    op.setSrc1(src1);
    op.setSrc2(src2);
    return op;
}

isa::Operation
ldi(unsigned dest, std::int32_t value)
{
    auto op = makeOp(isa::OpType::kInt, isa::Opcode::kLdi, dest);
    op.setImm(std::uint32_t(value) & 0xfffff);
    return op;
}

isa::Operation
intOp(isa::Opcode opcode, unsigned dest, unsigned src1, unsigned src2)
{
    return makeOp(isa::OpType::kInt, opcode, dest, src1, src2);
}

isa::Operation
branch(isa::Opcode opcode, unsigned target = 0)
{
    auto op = makeOp(isa::OpType::kBranch, opcode);
    op.setTarget(target);
    return op;
}

isa::Operation
guarded(isa::Operation op, unsigned pred)
{
    op.setPred(pred);
    return op;
}

/** `ret` through the link register. */
isa::Operation
ret()
{
    auto op = branch(isa::Opcode::kRet);
    op.setSrc1(isa::kRegLink);
    return op;
}

/** Ops of each MOP of a block, in issue order. */
using MopList = std::vector<std::vector<isa::Operation>>;

/** Append block "L<id>" issuing @p mops to @p prog. */
void
addBlock(isa::VliwProgram &prog, const MopList &mops,
         isa::BlockId fallthrough)
{
    auto &blk = prog.addBlock();
    blk.label = "L" + std::to_string(blk.id);
    blk.fallthrough = fallthrough;
    for (const auto &ops : mops) {
        isa::Mop mop;
        for (const auto &op : ops)
            mop.append(op);
        blk.mops.push_back(mop);
    }
}

/** One block "L0" running @p mops, then `ret` unless @p returns off. */
isa::VliwProgram
program(MopList mops, bool returns = true)
{
    if (returns)
        mops.push_back({ret()});
    isa::VliwProgram prog;
    addBlock(prog, mops, isa::kNoBlock);
    return prog;
}

/** How a run ended: "ok", "panic: ..." or "fatal: ...". */
std::string
outcome(const std::function<sim::EmulationResult()> &run)
{
    try {
        run();
        return "ok";
    } catch (const std::logic_error &e) {
        return e.what();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
}

/**
 * Both emulators must fail on @p prog, with identical diagnostics that
 * mention @p expected.
 */
void
expectSameFault(const isa::VliwProgram &prog, const std::string &expected,
                sim::EmulatorConfig config = {})
{
    compiler::DataSegment data;
    data.base = 0x1000;
    config.recordTrace = false;
    const std::string fast =
        outcome([&] { return sim::emulate(prog, data, config); });
    const std::string ref =
        outcome([&] { return sim::referenceEmulate(prog, data, config); });
    EXPECT_EQ(fast, ref);
    EXPECT_NE(fast.find(expected), std::string::npos)
        << "fault '" << fast << "' does not mention '" << expected << "'";
}

/** Both emulators must run @p prog to the same result; its exit value. */
std::int32_t
runClean(const isa::VliwProgram &prog)
{
    compiler::DataSegment data;
    data.base = 0x1000;
    return runBoth(prog, data, sim::EmulatorConfig{}).exitValue;
}

TEST(OracleFaults, RunawayLoopHitsMopBudget)
{
    sim::EmulatorConfig config;
    config.maxMops = 1000;
    expectSameFault(program({{branch(isa::Opcode::kBr, 0)}}, false),
                    "fatal: emulated MOP budget exceeded (1000)", config);
}

TEST(OracleFaults, OutOfBoundsAccesses)
{
    sim::EmulatorConfig small;
    small.memoryBytes = 8192;
    const isa::Operation ops[] = {
        makeOp(isa::OpType::kMemory, isa::Opcode::kLoad, 3, 4),
        makeOp(isa::OpType::kMemory, isa::Opcode::kStore, 0, 4, 3),
        makeOp(isa::OpType::kMemory, isa::Opcode::kFload, 1, 4),
        makeOp(isa::OpType::kMemory, isa::Opcode::kFstore, 0, 4, 1),
    };
    for (const auto &op : ops) {
        SCOPED_TRACE(op.toString());
        // One past the end, and a negative address.
        expectSameFault(program({{ldi(4, 8192)}, {op}}),
                        "memory access out of bounds at 8192", small);
        expectSameFault(program({{ldi(4, -8)}, {op}}),
                        "memory access out of bounds", small);
    }
    // The last word and double of memory are in bounds.
    compiler::DataSegment data;
    data.base = 0x1000;
    for (const auto &[op, addr] :
         {std::pair{ops[0], 8188}, std::pair{ops[1], 8188},
          std::pair{ops[2], 8184}, std::pair{ops[3], 8184}}) {
        SCOPED_TRACE(op.toString());
        runBoth(program({{ldi(4, addr)}, {op}}), data, small);
    }
}

TEST(OracleFaults, MisalignedAccesses)
{
    expectSameFault(
        program({{ldi(4, 0x1002)},
                 {makeOp(isa::OpType::kMemory, isa::Opcode::kLoad, 3, 4)}}),
        "misaligned access at 4098");
    expectSameFault(
        program({{ldi(4, 0x1001)},
                 {makeOp(isa::OpType::kMemory, isa::Opcode::kStore, 0, 4,
                         3)}}),
        "misaligned access at 4097");
    expectSameFault(
        program({{ldi(4, 0x1004)},
                 {makeOp(isa::OpType::kMemory, isa::Opcode::kFload, 1,
                         4)}}),
        "misaligned access at 4100");
    expectSameFault(
        program({{ldi(4, 0x1004)},
                 {makeOp(isa::OpType::kMemory, isa::Opcode::kFstore, 0, 4,
                         1)}}),
        "misaligned access at 4100");
}

TEST(OracleFaults, DivisionAndRemainderByZero)
{
    expectSameFault(program({{ldi(4, 7)},
                             {intOp(isa::Opcode::kDiv, 3, 4, 0)}}),
                    "division by zero in L0");
    expectSameFault(program({{ldi(4, 7)},
                             {intOp(isa::Opcode::kRem, 3, 4, 0)}}),
                    "remainder by zero in L0");
}

TEST(OracleFaults, DivisionOverflow)
{
    // r6 = 1 << 31 = INT32_MIN, r7 = -1.
    const std::vector<isa::Operation> setup = {ldi(4, 1), ldi(5, 31),
                                               ldi(7, -1)};
    const auto shl = intOp(isa::Opcode::kShl, 6, 4, 5);
    expectSameFault(
        program({setup, {shl}, {intOp(isa::Opcode::kDiv, 3, 6, 7)}}),
        "integer overflow in division");
    expectSameFault(
        program({setup, {shl}, {intOp(isa::Opcode::kRem, 3, 6, 7)}}),
        "integer overflow in remainder");
    // INT32_MIN / 1 is fine.
    EXPECT_EQ(runClean(program({setup, {shl, ldi(7, 1)},
                                {intOp(isa::Opcode::kDiv, 3, 6, 7)}})),
              INT32_MIN);
}

TEST(OracleFaults, NegativeReturnAddress)
{
    auto ret_r8 = branch(isa::Opcode::kRet);
    ret_r8.setSrc1(8);
    expectSameFault(program({{ldi(8, -5)}, {ret_r8}}, false),
                    "bad return address -5");
}

TEST(OracleFaults, BranchToMissingBlock)
{
    expectSameFault(program({{branch(isa::Opcode::kBr, 77)}}, false),
                    "control transfer to bad block 77");
}

TEST(OracleFaults, FallingOffABlock)
{
    expectSameFault(program({{ldi(3, 1)}}, false),
                    "fell off block 0 (L0) with no successor");
}

TEST(OracleFaults, UndefinedOpcodesPanicWhenRun)
{
    const auto bad_int = makeOp(isa::OpType::kInt, isa::Opcode(13), 3);
    const auto bad_fp = makeOp(isa::OpType::kFloat, isa::Opcode(7), 3);
    const auto bad_br = branch(isa::Opcode(6));
    auto bad_type = makeOp(isa::OpType::kInt, isa::Opcode::kAdd, 3);
    bad_type.setField(isa::FieldKind::kOpType, 5);
    expectSameFault(program({{bad_int}}), "bad IntAlu opcode");
    expectSameFault(program({{bad_fp}}), "bad FloatAlu opcode");
    expectSameFault(program({{bad_br}}), "bad branch opcode");
    expectSameFault(program({{bad_type}}), "bad op type 5");
}

TEST(OracleFaults, FalseGuardsAreNops)
{
    // p1 stays false; every p1-guarded op below must do nothing.
    const auto p1_false = makeOp(isa::OpType::kInt, isa::Opcode::kCmppNe,
                                 1, 0, 0);
    auto bad_type = makeOp(isa::OpType::kInt, isa::Opcode::kAdd, 3);
    bad_type.setField(isa::FieldKind::kOpType, 5);
    const std::vector<isa::Operation> nops = {
        guarded(makeOp(isa::OpType::kInt, isa::Opcode(13), 3), 1),
        guarded(makeOp(isa::OpType::kFloat, isa::Opcode(7), 3), 1),
        guarded(branch(isa::Opcode(6)), 1),
        guarded(bad_type, 1),
        guarded(intOp(isa::Opcode::kDiv, 3, 4, 0), 1),
        guarded(intOp(isa::Opcode::kRem, 3, 4, 0), 1),
        guarded(makeOp(isa::OpType::kMemory, isa::Opcode::kLoad, 3, 5), 1),
        guarded(branch(isa::Opcode::kBr, 77), 1),
    };
    for (std::size_t i = 0; i < nops.size(); ++i) {
        // Not toString(): it panics on the undefined OpType.
        SCOPED_TRACE("nop " + std::to_string(i));
        EXPECT_EQ(runClean(program({{p1_false, ldi(3, 42), ldi(4, 7),
                                     ldi(5, 2)},
                                    {nops[i]}})),
                  42);
    }
}

TEST(OracleSemantics, ReadAtIssueAndLastWriteWins)
{
    // In one MOP: r3 and r4 swap (reads happen before any write), and
    // two writes to r5 commit in op order.
    EXPECT_EQ(runClean(program({{ldi(3, 5), ldi(4, 9)},
                                {intOp(isa::Opcode::kMov, 3, 4, 0),
                                 intOp(isa::Opcode::kMov, 4, 3, 0)},
                                {intOp(isa::Opcode::kSub, 3, 3, 4)}})),
              9 - 5);
    EXPECT_EQ(runClean(program({{ldi(5, 1), ldi(5, 2)},
                                {intOp(isa::Opcode::kMov, 3, 5, 0)}})),
              2);
    // Writes to r0 and p0 are discarded.
    EXPECT_EQ(runClean(program({{ldi(0, 7),
                                 makeOp(isa::OpType::kInt,
                                        isa::Opcode::kCmppNe, 0, 0, 0)},
                                {guarded(ldi(3, 11), 0)},
                                {intOp(isa::Opcode::kAdd, 3, 3, 0)}})),
              11);
}

TEST(OracleSemantics, UnnamedMemoryOpcodesStoreAWord)
{
    // The ISA maps every memory opcode but load/fload to the Store
    // format, which stores a word unless the opcode is fstore.
    EXPECT_EQ(runClean(program(
                  {{ldi(4, 0x1000), ldi(5, 77)},
                   {makeOp(isa::OpType::kMemory, isa::Opcode(9), 0, 4, 5)},
                   {makeOp(isa::OpType::kMemory, isa::Opcode::kLoad, 3,
                           4)}})),
              77);
}

TEST(OracleSemantics, BrcfAndBrlc)
{
    // Block 0: p1 = false; brcf p1 -> block 2 (taken). Block 1: r3 = 1.
    // Block 2: r6 = 3; loop in block 3 via brlc on r6, adding 10 to r3
    // each time, then return.
    isa::VliwProgram prog;
    auto brlc = branch(isa::Opcode::kBrlc, 3);
    brlc.setField(isa::FieldKind::kCounter, 6);
    addBlock(prog,
             {{makeOp(isa::OpType::kInt, isa::Opcode::kCmppNe, 1, 0, 0)},
              {guarded(branch(isa::Opcode::kBrcf, 2), 1)}},
             1);
    addBlock(prog, {{ldi(3, 1)}, {ret()}}, isa::kNoBlock);
    addBlock(prog, {{ldi(6, 3), ldi(7, 10)}}, 3);
    addBlock(prog, {{intOp(isa::Opcode::kAdd, 3, 3, 7), brlc}}, 4);
    addBlock(prog, {{ret()}}, isa::kNoBlock);
    EXPECT_EQ(runClean(prog), 30);
}


// ---- random straight-line MOPs over every opcode ----

/** Registers random ops never write: the memory base, SP and link. */
constexpr unsigned kBaseReg = 29;

/**
 * One random op of any defined opcode (and, rarely, an undefined one),
 * with random operands and guards. Memory ops mostly address through
 * kBaseReg; branches all go to block 1, the fallthrough.
 */
isa::Operation
randomOp(support::Rng &rng)
{
    struct Range
    {
        isa::OpType type;
        unsigned lo, hi;
    };
    static const Range defined[] = {
        {isa::OpType::kInt, 0, 12},     {isa::OpType::kInt, 16, 21},
        {isa::OpType::kFloat, 0, 6},    {isa::OpType::kFloat, 8, 10},
        {isa::OpType::kMemory, 0, 3},   {isa::OpType::kBranch, 0, 2},
        {isa::OpType::kBranch, 5, 5},
    };
    static const Range undefined[] = {
        {isa::OpType::kInt, 13, 13},    {isa::OpType::kFloat, 7, 7},
        {isa::OpType::kMemory, 9, 9},   {isa::OpType::kBranch, 6, 6},
    };
    const Range &r = rng.chance(0.005)
        ? undefined[rng.below(std::size(undefined))]
        : defined[rng.below(std::size(defined))];
    const auto opcode =
        isa::Opcode(r.lo + unsigned(rng.below(r.hi - r.lo + 1)));
    auto op = makeOp(r.type, opcode, unsigned(rng.below(kBaseReg)),
                     unsigned(rng.below(32)), unsigned(rng.below(32)));
    const bool gpr_dest =
        (r.type == isa::OpType::kInt && unsigned(opcode) < 16) ||
        (r.type == isa::OpType::kFloat && opcode == isa::Opcode::kFtoi) ||
        r.type == isa::OpType::kMemory;
    if (!gpr_dest)
        op.setDest(unsigned(rng.below(32)));  // FPR or predicate
    if (r.type == isa::OpType::kMemory && rng.chance(0.98))
        op.setSrc1(kBaseReg);
    if (r.type == isa::OpType::kInt && opcode == isa::Opcode::kLdi)
        op.setImm(std::uint32_t(rng.below(1u << 20)));
    if (r.type == isa::OpType::kBranch) {
        op.setTarget(1);
        op.setField(isa::FieldKind::kCounter,
                    unsigned(rng.below(kBaseReg)));
    }
    if (rng.chance(0.4))
        op.setPred(unsigned(rng.below(32)));
    return op;
}

/**
 * Block 0 seeds every register, then runs random MOPs; block 1 folds
 * every GPR, FPR and predicate into r3 and returns.
 */
isa::VliwProgram
randomProgram(support::Rng &rng)
{
    MopList body(1);
    for (unsigned reg = 1; reg < kBaseReg; ++reg)
        body.back().push_back(
            ldi(reg, std::int32_t(rng.range(-(1 << 19), (1 << 19) - 1))));
    body.back().push_back(
        ldi(kBaseReg, std::int32_t(0x1000 + 8 * rng.below(64))));
    body.emplace_back();
    for (unsigned reg = 0; reg < isa::kNumFpr; ++reg)
        body.back().push_back(
            makeOp(isa::OpType::kFloat, isa::Opcode::kItof, reg, reg));
    const int mops = int(rng.range(5, 30));
    for (int m = 0; m < mops; ++m) {
        body.emplace_back();
        const int width = int(rng.range(1, 6));
        for (int i = 0; i < width; ++i)
            body.back().push_back(randomOp(rng));
    }

    MopList fold;
    for (unsigned reg = 1; reg < isa::kNumGpr; ++reg)
        fold.push_back({intOp(isa::Opcode::kXor, 3, 3, reg)});
    for (unsigned reg = 0; reg < isa::kNumFpr; ++reg) {
        fold.push_back({makeOp(isa::OpType::kFloat, isa::Opcode::kFtoi, 4,
                               reg)});
        fold.push_back({intOp(isa::Opcode::kAdd, 3, 3, 4)});
    }
    for (unsigned p = 1; p < isa::kNumPred; ++p) {
        fold.push_back({ldi(4, 0)});
        fold.push_back({guarded(ldi(4, std::int32_t(1) << (p % 19)), p)});
        fold.push_back({intOp(isa::Opcode::kXor, 3, 3, 4)});
    }
    fold.push_back({ret()});

    isa::VliwProgram prog;
    addBlock(prog, body, 1);
    addBlock(prog, fold, isa::kNoBlock);
    return prog;
}

TEST(OracleRandomMops, EveryOpcodeMatches)
{
    int completed = 0;
    for (int seed = 0; seed < 1000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        support::Rng rng(std::uint64_t(seed) * 7919 + 1);
        const isa::VliwProgram prog = randomProgram(rng);
        compiler::DataSegment data;
        data.base = 0x1000;
        for (int i = 0; i < 1024; ++i)
            data.bytes.push_back(std::uint8_t(rng.below(256)));

        sim::EmulationResult fast;
        sim::EmulationResult ref;
        const sim::EmulatorConfig config;
        const std::string fast_end = outcome(
            [&] { return fast = sim::emulate(prog, data, config); });
        const std::string ref_end = outcome([&] {
            return ref = sim::referenceEmulate(prog, data, config);
        });
        ASSERT_EQ(fast_end, ref_end);
        if (fast_end == "ok") {
            expectIdentical(fast, ref);
            ++completed;
        }
    }
    // Most programs must run to the end, or only faults are compared.
    EXPECT_GT(completed, 500) << completed;
}

} // namespace
