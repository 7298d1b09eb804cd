/**
 * @file
 * The fetch model's fast kernels against their oracle, the slow
 * reference model in reference_fetch.cc.
 *
 * Random configurations — any set count 1-512 (power of two or not),
 * 1-8 ways, 8-64-byte lines (40 included), 1-128 ATB entries, every
 * predictor, 0-64-op L0 buffers (blocks larger than the buffer
 * included), the three penalty profiles and 1-16-byte buses — run
 * over all ten workloads and the fuzzer's random programs. They go
 * through one fetch::FetchBatch per program, so configurations share
 * front-end passes exactly as the sweep shares them. Every random
 * configuration comes with two siblings that differ only in sets,
 * ways and penalty profile, so they share its geometry group's
 * back-end pass: one has at most 3 sets, fewer than a long block's
 * lines, so a block's own lines evict each other; the other keeps the
 * set count, so members of several way counts share one L1. Every
 * member of every back-end pass — a group with the 40-byte line, a
 * group of a single member and a CACHE-recorder configuration (a
 * group of its own on the per-configuration loop) included — must
 * equal the reference in every FetchStats integer and the 3C split,
 * and so must the per-configuration back end of the same
 * configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "core/sweep.hh"
#include "fetch/fetch_sim.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

#include "program_gen.hh"
#include "reference_fetch.hh"

namespace {

using namespace tepic;
using fetch::FetchStats;
using fetch::SchemeClass;

using Counter = std::pair<const char *, std::uint64_t FetchStats::*>;

const Counter kCounters[] = {
    {"cycles", &FetchStats::cycles},
    {"idealCycles", &FetchStats::idealCycles},
    {"opsDelivered", &FetchStats::opsDelivered},
    {"blocksFetched", &FetchStats::blocksFetched},
    {"l1Hits", &FetchStats::l1Hits},
    {"l1Misses", &FetchStats::l1Misses},
    {"l0Hits", &FetchStats::l0Hits},
    {"l0Misses", &FetchStats::l0Misses},
    {"atbHits", &FetchStats::atbHits},
    {"atbMisses", &FetchStats::atbMisses},
    {"predictionsCorrect", &FetchStats::predictionsCorrect},
    {"predictionsWrong", &FetchStats::predictionsWrong},
    {"linesTransferred", &FetchStats::linesTransferred},
    {"busBeats", &FetchStats::busBeats},
    {"busBitFlips", &FetchStats::busBitFlips},
    {"bytesTransferred", &FetchStats::bytesTransferred},
    {"stallCycles", &FetchStats::stallCycles},
    {"mispredictStallCycles", &FetchStats::mispredictStallCycles},
    {"refillStallCycles", &FetchStats::refillStallCycles},
    {"decodeStallCycles", &FetchStats::decodeStallCycles},
    {"atbStallCycles", &FetchStats::atbStallCycles},
    {"l0SavedCycles", &FetchStats::l0SavedCycles},
};

std::string
describe(const fetch::FetchConfig &c)
{
    std::ostringstream os;
    os << fetch::schemeClassName(c.scheme) << " sets=" << c.cache.sets
       << " ways=" << c.cache.ways << " line=" << c.cache.lineBytes
       << " atb=" << c.atbEntries << " pred="
       << fetch::predictorKindName(c.predictor.kind) << "/"
       << c.predictor.gshareHistoryBits << "/"
       << c.predictor.pasHistoryBits << " l0=" << c.l0CapacityOps
       << " bus=" << c.busWidthBytes
       << " atb_pen=" << c.penalties.atbMissPenalty;
    return os.str();
}

/**
 * The draws of each shared-front-end dimension for one batch, few
 * enough that configurations share passes. The predictors differ
 * pairwise in one field only (kind, or history widths), so a pass
 * keyed on too little is shared by configurations it must not be.
 */
struct Pools
{
    unsigned atb[2];
    fetch::PredictorConfig predictor[3];
    unsigned l0[2];

    explicit Pools(support::Rng &rng)
    {
        for (int i = 0; i < 2; ++i) {
            atb[i] = unsigned(rng.range(1, 128));
            l0[i] = unsigned(rng.range(0, 64));
        }
        fetch::PredictorConfig &p = predictor[0];
        p.kind = fetch::PredictorKind(rng.below(3));
        p.gshareHistoryBits = unsigned(rng.range(1, 19));
        p.pasHistoryBits = unsigned(rng.range(1, 15));
        predictor[1] = p;
        const auto other = (unsigned(p.kind) + 1 + rng.below(2)) % 3;
        predictor[1].kind = fetch::PredictorKind(other);
        predictor[2] = p;
        ++predictor[2].gshareHistoryBits;
        ++predictor[2].pasHistoryBits;
    }
};

const fetch::CyclePenalties &
randomPenalties(support::Rng &rng)
{
    const auto &profiles = core::sweep::penaltyProfiles();
    return profiles[rng.below(profiles.size())].penalties;
}

fetch::FetchConfig
randomConfig(support::Rng &rng, const Pools &pools)
{
    fetch::FetchConfig c;
    c.scheme = SchemeClass(rng.below(3));
    c.cache.sets = rng.below(2) ? 1u << rng.range(0, 9)
                                : unsigned(rng.range(1, 512));
    c.cache.ways = unsigned(rng.range(1, 8));
    switch (rng.below(3)) {
      case 0: c.cache.lineBytes = 40; break;
      case 1: c.cache.lineBytes = 8u << rng.range(0, 3); break;
      default: c.cache.lineBytes = unsigned(rng.range(8, 64)); break;
    }
    c.atbEntries = pools.atb[rng.below(2)];
    c.predictor = pools.predictor[rng.below(3)];
    c.l0CapacityOps = pools.l0[rng.below(2)];
    c.penalties = randomPenalties(rng);
    c.busWidthBytes = unsigned(rng.range(1, 16));
    return c;
}

void
expectMatches(const FetchStats &fast, const fetch::ThreeCSplit &split,
              const fetch::ReferenceFetch &ref)
{
    for (const auto &[name, field] : kCounters)
        EXPECT_EQ(fast.*field, ref.stats.*field) << name;
    EXPECT_EQ(split.compulsory, ref.compulsory) << "compulsory";
    EXPECT_EQ(split.capacity, ref.capacity) << "capacity";
    EXPECT_EQ(split.conflict, ref.conflict) << "conflict";
}

/** The back-end pass of batch configuration @p index. */
std::size_t
passOf(const fetch::FetchBatch &batch, std::size_t index)
{
    for (std::size_t pass = 0; pass < batch.backEndCount(); ++pass) {
        const auto &members = batch.backEndMembers(pass);
        if (std::find(members.begin(), members.end(), index) !=
            members.end())
            return pass;
    }
    ADD_FAILURE() << "configuration " << index << " is in no pass";
    return 0;
}

/**
 * A sibling of @p config in its geometry group: @p config with other
 * sets, ways and penalties. With @p few_sets it has 1-3 sets, fewer
 * than a long block has lines, so a block's own lines evict each
 * other; otherwise it keeps the set count and so shares the L1 of
 * @p config with another way count.
 */
fetch::FetchConfig
sibling(const fetch::FetchConfig &config, bool few_sets,
        support::Rng &rng)
{
    fetch::FetchConfig out = config;
    if (few_sets)
        out.cache.sets = unsigned(rng.range(1, 3));
    out.cache.ways = unsigned(rng.range(1, 8));
    out.penalties = randomPenalties(rng);
    return out;
}

/**
 * @p count random configurations of one program, each with two
 * siblings in its geometry group, plus a 40-byte-line group, one
 * configuration alone in its group and a CACHE-recorder copy of the
 * first, through one batch. Every member of every back-end pass, and
 * the per-configuration back end of each, is checked against the
 * reference.
 */
void
checkProgram(const core::Artifacts &a, std::uint64_t seed, int count)
{
    support::Rng rng(seed);
    const Pools pools(rng);
    std::vector<fetch::FetchConfig> draws;
    for (int i = 0; i < count; ++i)
        draws.push_back(randomConfig(rng, pools));

    std::vector<fetch::FetchConfig> configs;
    for (const fetch::FetchConfig &draw : draws) {
        configs.push_back(draw);
        configs.push_back(sibling(draw, true, rng));
        configs.push_back(sibling(draw, false, rng));
    }
    fetch::FetchConfig line40 = randomConfig(rng, pools);
    line40.cache.lineBytes = 40;  // the Base image's line
    const std::size_t line40_index = configs.size();
    configs.push_back(line40);
    configs.push_back(sibling(line40, true, rng));
    fetch::FetchConfig alone = randomConfig(rng, pools);
    alone.cache.lineBytes = 72;  // a line size no other draw has
    configs.push_back(alone);
    fetch::FetchConfig recorded = configs.front();
    recorded.cacheStats.enabled = true;
    configs.push_back(recorded);

    fetch::FetchBatch batch(a.compiled.program, a.trace());
    for (const fetch::FetchConfig &config : configs)
        batch.add(core::imageFor(a, config.scheme), config);
    for (std::size_t pass = 0; pass < batch.frontEndCount(); ++pass)
        batch.runFrontEnd(pass);

    // The cases the groups must get right are really there.
    EXPECT_GE(batch.backEndMembers(passOf(batch, 0)).size(), 3u);
    EXPECT_GE(batch.backEndMembers(passOf(batch, line40_index)).size(),
              2u);
    EXPECT_EQ(batch.backEndMembers(passOf(batch, configs.size() - 2))
                  .size(),
              1u);
    EXPECT_EQ(batch.backEndMembers(passOf(batch, configs.size() - 1))
                  .size(),
              1u);

    std::size_t checked = 0;
    for (std::size_t pass = 0; pass < batch.backEndCount(); ++pass) {
        const std::vector<std::size_t> &members =
            batch.backEndMembers(pass);
        const std::vector<fetch::BackEndResult> results =
            batch.runBackEnd(pass, true);
        ASSERT_EQ(results.size(), members.size());
        for (std::size_t k = 0; k < members.size(); ++k) {
            const fetch::FetchConfig &config = configs[members[k]];
            SCOPED_TRACE(describe(config) + " group of " +
                         std::to_string(members.size()));
            const isa::Image &image = core::imageFor(a, config.scheme);
            const fetch::ReferenceFetch ref = fetch::referenceSimulate(
                image, a.compiled.program, a.trace(), config);
            expectMatches(results[k].stats, results[k].threeC, ref);

            fetch::ThreeCClassifier three_c(config.cache);
            expectMatches(batch.runConfig(members[k], &three_c),
                          three_c.split(), ref);

            const fetch::CacheStats &cs = results[k].stats.cacheStats;
            // Only a recorder's own group records.
            EXPECT_EQ(cs.recorded, config.cacheStats.enabled);
            if (cs.recorded) {
                expectMatches(results[k].stats,
                              {cs.compulsory, cs.capacity, cs.conflict},
                              ref);
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, configs.size());
}

const core::ArtifactRequest kImages{
    core::ArtifactKind::kTrace, core::ArtifactKind::kBase,
    core::ArtifactKind::kFull, core::ArtifactKind::kTailored};

// ---- every workload ----

class FetchOracleWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FetchOracleWorkload, RandomConfigsMatch)
{
    core::ArtifactEngine engine(1);
    const auto a = engine.build(
        workloads::workloadByName(GetParam()).source, kImages);
    std::uint64_t seed = 0x5eed;
    for (char c : GetParam())
        seed = seed * 131 + std::uint64_t(c);
    checkProgram(*a, seed, 4);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FetchOracleWorkload,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(FetchOracleGroups, ManyCapacitiesInOneGroup)
{
    // 300 set counts of one way in one group: 300 distinct 3C
    // capacities, more than a narrow zone index could count. Every
    // member must equal the per-configuration back end, and every
    // 60th one the reference.
    core::ArtifactEngine engine(1);
    const auto a =
        engine.build(workloads::workloadByName("fir").source, kImages);
    fetch::FetchBatch batch(a->compiled.program, a->trace());
    std::vector<fetch::FetchConfig> configs;
    for (unsigned sets = 1; sets <= 300; ++sets) {
        fetch::FetchConfig config;
        config.scheme = SchemeClass::kCompressed;
        config.cache = {sets, 1, 32};
        configs.push_back(config);
        batch.add(core::imageFor(*a, config.scheme), config);
    }
    ASSERT_EQ(batch.backEndCount(), 1u);
    for (std::size_t pass = 0; pass < batch.frontEndCount(); ++pass)
        batch.runFrontEnd(pass);
    const std::vector<std::size_t> &members = batch.backEndMembers(0);
    const std::vector<fetch::BackEndResult> results =
        batch.runBackEnd(0, true);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
        const fetch::FetchConfig &config = configs[members[k]];
        SCOPED_TRACE(describe(config));
        fetch::ThreeCClassifier three_c(config.cache);
        const FetchStats single = batch.runConfig(members[k], &three_c);
        for (const auto &[name, field] : kCounters)
            ASSERT_EQ(results[k].stats.*field, single.*field) << name;
        ASSERT_EQ(results[k].threeC.compulsory, three_c.split().compulsory);
        ASSERT_EQ(results[k].threeC.capacity, three_c.split().capacity);
        ASSERT_EQ(results[k].threeC.conflict, three_c.split().conflict);
        if (members[k] % 60 == 0) {
            expectMatches(results[k].stats, results[k].threeC,
                          fetch::referenceSimulate(
                              core::imageFor(*a, config.scheme),
                              a->compiled.program, a->trace(), config));
        }
    }
}

// ---- the fuzzer's random programs ----

class FetchOracleFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(FetchOracleFuzz, RandomConfigsMatch)
{
    // The seeds of FuzzDifferential.AllConfigsAgree.
    fuzz::ProgramGen gen(std::uint64_t(GetParam()) * 2654435761u + 17);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);
    core::ArtifactEngine engine(1);
    const auto a = engine.build(source, kImages);
    checkProgram(*a, std::uint64_t(GetParam()) * 7919 + 3, 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FetchOracleFuzz, ::testing::Range(0, 20));

} // namespace
