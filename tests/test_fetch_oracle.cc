/**
 * @file
 * The fetch model's fast kernel against its oracle, the slow
 * reference model in reference_fetch.cc.
 *
 * Random configurations — any set count 1-512 (power of two or not),
 * 1-8 ways, 8-64-byte lines (40 included), 1-128 ATB entries, every
 * predictor, 0-64-op L0 buffers (blocks larger than the buffer
 * included), the three penalty profiles and 1-16-byte buses — run
 * over all ten workloads and the fuzzer's random programs. They go
 * through one fetch::FetchBatch per program, so configurations share
 * front-end passes exactly as the sweep shares them; every FetchStats
 * integer and the 3C split must equal the reference's. One
 * configuration per batch also runs through simulateFetch with the
 * CACHE recorder on, whose 3C split must agree as well.
 */

#include <gtest/gtest.h>

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
    const auto &profiles = core::sweep::penaltyProfiles();
    c.penalties = profiles[rng.below(profiles.size())].penalties;
    c.busWidthBytes = unsigned(rng.range(1, 16));
    return c;
}

void
expectMatches(const FetchStats &fast, std::uint64_t compulsory,
              std::uint64_t capacity, std::uint64_t conflict,
              const fetch::ReferenceFetch &ref)
{
    for (const auto &[name, field] : kCounters)
        EXPECT_EQ(fast.*field, ref.stats.*field) << name;
    EXPECT_EQ(compulsory, ref.compulsory) << "compulsory";
    EXPECT_EQ(capacity, ref.capacity) << "capacity";
    EXPECT_EQ(conflict, ref.conflict) << "conflict";
}

/**
 * @p count random configurations of one program through one batch,
 * each against the reference; the first also through simulateFetch
 * with the CACHE recorder on.
 */
void
checkProgram(const core::Artifacts &a, std::uint64_t seed, int count)
{
    support::Rng rng(seed);
    const Pools pools(rng);
    std::vector<fetch::FetchConfig> configs;
    fetch::FetchBatch batch(a.compiled.program, a.trace());
    for (int i = 0; i < count; ++i) {
        configs.push_back(randomConfig(rng, pools));
        batch.add(core::imageFor(a, configs.back().scheme),
                  configs.back());
    }
    for (std::size_t pass = 0; pass < batch.frontEndCount(); ++pass)
        batch.runFrontEnd(pass);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const fetch::FetchConfig &config = configs[i];
        SCOPED_TRACE(describe(config));
        const isa::Image &image = core::imageFor(a, config.scheme);
        const fetch::ReferenceFetch ref = fetch::referenceSimulate(
            image, a.compiled.program, a.trace(), config);

        fetch::ThreeCClassifier three_c(config.cache);
        const FetchStats fast = batch.runBackEnd(i, &three_c);
        expectMatches(fast, three_c.compulsory(), three_c.capacity(),
                      three_c.conflict(), ref);

        if (i == 0) {
            fetch::FetchConfig recorded = config;
            recorded.cacheStats.enabled = true;
            const FetchStats direct = fetch::simulateFetch(
                image, a.compiled.program, a.trace(), recorded);
            const fetch::CacheStats &cs = direct.cacheStats;
            if (cs.recorded) {
                expectMatches(direct, cs.compulsory, cs.capacity,
                              cs.conflict, ref);
            } else {
                expectMatches(direct, ref.compulsory, ref.capacity,
                              ref.conflict, ref);
            }
        }
    }
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
