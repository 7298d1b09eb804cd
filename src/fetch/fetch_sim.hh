/**
 * @file
 * Trace-driven instruction-fetch simulator.
 *
 * Drives a dynamic block trace (from sim::emulate) through one of the
 * three IFetch organisations — Base (§3.4), Compressed (§4), Tailored
 * (§5) — combining the ATB (with its coupled branch predictor), the
 * banked L1, the L0 buffer, the Table-1 cycle model and the bus
 * bit-flip power model. Its outputs are exactly the metrics of
 * Figures 13 (operations delivered per cycle) and 14 (bus bit flips),
 * plus the ATB/Figure-7 statistics.
 *
 * The model runs in two parts (DESIGN.md §14.1):
 *
 *  - a front end, one pass over the trace per key: the ATB and its
 *    predictor (keyed on ATB entries + predictor; they are indexed
 *    by block id and never see the encoded image) and the L0 buffer
 *    (keyed on the image's per-block op counts + L0 capacity). It
 *    emits one packed bit per event per structure;
 *  - a back end: the L1 BankedCache, the bus model and the Table-1
 *    stall breakdown, reading the front end's bits. It runs either
 *    per configuration, the loop every recorder (Perfetto counters,
 *    cachestats, hotstats) hooks into, or once per geometry group:
 *    one pass prices every set count, way count, 3C capacity and
 *    penalty profile of configurations that share everything else.
 *
 * simulateFetch() is the single-configuration entry point; a
 * FetchBatch runs many configurations over one trace, shares each
 * front-end pass between all the configurations with its key and
 * each back-end pass between the members of a geometry group.
 */

#ifndef TEPIC_FETCH_FETCH_SIM_HH
#define TEPIC_FETCH_FETCH_SIM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fetch/att.hh"
#include "fetch/banked_cache.hh"
#include "fetch/cache_stats.hh"
#include "fetch/cycle_model.hh"
#include "fetch/hot_stats.hh"
#include "fetch/l0_buffer.hh"
#include "fetch/three_c.hh"
#include "isa/image.hh"
#include "isa/program.hh"
#include "power/bitflips.hh"
#include "sim/emulator.hh"

namespace tepic::fetch {

struct FetchConfig
{
    SchemeClass scheme = SchemeClass::kBase;
    CacheConfig cache = CacheConfig::paperCompressed();
    unsigned atbEntries = 64;
    PredictorConfig predictor;    ///< §3.4 default: per-entry 2-bit
    unsigned l0CapacityOps = 32;  ///< compressed scheme only
    unsigned busWidthBytes = 8;
    CyclePenalties penalties;
    /**
     * Cache-behavior recording (cache_stats.hh): 3C miss
     * classification, reuse distances, per-set heatmaps. Off by
     * default — the hot loop pays one null check per path; purely
     * observational, so stats with and without recording are
     * identical (asserted by tests).
     */
    CacheStatsConfig cacheStats;

    /**
     * Dynamic program-behavior recording (hot_stats.hh): per-block
     * hotness, branch-site accuracy, phase profile. Off by default —
     * the hot loop pays one null check per event; purely
     * observational, so stats with and without recording are
     * identical (asserted by tests).
     */
    HotStatsConfig hotStats;

    /** Paper configuration for a scheme (cache geometry per §5). */
    static FetchConfig
    paper(SchemeClass scheme)
    {
        FetchConfig config;
        config.scheme = scheme;
        config.cache = scheme == SchemeClass::kBase
            ? CacheConfig::paperBase()
            : CacheConfig::paperCompressed();
        return config;
    }
};

struct FetchStats
{
    std::uint64_t cycles = 0;
    std::uint64_t idealCycles = 0;   ///< Σ n_mops (perfect everything)
    std::uint64_t opsDelivered = 0;
    std::uint64_t blocksFetched = 0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l0Hits = 0;
    std::uint64_t l0Misses = 0;
    std::uint64_t atbHits = 0;
    std::uint64_t atbMisses = 0;
    std::uint64_t predictionsCorrect = 0;
    std::uint64_t predictionsWrong = 0;

    std::uint64_t linesTransferred = 0;
    std::uint64_t busBeats = 0;
    std::uint64_t busBitFlips = 0;
    std::uint64_t bytesTransferred = 0;

    /** Cycles beyond Σ n_mops: miss repair, mispredict, decompressor
     *  setup — the paper's "compression ratio is not IPC" cost. */
    std::uint64_t stallCycles = 0;

    /**
     * Exact per-cause split of stallCycles (Table-1 taxonomy; see
     * StallBreakdown). Tiling invariant, tested for every scheme:
     *
     *   mispredictStallCycles + refillStallCycles + decodeStallCycles
     *     + atbStallCycles == stallCycles
     */
    std::uint64_t mispredictStallCycles = 0; ///< redirect repair
    std::uint64_t refillStallCycles = 0;     ///< L1 line refill + miss stages
    std::uint64_t decodeStallCycles = 0;     ///< compressed decoder stage
    std::uint64_t atbStallCycles = 0;        ///< ATT fetch on ATB miss
    /** Stall cycles the L0 bypass avoided (a saving, not a stall —
     *  deliberately outside the tiling sum). Compressed only. */
    std::uint64_t l0SavedCycles = 0;

    /** Cache-behavior record; recorded only when
     *  FetchConfig::cacheStats.enabled. See cache_stats.hh for the
     *  tiling contract. */
    CacheStats cacheStats;

    /** Dynamic-behavior record; recorded only when
     *  FetchConfig::hotStats.enabled. See hot_stats.hh for the
     *  tiling contract. */
    HotStats hotStats;

    double
    ipc() const
    {
        return cycles ? double(opsDelivered) / double(cycles) : 0.0;
    }

    double
    idealIpc() const
    {
        return idealCycles ? double(opsDelivered) / double(idealCycles)
                           : 0.0;
    }

    double
    l1HitRate() const
    {
        const std::uint64_t total = l1Hits + l1Misses;
        return total ? double(l1Hits) / double(total) : 0.0;
    }

    double
    predictionAccuracy() const
    {
        const std::uint64_t total =
            predictionsCorrect + predictionsWrong;
        return total ? double(predictionsCorrect) / double(total) : 0.0;
    }
};

/**
 * What the ATB/predictor front end saw on one trace, one packed bit
 * per event per stream (std::vector<bool>).
 */
struct AtbStream
{
    std::vector<bool> hit;  ///< bit i: event i found its ATT entry resident
    /**
     * Bit i: the next-block prediction event i consumed was right
     * (bit 0 is the cold start, counted correct). Bit N, one past the
     * last event, is the final prediction nothing consumed.
     */
    std::vector<bool> correct;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/** What the L0-buffer front end saw on one trace. */
struct L0Stream
{
    std::vector<bool> hit;  ///< bit i: event i was served by the L0 buffer
    /** Resident ops after every 1024th event (the Perfetto
     *  occupancy track). */
    std::vector<std::uint32_t> occupancy;
};

/** One member's result of a geometry group's back-end pass. */
struct BackEndResult
{
    FetchStats stats;
    ThreeCSplit threeC;  ///< zero unless the pass classified 3C
};

/**
 * Many fetch configurations over one program's trace. add() each
 * (image, config); run every front-end pass (distinct passes may run
 * concurrently); then run every back-end pass (concurrent calls are
 * safe). One ATT is built per distinct image, one ATB pass per
 * distinct (ATB entries, predictor) and one L0 pass per distinct
 * (image, L0 capacity) among the compressed configurations.
 *
 * Configurations that differ only in cache sets, cache ways and
 * penalties form one geometry group and share one back-end pass: one
 * BankedCache per set count with the group's most ways for it (a
 * member of W ways hits iff the block's LRU depth < W), one
 * ThreeCClassifier with a shadow per distinct capacity, per-member
 * Table-1 outcome counts priced by each member's penalties at the
 * end, and one bus per member. A configuration with a recorder on is
 * a group of its own and runs the per-configuration loop. The images,
 * program and trace must outlive the batch.
 */
class FetchBatch
{
  public:
    FetchBatch(const isa::VliwProgram &program,
               const sim::BlockTrace &trace);

    /** Add @p config simulated over @p image; returns its index. */
    std::size_t add(const isa::Image &image, const FetchConfig &config);

    /** Front-end passes the added configurations need. */
    std::size_t
    frontEndCount() const
    {
        return atbPasses_.size() + l0Passes_.size();
    }

    /** Run front-end pass @p pass (0 <= pass < frontEndCount()). */
    void runFrontEnd(std::size_t pass);

    /** Back-end passes (geometry groups) the added configurations
     *  need. */
    std::size_t backEndCount() const { return groups_.size(); }

    /** The configuration indices of back-end pass @p pass, in add()
     *  order. */
    const std::vector<std::size_t> &
    backEndMembers(std::size_t pass) const
    {
        return groups_[pass];
    }

    /**
     * Back-end pass @p pass, after every front-end pass ran: one
     * result per member, in backEndMembers() order. With @p three_c
     * every member's L1 misses are also split 3C (without a
     * recorder).
     */
    std::vector<BackEndResult> runBackEnd(std::size_t pass,
                                          bool three_c) const;

    /**
     * Configuration @p index alone, through the per-configuration
     * loop that carries the recorders, after every front-end pass
     * ran. When @p three_c is set, every L1 access is also classified
     * into it.
     */
    FetchStats runConfig(std::size_t index,
                         ThreeCClassifier *three_c = nullptr) const;

  private:
    struct AtbPass
    {
        unsigned entries = 0;
        PredictorConfig predictor;
        std::size_t att = 0;
        AtbStream stream;
    };
    struct L0Pass
    {
        unsigned capacityOps = 0;
        std::size_t att = 0;
        L0Stream stream;
    };
    struct Config
    {
        FetchConfig config;
        std::size_t att = 0;
        std::size_t atbPass = 0;
        std::size_t l0Pass = 0;  ///< compressed configurations only
    };

    const isa::VliwProgram &program_;
    const sim::BlockTrace &trace_;
    std::vector<const isa::Image *> images_;  ///< parallel to atts_
    std::vector<Att> atts_;
    std::vector<AtbPass> atbPasses_;
    std::vector<L0Pass> l0Passes_;
    std::vector<Config> configs_;
    std::vector<std::vector<std::size_t>> groups_;  ///< member indices
};

/**
 * Run the fetch simulation of @p image under @p config over @p trace.
 * The image must describe the same program whose execution produced
 * the trace.
 */
FetchStats simulateFetch(const isa::Image &image,
                         const isa::VliwProgram &program,
                         const sim::BlockTrace &trace,
                         const FetchConfig &config);

} // namespace tepic::fetch

#endif // TEPIC_FETCH_FETCH_SIM_HH
