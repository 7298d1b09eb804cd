#include "fetch/fetch_sim.hh"

#include <algorithm>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "support/logging.hh"
#include "support/trace.hh"

namespace tepic::fetch {

namespace {

/**
 * Perfetto counter-track names per scheme. trace::counter() keeps the
 * pointer (names are not copied), so these must be string literals.
 */
const char *
stallRateCounterName(SchemeClass scheme)
{
    switch (scheme) {
      case SchemeClass::kBase: return "fetch.base.stall_rate";
      case SchemeClass::kTailored: return "fetch.tailored.stall_rate";
      case SchemeClass::kCompressed:
        return "fetch.compressed.stall_rate";
    }
    return "fetch.?.stall_rate";
}

/** Blocks between counter-track samples (power of two). */
constexpr std::uint64_t kCounterInterval = 1024;

AtbStream
runAtbFrontEnd(const Att &att, const sim::BlockTrace &trace,
               unsigned entries, const PredictorConfig &predictor)
{
    const std::uint64_t n = trace.events.size();
    Atb atb(att, entries, predictor);
    AtbStream out;
    out.hit.resize(n);
    out.correct.resize(n + 1);
    // Prediction for the very first block: treat as correct (cold
    // start is charged to neither scheme).
    bool correct = true;
    for (std::uint64_t i = 0; i < n; ++i) {
        const sim::TraceEvent &event = trace.events[i];
        if (correct)
            out.correct[i] = true;
        // Translation must be resident before the block is fetched.
        if (atb.access(event.block))
            out.hit[i] = true;
        // Predict the follower, then train with the actual outcome.
        correct = atb.predictNext(event.block) == event.next;
        atb.update(event.block, event.branchTaken, event.next);
    }
    if (correct)
        out.correct[n] = true;
    out.hits = atb.hits();
    out.misses = atb.misses();
    return out;
}

L0Stream
runL0FrontEnd(const Att &att, const sim::BlockTrace &trace,
              unsigned capacity_ops)
{
    const std::uint64_t n = trace.events.size();
    L0Buffer buffer(capacity_ops);
    L0Stream out;
    out.hit.resize(n);
    out.occupancy.reserve(std::size_t(n / kCounterInterval));
    for (std::uint64_t i = 0; i < n; ++i) {
        const isa::BlockId block = trace.events[i].block;
        if (buffer.access(block, att.entry(block).numOps))
            out.hit[i] = true;
        if ((i + 1) % kCounterInterval == 0)
            out.occupancy.push_back(buffer.residentOps());
    }
    return out;
}

/**
 * The Table-1 stall of every (prediction, L1, L0) outcome of one
 * configuration, taken from stallBreakdown() itself so the back end
 * does not re-derive the model. Of a block's shape only its line
 * count enters, through the l1Refill cause, linearly (checked here).
 */
struct StallTable
{
    StallBreakdown oneLine[8];
    std::uint64_t refillPerLine[8] = {};
    std::uint64_t l0Saved[8] = {};

    static unsigned
    index(bool prediction_correct, bool l1_hit, bool l0_hit)
    {
        return unsigned(prediction_correct) | unsigned(l1_hit) << 1 |
               unsigned(l0_hit) << 2;
    }

    StallTable(SchemeClass scheme, const CyclePenalties &p)
    {
        for (unsigned i = 0; i < 8; ++i) {
            FetchEvent fe;
            fe.predictionCorrect = i & 1;
            fe.l1Hit = i & 2;
            fe.l0Hit = i & 4;
            const StallBreakdown one = stallBreakdown(scheme, fe, 1, 1, 1, p);
            const StallBreakdown two = stallBreakdown(scheme, fe, 1, 1, 2, p);
            const StallBreakdown three =
                stallBreakdown(scheme, fe, 1, 1, 3, p);
            TEPIC_ASSERT(two.mispredict == one.mispredict &&
                             two.decodeStage == one.decodeStage &&
                             three.mispredict == one.mispredict &&
                             three.decodeStage == one.decodeStage &&
                             three.l1Refill - two.l1Refill ==
                                 two.l1Refill - one.l1Refill,
                         "stall model is not linear in block lines");
            oneLine[i] = one;
            refillPerLine[i] = two.l1Refill - one.l1Refill;
            l0Saved[i] = l0BypassSavings(scheme, fe, p);
        }
    }
};

/**
 * The back end: one configuration's pass through the L1, the bus and
 * the Table-1 cycle model, reading the ATB (and, for the compressed
 * scheme, L0) outcomes from the front end.
 */
FetchStats
simulateBackEnd(const Att &att, const isa::Image &image,
                const sim::BlockTrace &trace, const AtbStream &atb,
                const L0Stream *l0, const FetchConfig &config,
                ThreeCClassifier *three_c)
{
    const bool compressed = config.scheme == SchemeClass::kCompressed;
    TEPIC_ASSERT(!compressed || l0 != nullptr,
                 "the compressed scheme needs an L0 front end");
    BankedCache cache(config.cache);
    const LineMap lines(config.cache);
    power::BusModel bus(config.busWidthBytes);
    const StallTable stall_table(config.scheme, config.penalties);

    FetchStats stats;

    // One relaxed atomic load, hoisted out of the hot loop so the
    // tracing-off path keeps its < 2 % overhead bound.
    const bool trace_sink = support::trace::enabled();
    const char *stall_rate_name = stallRateCounterName(config.scheme);

    // Cache-behavior observability (cache_stats.hh): with recording
    // off the hot loop pays one null check per path.
    std::optional<CacheStatsRecorder> cache_stats;
    CacheStatsRecorder *rec = nullptr;
    if (config.cacheStats.enabled) {
        cache_stats.emplace(config.cache,
                            std::uint64_t(trace.events.size()),
                            config.cacheStats);
        rec = &*cache_stats;
        cache.setObserver(rec);
    }

    // Dynamic-behavior observability (hot_stats.hh): same stub/null
    // check contract as the cache recorder above.
    std::optional<HotStatsRecorder> hot_stats;
    HotStatsRecorder *hot = nullptr;
    if (config.hotStats.enabled) {
        hot_stats.emplace(std::uint32_t(att.entries().size()),
                          std::uint64_t(trace.events.size()),
                          config.hotStats);
        hot = &*hot_stats;
    }

    // The ATT entry an ATB miss uploads over the bus.
    const std::size_t att_bytes = (att.entryBits() + 7) / 8;

    const std::uint64_t n = trace.events.size();
    for (std::uint64_t event_index = 0; event_index < n; ++event_index) {
        const sim::TraceEvent &event = trace.events[event_index];
        const isa::BlockId block = event.block;
        const AttEntry &entry = att.entry(block);
        ++stats.blocksFetched;
        if (rec)
            rec->onFetch(block);

        const bool prediction_correct = atb.correct[event_index];

        // ATB: translation must be resident before the block can be
        // fetched; a miss costs the ATT upload from ROM, over the
        // memory bus.
        const bool atb_hit = atb.hit[event_index];
        if (rec)
            rec->onAtbAccess(atb_hit);
        if (!atb_hit)
            bus.transferFill(std::uint8_t(0xa5 ^ (block & 0xff)), att_bytes);

        // L0 buffer (compressed only) — checked before/with the L1.
        const bool l0_hit = compressed && l0->hit[event_index];

        // L1 access (skipped entirely on an L0 hit: the buffer has
        // priority and already holds the whole decompressed block).
        bool l1_hit = true;
        std::uint32_t n_lines = 1;
        if (!l0_hit) {
            const CacheAccess access =
                cache.accessBlock(entry.byteAddress, entry.byteSize);
            if (rec) {
                rec->onL1Block(entry.byteAddress, entry.byteSize,
                               access.hit);
            }
            if (three_c) {
                three_c->access(entry.byteAddress, entry.byteSize,
                                access.hit);
            }
            l1_hit = access.hit;
            n_lines = access.blockLines;
            if (!access.hit) {
                stats.linesTransferred += access.linesFilled;
                // Miss traffic: the block's bytes cross the bus.
                const std::size_t begin = entry.byteAddress;
                const std::size_t end = std::min<std::size_t>(
                    begin + std::size_t(access.linesFilled) *
                                config.cache.lineBytes,
                    image.bytes.size());
                if (begin < end) {
                    bus.transfer({image.bytes.data() + begin,
                                  end - begin});
                }
            }
        } else {
            if (rec)
                rec->onL0Bypass();
            if (entry.byteSize > 0)
                n_lines = lines.span(entry.byteAddress, entry.byteSize);
        }

        // Per-cause stall accounting for this block; the simulator
        // owns the ATB cause, the cycle model the other three.
        const unsigned outcome =
            StallTable::index(prediction_correct, l1_hit, l0_hit);
        StallBreakdown causes = stall_table.oneLine[outcome];
        causes.l1Refill +=
            stall_table.refillPerLine[outcome] * (n_lines - 1);
        causes.atbMiss = atb_hit ? 0 : config.penalties.atbMissPenalty;
        const std::uint64_t stall = causes.total();
        const std::uint64_t block_cycles = entry.numMops + stall;
        if (hot) {
            // The mispredict component is charged back to the site
            // that made the wrong prediction (the recorder remembers
            // the previous event's block).
            hot->onBlock(block, block_cycles, stall,
                         causes.mispredict);
        }
        stats.cycles += block_cycles;
        stats.idealCycles += entry.numMops;
        stats.opsDelivered += entry.numOps;
        stats.stallCycles += stall;
        stats.mispredictStallCycles += causes.mispredict;
        stats.refillStallCycles += causes.l1Refill;
        stats.decodeStallCycles += causes.decodeStage;
        stats.atbStallCycles += causes.atbMiss;
        stats.l0SavedCycles += stall_table.l0Saved[outcome];

        const std::uint64_t events_done = event_index + 1;
        if (trace_sink && events_done % kCounterInterval == 0) {
            // Counter tracks: running stall rate (stall cycles per
            // total cycle so far) and, for compressed, L0 occupancy.
            support::trace::counter(
                stall_rate_name,
                stats.cycles ? double(stats.stallCycles) /
                                   double(stats.cycles)
                             : 0.0,
                "fetch");
            if (compressed) {
                support::trace::counter(
                    "fetch.compressed.l0_occupancy",
                    double(l0->occupancy[std::size_t(
                        events_done / kCounterInterval - 1)]),
                    "fetch");
            }
        }

        stats.predictionsCorrect += prediction_correct;
        stats.predictionsWrong += !prediction_correct;
        stats.l1Hits += l1_hit;
        stats.l1Misses += !l1_hit;
        stats.l0Hits += l0_hit;
        stats.l0Misses += compressed && !l0_hit;

        if (hot) {
            // The prediction this block made for its follower (the
            // one after the last block is never consumed).
            hot->onBranchSite(block, event.branchTaken,
                              atb.correct[events_done]);
        }
    }

    stats.atbHits = atb.hits;
    stats.atbMisses = atb.misses;
    stats.busBeats = bus.beats();
    stats.busBitFlips = bus.bitFlips();
    stats.bytesTransferred = bus.bytesTransferred();
    if (rec)
        stats.cacheStats = rec->finish();
    if (hot)
        stats.hotStats = hot->finish();
    return stats;
}

/** Whether @p config records anything, which only the
 *  per-configuration loop does. */
bool
recorded(const FetchConfig &config)
{
    return config.cacheStats.enabled || config.hotStats.enabled;
}

/**
 * One geometry group's back-end pass (FetchBatch): the members of
 * @p configs share the image, scheme, line size, front-end streams
 * and bus width, and differ only in sets, ways and penalties. Every
 * member's result equals simulateBackEnd() of it:
 *
 *  - L1: one BankedCache per set count, with the most ways of that
 *    set count; a member of W ways hits iff the block's LRU depth is
 *    below W (banked_cache.hh);
 *  - 3C: one classifier, one shadow per distinct capacity;
 *  - stall: the Table-1 stall of a block depends only on its outcome
 *    and, linearly, its line count, so the pass tallies the count
 *    and the sum of n_lines - 1 of each outcome (once for all
 *    geometries, plus each geometry's L1 misses), and each member
 *    prices them with its own penalties at the end;
 *  - bus: each geometry has its own bus, fed every ATT upload and
 *    its own miss refills in trace order.
 */
std::vector<BackEndResult>
simulateGroup(const Att &att, const isa::Image &image,
              const sim::BlockTrace &trace, const AtbStream &atb,
              const L0Stream *l0,
              const std::vector<const FetchConfig *> &configs,
              bool record_3c)
{
    const FetchConfig &lead = *configs.front();
    const bool compressed = lead.scheme == SchemeClass::kCompressed;
    TEPIC_ASSERT(!compressed || l0 != nullptr,
                 "the compressed scheme needs an L0 front end");

    /** Everything one (sets, ways) geometry sees; members that differ
     *  only in penalties share it. */
    struct Geometry
    {
        unsigned sets = 0;
        unsigned ways = 0;
        std::size_t cache = 0;   ///< index into caches
        unsigned shadow = 0;     ///< 3C capacity index
        power::BusModel bus;
        // L1 misses and their Σ (n_lines - 1), by prediction outcome.
        std::uint64_t misses[2] = {};
        std::uint64_t missExtraLines[2] = {};
        std::uint64_t linesTransferred = 0;
        ThreeCSplit threeC;
    };
    std::vector<Geometry> geometries;
    std::vector<std::size_t> member_geometry;
    std::vector<CacheConfig> l1_configs;
    std::vector<std::uint32_t> capacities;
    for (const FetchConfig *config : configs) {
        const CacheConfig &cache = config->cache;
        const auto it = std::find_if(
            geometries.begin(), geometries.end(),
            [&](const Geometry &g) {
                return g.sets == cache.sets && g.ways == cache.ways;
            });
        member_geometry.push_back(
            std::size_t(it - geometries.begin()));
        if (it != geometries.end())
            continue;
        const auto l1 = std::size_t(
            std::find_if(l1_configs.begin(), l1_configs.end(),
                         [&](const CacheConfig &c) {
                             return c.sets == cache.sets;
                         }) -
            l1_configs.begin());
        if (l1 == l1_configs.size())
            l1_configs.push_back(cache);
        l1_configs[l1].ways = std::max(l1_configs[l1].ways, cache.ways);
        Geometry &g = geometries.emplace_back();
        g.sets = cache.sets;
        g.ways = cache.ways;
        g.cache = l1;
        g.bus = power::BusModel(lead.busWidthBytes);
        capacities.push_back(cache.sets * cache.ways);
    }
    std::sort(capacities.begin(), capacities.end());
    capacities.erase(std::unique(capacities.begin(), capacities.end()),
                     capacities.end());
    for (Geometry &g : geometries) {
        g.shadow = unsigned(
            std::lower_bound(capacities.begin(), capacities.end(),
                             g.sets * g.ways) -
            capacities.begin());
    }
    std::vector<BankedCache> caches;
    caches.reserve(l1_configs.size());
    for (const CacheConfig &config : l1_configs)
        caches.emplace_back(config);
    std::vector<std::uint32_t> depth(caches.size());
    std::optional<ThreeCClassifier> three_c;
    if (record_3c)
        three_c.emplace(lead.cache.lineBytes, capacities);

    const LineMap lines(lead.cache);
    const std::size_t att_bytes = (att.entryBits() + 7) / 8;

    // What every geometry sees alike: the outcome counts and
    // Σ (n_lines - 1) with every L1 access tallied as a hit (each
    // geometry moves its misses across when it is priced).
    std::uint64_t shared_outcomes[8] = {};
    std::uint64_t shared_extra_lines[8] = {};
    std::uint64_t ideal_cycles = 0;
    std::uint64_t ops_delivered = 0;
    std::uint64_t predictions_correct = 0;
    std::uint64_t atb_miss_events = 0;
    std::uint64_t l0_hits = 0;

    const std::uint64_t n = trace.events.size();
    for (std::uint64_t event_index = 0; event_index < n; ++event_index) {
        const isa::BlockId block = trace.events[event_index].block;
        const AttEntry &entry = att.entry(block);
        ideal_cycles += entry.numMops;
        ops_delivered += entry.numOps;
        const bool prediction_correct = atb.correct[event_index];
        predictions_correct += prediction_correct;

        if (!atb.hit[event_index]) {
            ++atb_miss_events;
            const auto fill = std::uint8_t(0xa5 ^ (block & 0xff));
            for (Geometry &g : geometries)
                g.bus.transferFill(fill, att_bytes);
        }

        if (compressed && l0->hit[event_index]) {
            ++l0_hits;
            const std::uint32_t n_lines =
                entry.byteSize > 0
                    ? lines.span(entry.byteAddress, entry.byteSize)
                    : 1;
            const unsigned outcome =
                StallTable::index(prediction_correct, true, true);
            ++shared_outcomes[outcome];
            shared_extra_lines[outcome] += n_lines - 1;
            continue;
        }

        std::uint32_t n_lines = 0;
        for (std::size_t k = 0; k < caches.size(); ++k) {
            const CacheAccess access =
                caches[k].accessBlock(entry.byteAddress, entry.byteSize);
            depth[k] = access.depth;
            n_lines = access.blockLines;
        }
        ThreeCClassifier::Probe probe;
        if (three_c)
            probe = three_c->touchBlock(entry.byteAddress, entry.byteSize);
        // Miss traffic: the block's bytes cross the bus.
        const std::size_t begin = entry.byteAddress;
        const std::size_t end = std::min<std::size_t>(
            begin + std::size_t(n_lines) * lead.cache.lineBytes,
            image.bytes.size());
        const unsigned outcome =
            StallTable::index(prediction_correct, true, false);
        ++shared_outcomes[outcome];
        shared_extra_lines[outcome] += n_lines - 1;
        for (Geometry &g : geometries) {
            if (depth[g.cache] < g.ways)
                continue;
            ++g.misses[prediction_correct];
            g.missExtraLines[prediction_correct] += n_lines - 1;
            g.linesTransferred += n_lines;
            if (begin < end)
                g.bus.transfer({image.bytes.data() + begin, end - begin});
            if (three_c)
                ThreeCClassifier::countMiss(probe, g.shadow, g.threeC);
        }
    }

    // Price every member's outcome counts with its own penalties.
    std::vector<BackEndResult> out(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const FetchConfig &config = *configs[i];
        const Geometry &g = geometries[member_geometry[i]];
        const StallTable table(config.scheme, config.penalties);
        std::uint64_t counts[8];
        std::uint64_t extras[8];
        std::copy(std::begin(shared_outcomes), std::end(shared_outcomes),
                  counts);
        std::copy(std::begin(shared_extra_lines),
                  std::end(shared_extra_lines), extras);
        for (unsigned correct = 0; correct < 2; ++correct) {
            const unsigned hit = StallTable::index(correct, true, false);
            const unsigned miss = StallTable::index(correct, false, false);
            counts[hit] -= g.misses[correct];
            counts[miss] += g.misses[correct];
            extras[hit] -= g.missExtraLines[correct];
            extras[miss] += g.missExtraLines[correct];
        }
        FetchStats &s = out[i].stats;
        for (unsigned outcome = 0; outcome < 8; ++outcome) {
            const std::uint64_t count = counts[outcome];
            const std::uint64_t extra_lines = extras[outcome];
            const StallBreakdown &one = table.oneLine[outcome];
            s.mispredictStallCycles += count * one.mispredict;
            s.refillStallCycles += count * one.l1Refill +
                                   extra_lines *
                                       table.refillPerLine[outcome];
            s.decodeStallCycles += count * one.decodeStage;
            s.l0SavedCycles += count * table.l0Saved[outcome];
            (outcome & 2 ? s.l1Hits : s.l1Misses) += count;
        }
        s.atbStallCycles =
            atb_miss_events * config.penalties.atbMissPenalty;
        s.stallCycles = s.mispredictStallCycles + s.refillStallCycles +
                        s.decodeStallCycles + s.atbStallCycles;
        s.blocksFetched = n;
        s.idealCycles = ideal_cycles;
        s.cycles = ideal_cycles + s.stallCycles;
        s.opsDelivered = ops_delivered;
        s.predictionsCorrect = predictions_correct;
        s.predictionsWrong = n - predictions_correct;
        s.l0Hits = l0_hits;
        s.l0Misses = compressed ? n - l0_hits : 0;
        s.atbHits = atb.hits;
        s.atbMisses = atb.misses;
        s.linesTransferred = g.linesTransferred;
        s.busBeats = g.bus.beats();
        s.busBitFlips = g.bus.bitFlips();
        s.bytesTransferred = g.bus.bytesTransferred();
        out[i].threeC = g.threeC;
    }
    return out;
}

} // namespace

FetchBatch::FetchBatch(const isa::VliwProgram &program,
                       const sim::BlockTrace &trace)
    : program_(program), trace_(trace)
{
}

std::size_t
FetchBatch::add(const isa::Image &image, const FetchConfig &config)
{
    Config entry;
    entry.config = config;

    // One ATT per distinct image.
    entry.att = std::size_t(
        std::find(images_.begin(), images_.end(), &image) -
        images_.begin());
    if (entry.att == images_.size()) {
        images_.push_back(&image);
        atts_.push_back(Att::build(image, program_));
    }

    // The ATB and its predictor are indexed by block id and read
    // only the program's CFG (fallthrough, static target) from the
    // ATT, so every image of the program shares one pass per key.
    const PredictorConfig &p = config.predictor;
    const auto atb_it = std::find_if(
        atbPasses_.begin(), atbPasses_.end(), [&](const AtbPass &pass) {
            return pass.entries == config.atbEntries &&
                   pass.predictor.kind == p.kind &&
                   pass.predictor.gshareHistoryBits ==
                       p.gshareHistoryBits &&
                   pass.predictor.pasHistoryBits == p.pasHistoryBits;
        });
    entry.atbPass = std::size_t(atb_it - atbPasses_.begin());
    if (atb_it == atbPasses_.end())
        atbPasses_.push_back({config.atbEntries, p, entry.att, {}});

    // The L0 buffer holds decompressed blocks by op count: one pass
    // per (image op counts, capacity), compressed scheme only.
    if (config.scheme == SchemeClass::kCompressed) {
        const auto l0_it = std::find_if(
            l0Passes_.begin(), l0Passes_.end(), [&](const L0Pass &pass) {
                return pass.att == entry.att &&
                       pass.capacityOps == config.l0CapacityOps;
            });
        entry.l0Pass = std::size_t(l0_it - l0Passes_.begin());
        if (l0_it == l0Passes_.end())
            l0Passes_.push_back({config.l0CapacityOps, entry.att, {}});
    }

    // Geometry groups: configurations equal in everything but sets,
    // ways and penalties share a back-end pass; a recorder hooks the
    // per-configuration loop, so its configuration stays alone.
    const std::size_t index = configs_.size();
    const auto group_it = std::find_if(
        groups_.begin(), groups_.end(),
        [&](const std::vector<std::size_t> &group) {
            const Config &lead = configs_[group.front()];
            return !recorded(config) && !recorded(lead.config) &&
                   lead.att == entry.att &&
                   lead.atbPass == entry.atbPass &&
                   lead.l0Pass == entry.l0Pass &&
                   lead.config.scheme == config.scheme &&
                   lead.config.cache.lineBytes ==
                       config.cache.lineBytes &&
                   lead.config.busWidthBytes == config.busWidthBytes;
        });
    if (group_it == groups_.end())
        groups_.push_back({index});
    else
        group_it->push_back(index);

    configs_.push_back(std::move(entry));
    return index;
}

void
FetchBatch::runFrontEnd(std::size_t pass)
{
    TEPIC_ASSERT(pass < frontEndCount(), "no front-end pass ", pass);
    if (pass < atbPasses_.size()) {
        AtbPass &atb = atbPasses_[pass];
        atb.stream = runAtbFrontEnd(atts_[atb.att], trace_, atb.entries,
                                    atb.predictor);
        return;
    }
    L0Pass &l0 = l0Passes_[pass - atbPasses_.size()];
    l0.stream = runL0FrontEnd(atts_[l0.att], trace_, l0.capacityOps);
}

std::vector<BackEndResult>
FetchBatch::runBackEnd(std::size_t pass, bool three_c) const
{
    TEPIC_ASSERT(pass < groups_.size(), "no back-end pass ", pass);
    const std::vector<std::size_t> &members = groups_[pass];
    const Config &lead = configs_[members.front()];
    if (recorded(lead.config)) {
        std::optional<ThreeCClassifier> classifier;
        if (three_c)
            classifier.emplace(lead.config.cache);
        BackEndResult result;
        result.stats = runConfig(members.front(),
                                 classifier ? &*classifier : nullptr);
        if (classifier)
            result.threeC = classifier->split();
        return {result};
    }
    std::vector<const FetchConfig *> configs;
    configs.reserve(members.size());
    for (std::size_t index : members)
        configs.push_back(&configs_[index].config);
    const L0Stream *l0 =
        lead.config.scheme == SchemeClass::kCompressed
            ? &l0Passes_[lead.l0Pass].stream
            : nullptr;
    return simulateGroup(atts_[lead.att], *images_[lead.att], trace_,
                         atbPasses_[lead.atbPass].stream, l0, configs,
                         three_c);
}

FetchStats
FetchBatch::runConfig(std::size_t index,
                      ThreeCClassifier *three_c) const
{
    TEPIC_ASSERT(index < configs_.size(), "no configuration ", index);
    const Config &entry = configs_[index];
    const L0Stream *l0 =
        entry.config.scheme == SchemeClass::kCompressed
            ? &l0Passes_[entry.l0Pass].stream
            : nullptr;
    return simulateBackEnd(atts_[entry.att], *images_[entry.att],
                           trace_, atbPasses_[entry.atbPass].stream, l0,
                           entry.config, three_c);
}

FetchStats
simulateFetch(const isa::Image &image, const isa::VliwProgram &program,
              const sim::BlockTrace &trace, const FetchConfig &config)
{
    FetchBatch batch(program, trace);
    batch.add(image, config);
    for (std::size_t pass = 0; pass < batch.frontEndCount(); ++pass)
        batch.runFrontEnd(pass);
    return batch.runConfig(0);
}

} // namespace tepic::fetch
