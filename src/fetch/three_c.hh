/**
 * @file
 * The 3C miss classifier: every L1 block miss is exactly one of
 * compulsory / capacity / conflict (the classic Hill model).
 *
 *  - compulsory: the block touches at least one never-before-seen
 *    line (first-touch bitmap);
 *  - conflict: otherwise, a fully-associative LRU *shadow cache* of
 *    the same total line capacity holds every line of the block, so
 *    the set-associative cache lost it to mapping restrictions;
 *  - capacity: even the fully-associative shadow would have missed.
 *
 * One classifier serves several shadow capacities at once. A fully
 * associative LRU cache of C lines holds exactly the C most recently
 * touched lines, so every shadow is a prefix of one LRU list: the
 * list is cut off at the largest capacity, and one zone boundary per
 * capacity marks where each smaller shadow ends. A touch moves a line
 * to the front and pushes the last line of every zone above it one
 * zone down, so it costs O(number of capacities). The geometry
 * groups of FetchBatch classify all their members with one
 * classifier; the single-capacity access() below serves the CACHE
 * recorder.
 *
 * This is the one 3C implementation: CacheStatsRecorder (the CACHE
 * report) and the sweep's back-end passes both drive it, so the two
 * cannot disagree. It is part of the fetch model, not of the
 * observability layer.
 */

#ifndef TEPIC_FETCH_THREE_C_HH
#define TEPIC_FETCH_THREE_C_HH

#include <cstdint>
#include <vector>

#include "fetch/banked_cache.hh"

namespace tepic::fetch {

/** L1 misses split into the three classes. */
struct ThreeCSplit
{
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
};

class ThreeCClassifier
{
  public:
    /** What one block access found before it touched anything. */
    struct Probe
    {
        bool firstTouch = false;
        /** The smallest shadow (capacity index) that held every line
         *  of the block; the number of shadows if none did. */
        unsigned zone = 0;
    };

    /** One shadow of cache.sets * cache.ways lines. */
    explicit ThreeCClassifier(const CacheConfig &cache);

    /** One shadow per entry of @p capacities (in lines, strictly
     *  increasing, all > 0) over lines of @p line_bytes. */
    ThreeCClassifier(unsigned line_bytes,
                     std::vector<std::uint32_t> capacities);

    /**
     * Probe every line of [addr, addr+size) (pre-access state: a
     * block's own earlier lines must not satisfy its later ones),
     * then touch them in address order.
     */
    Probe touchBlock(std::uint32_t addr, std::uint32_t size);

    /** Count a miss with @p probe against shadow @p shadow. */
    static void
    countMiss(const Probe &probe, unsigned shadow, ThreeCSplit &split)
    {
        if (probe.firstTouch)
            ++split.compulsory;
        else if (probe.zone <= shadow)
            ++split.conflict;
        else
            ++split.capacity;
    }

    /**
     * One L1 block access of [addr, addr+size) with outcome @p hit,
     * classified against the first shadow. Every access updates the
     * first-touch and shadow state; a miss is counted into exactly
     * one class.
     */
    void
    access(std::uint32_t addr, std::uint32_t size, bool hit)
    {
        const Probe probe = touchBlock(addr, size);
        if (!hit)
            countMiss(probe, 0, split_);
    }

    /** The first shadow's split of the misses access() saw. */
    const ThreeCSplit &split() const { return split_; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** First-touch flag, shadow zone and LRU links of a line. */
    struct Line
    {
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint32_t zone = 0;  ///< capacities_.size() = in no shadow
        bool touched = false;
    };

    void touch(std::uint32_t line);
    void unlink(std::uint32_t line);
    void pushFront(std::uint32_t line);

    LineMap map_;
    std::vector<std::uint32_t> capacities_;
    /** Per shadow: the line at LRU rank capacity - 1, or kNil while
     *  the list is shorter than the capacity. */
    std::vector<std::uint32_t> last_;
    std::uint32_t resident_ = 0;
    // Dense, grow-on-demand: line ids are bounded by image bytes /
    // line bytes.
    std::vector<Line> lines_;
    std::uint32_t head_ = kNil;  ///< most recently used
    std::uint32_t tail_ = kNil;  ///< least recently used
    ThreeCSplit split_;
};

} // namespace tepic::fetch

#endif // TEPIC_FETCH_THREE_C_HH
