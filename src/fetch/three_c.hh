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
 * This is the one 3C implementation: CacheStatsRecorder (the CACHE
 * report) and the sweep's per-point back end both drive it, so the
 * two cannot disagree. It is part of the fetch model, not of the
 * observability layer, and is compiled in every build.
 */

#ifndef TEPIC_FETCH_THREE_C_HH
#define TEPIC_FETCH_THREE_C_HH

#include <cstdint>
#include <vector>

#include "fetch/banked_cache.hh"

namespace tepic::fetch {

class ThreeCClassifier
{
  public:
    explicit ThreeCClassifier(const CacheConfig &cache);

    /**
     * One L1 block access of [addr, addr+size) with outcome @p hit.
     * Every access updates the first-touch and shadow state; a miss
     * is counted into exactly one class.
     */
    void access(std::uint32_t addr, std::uint32_t size, bool hit);

    std::uint64_t compulsory() const { return compulsory_; }
    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t conflict() const { return conflict_; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** First-touch flag, shadow residency and LRU links of a line. */
    struct Line
    {
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        bool touched = false;
        bool resident = false;
    };

    void touch(std::uint32_t line);
    void unlink(std::uint32_t line);
    void pushFront(std::uint32_t line);

    LineMap map_;
    std::uint32_t shadowCapacity_ = 0;
    std::uint32_t resident_ = 0;
    // Dense, grow-on-demand: line ids are bounded by image bytes /
    // line bytes.
    std::vector<Line> lines_;
    std::uint32_t head_ = kNil;  ///< most recently used
    std::uint32_t tail_ = kNil;  ///< least recently used
    std::uint64_t compulsory_ = 0;
    std::uint64_t capacity_ = 0;
    std::uint64_t conflict_ = 0;
};

} // namespace tepic::fetch

#endif // TEPIC_FETCH_THREE_C_HH
