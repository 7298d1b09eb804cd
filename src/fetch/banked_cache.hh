/**
 * @file
 * The banked instruction cache (§3.4, Figure 8), modelled at line
 * granularity with block-atomic (restricted-placement) fills.
 *
 * The real structure splits storage into two banks whose line size
 * equals the maximum MOP so a MOP spanning two lines is extracted in
 * one reference; for the miss/hit behaviour that the cycle model
 * consumes, what matters is which memory lines are resident. A block
 * access hits only when *all* of its lines are resident (restricted
 * placement: intermediate fetches within a block are not re-checked,
 * so partial residency is unusable); a miss fills every line of the
 * block, evicting LRU ways.
 *
 * Geometry defaults follow §5: 16 KB, 2-way, 32-byte lines for the
 * compressed/tailored images; the Base image uses 40-byte lines (a
 * multiple of the 40-bit op size), making it effectively 20 KB.
 */

#ifndef TEPIC_FETCH_BANKED_CACHE_HH
#define TEPIC_FETCH_BANKED_CACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace tepic::fetch {

struct CacheConfig
{
    unsigned sets = 256;
    unsigned ways = 2;
    unsigned lineBytes = 32;

    std::size_t
    capacityBytes() const
    {
        return std::size_t(sets) * ways * lineBytes;
    }

    /** §5 geometry for compressed/tailored images (16 KB). */
    static CacheConfig
    paperCompressed()
    {
        return {256, 2, 32};
    }

    /** §5 geometry for the Base image (20 KB effective). */
    static CacheConfig
    paperBase()
    {
        return {256, 2, 40};
    }
};

/**
 * Byte address -> line id -> set index for one geometry. Shift and
 * mask when the line size / set count is a power of two (every
 * compressed and tailored geometry of the study); a plain divide
 * otherwise (the Base image's 40-byte lines). The branch is on a
 * per-geometry constant, so it predicts perfectly.
 */
class LineMap
{
  public:
    explicit LineMap(const CacheConfig &config)
        : lineBytes_(config.lineBytes), sets_(config.sets),
          lineShift_(std::has_single_bit(config.lineBytes)
                         ? std::countr_zero(config.lineBytes)
                         : -1),
          setsPow2_(std::has_single_bit(config.sets))
    {
    }

    std::uint64_t
    line(std::uint64_t addr) const
    {
        return lineShift_ >= 0 ? addr >> lineShift_ : addr / lineBytes_;
    }

    std::uint32_t
    set(std::uint64_t line_id) const
    {
        return std::uint32_t(setsPow2_ ? line_id & (sets_ - 1)
                                       : line_id % sets_);
    }

    /** Lines the byte range [addr, addr+size) spans (size > 0). */
    std::uint32_t
    span(std::uint32_t addr, std::uint32_t size) const
    {
        return std::uint32_t(line(std::uint64_t(addr) + size - 1) -
                             line(addr) + 1);
    }

  private:
    std::uint64_t lineBytes_;
    std::uint64_t sets_;
    int lineShift_;  ///< log2(lineBytes), or -1 if not a power of two
    bool setsPow2_;
};

/** The result of one block access. */
struct CacheAccess
{
    bool hit = false;
    std::uint32_t blockLines = 0;   ///< lines the block spans
    std::uint32_t linesFilled = 0;  ///< lines brought in on a miss
    /**
     * The block's LRU depth: the largest pre-access LRU rank in its
     * set (0 = most recent) over the block's lines, or `ways` when a
     * line was absent. Every access leaves all of the block's lines
     * most recent in the order first..last, on a hit and on a miss
     * alike, so each set holds the top of one recency stack whatever
     * its way count (LRU inclusion): a cache of the same sets and
     * W <= ways ways hits this access iff depth < W.
     */
    std::uint32_t depth = 0;
};

/**
 * Line-granularity event sink (cache_stats.hh observability). A hit
 * is a lookup that found the line resident; a fill installs a line
 * on the block-miss path; an eviction reports the victim with the
 * number of re-references it served since its fill (0 = dead on
 * fill). Null observer costs the hot loop one predictable branch
 * per event.
 */
class CacheLineObserver
{
  public:
    virtual ~CacheLineObserver() = default;
    virtual void onLineHit(std::uint64_t lineId,
                           std::uint32_t set) = 0;
    virtual void onLineFill(std::uint64_t lineId,
                            std::uint32_t set) = 0;
    virtual void onLineEvict(std::uint64_t lineId, std::uint32_t set,
                             std::uint64_t uses) = 0;
};

class BankedCache
{
  public:
    explicit BankedCache(const CacheConfig &config);

    /**
     * Access the byte range [addr, addr+size) as one atomic block.
     * On a miss every line of the block is (re)filled.
     */
    CacheAccess accessBlock(std::uint32_t addr, std::uint32_t size);

    /** Attach (or clear, with nullptr) the line-event sink. Purely
     *  observational: replacement decisions never change. */
    void setObserver(CacheLineObserver *observer)
    {
        observer_ = observer;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t linesFilled() const { return linesFilled_; }

  private:
    /** No line has this id (line ids are below 2^32). */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t(0);

    struct Way
    {
        std::uint64_t tag = kNoLine;
        std::uint64_t lastUse = 0;  ///< 0 = never filled (invalid)
        std::uint64_t uses = 0;     ///< re-references since fill
    };

    CacheConfig config_;
    LineMap map_;
    std::vector<Way> ways_;  ///< sets_ x ways_, row-major
    CacheLineObserver *observer_ = nullptr;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t linesFilled_ = 0;

    /** The line's LRU rank in its set (ways when absent); a hit
     *  makes it the most recent. */
    std::uint32_t lookupLine(std::uint64_t line_id);
    void fillLine(std::uint64_t line_id);
};

} // namespace tepic::fetch

#endif // TEPIC_FETCH_BANKED_CACHE_HH
