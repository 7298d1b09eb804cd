#include "fetch/banked_cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace tepic::fetch {

BankedCache::BankedCache(const CacheConfig &config)
    : config_(config), map_(config)
{
    TEPIC_ASSERT(config.sets > 0 && config.ways > 0 &&
                 config.lineBytes > 0, "bad cache geometry");
    ways_.assign(std::size_t(config.sets) * config.ways, Way{});
}

std::uint32_t
BankedCache::lookupLine(std::uint64_t line_id)
{
    const std::size_t set = map_.set(line_id);
    Way *base = &ways_[set * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].tag == line_id) {
            // Valid ways have distinct use stamps (invalid ones 0):
            // the rank is the number of ways used more recently.
            std::uint32_t rank = 0;
            for (unsigned v = 0; v < config_.ways; ++v)
                rank += base[v].lastUse > base[w].lastUse;
            base[w].lastUse = ++clock_;
            ++base[w].uses;
            if (observer_)
                observer_->onLineHit(line_id, std::uint32_t(set));
            return rank;
        }
    }
    return config_.ways;
}

void
BankedCache::fillLine(std::uint64_t line_id)
{
    const std::size_t set = map_.set(line_id);
    Way *base = &ways_[set * config_.ways];
    // Already resident (possible when refilling a whole block)?
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].tag == line_id) {
            base[w].lastUse = ++clock_;
            return;
        }
    }
    // LRU victim; an invalid way (stamp 0) goes first.
    unsigned victim = 0;
    for (unsigned w = 1; w < config_.ways; ++w) {
        if (base[w].lastUse < base[victim].lastUse)
            victim = w;
    }
    if (observer_ && base[victim].lastUse != 0) {
        observer_->onLineEvict(base[victim].tag, std::uint32_t(set),
                               base[victim].uses);
    }
    base[victim].tag = line_id;
    base[victim].lastUse = ++clock_;
    base[victim].uses = 0;
    ++linesFilled_;
    if (observer_)
        observer_->onLineFill(line_id, std::uint32_t(set));
}

CacheAccess
BankedCache::accessBlock(std::uint32_t addr, std::uint32_t size)
{
    TEPIC_ASSERT(size > 0, "zero-size block access");
    const std::uint64_t first = map_.line(addr);
    const std::uint64_t last = map_.line(std::uint64_t(addr) + size - 1);

    CacheAccess result;
    result.blockLines = std::uint32_t(last - first + 1);

    // A line's rank can only grow as the block's earlier lines move
    // ahead of it, and never past the pre-access rank of one of them,
    // so the largest in-pass rank is the largest pre-access rank.
    for (std::uint64_t line = first; line <= last; ++line)
        result.depth = std::max(result.depth, lookupLine(line));

    if (result.depth < config_.ways) {
        result.hit = true;
        ++hits_;
        return result;
    }
    ++misses_;
    // Restricted placement: bring in the whole block.
    for (std::uint64_t line = first; line <= last; ++line)
        fillLine(line);
    result.linesFilled = result.blockLines;
    return result;
}

} // namespace tepic::fetch
