#include "reference_fetch.hh"

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "support/logging.hh"

namespace tepic::fetch {

namespace {

/** 2-bit saturating counter training. */
void
train(std::uint8_t &counter, bool taken)
{
    if (taken && counter < 3)
        ++counter;
    else if (!taken && counter > 0)
        --counter;
}

/** The direction predictors, tables as maps defaulting to 1. */
class RefDirection
{
  public:
    explicit RefDirection(const PredictorConfig &config)
        : config_(config)
    {
    }

    bool
    taken(isa::BlockId block, std::uint8_t entry_counter)
    {
        switch (config_.kind) {
          case PredictorKind::kBimodal:
            return entry_counter >= 2;
          case PredictorKind::kGshare:
            return counter(pht_, gshareIndex(block)) >= 2;
          case PredictorKind::kPas:
            return counter(patterns_, pasIndex(block)) >= 2;
        }
        return false;
    }

    void
    update(isa::BlockId block, bool taken)
    {
        if (config_.kind == PredictorKind::kGshare) {
            std::uint8_t &c = counter(pht_, gshareIndex(block));
            train(c, taken);
            history_ = (history_ << 1) | (taken ? 1u : 0u);
        } else if (config_.kind == PredictorKind::kPas) {
            std::uint8_t &c = counter(patterns_, pasIndex(block));
            train(c, taken);
            std::uint32_t &reg = histories_[block % 1024];
            reg = (reg << 1) | (taken ? 1u : 0u);
        }
    }

  private:
    static std::uint8_t &
    counter(std::map<std::uint32_t, std::uint8_t> &table,
            std::uint32_t index)
    {
        return table.try_emplace(index, std::uint8_t(1)).first->second;
    }

    std::uint32_t
    gshareIndex(isa::BlockId block) const
    {
        return (history_ ^ block) &
               ((1u << config_.gshareHistoryBits) - 1);
    }

    std::uint32_t
    pasIndex(isa::BlockId block)
    {
        return histories_[block % 1024] &
               ((1u << config_.pasHistoryBits) - 1);
    }

    PredictorConfig config_;
    std::uint32_t history_ = 0;
    std::map<std::uint32_t, std::uint8_t> pht_;
    std::map<std::uint32_t, std::uint32_t> histories_;
    std::map<std::uint32_t, std::uint8_t> patterns_;
};

/** The ATB: an MRU-first list of resident blocks plus their state. */
class RefAtb
{
  public:
    RefAtb(const Att &att, unsigned entries,
           const PredictorConfig &predictor)
        : att_(att), capacity_(entries), direction_(predictor)
    {
    }

    bool
    access(isa::BlockId block)
    {
        const auto it = std::find(lru_.begin(), lru_.end(), block);
        if (it != lru_.end()) {
            lru_.erase(it);
            lru_.push_front(block);
            return true;
        }
        if (lru_.size() == capacity_) {
            state_.erase(lru_.back());
            lru_.pop_back();
        }
        // A cold entry: weakly not taken, primed with the ATT's
        // static target.
        state_[block] = {1, att_.entry(block).staticTarget};
        lru_.push_front(block);
        return false;
    }

    isa::BlockId
    predictNext(isa::BlockId block)
    {
        const Entry &entry = state_.at(block);
        const isa::BlockId fall = att_.entry(block).fallthrough;
        if (fall == isa::kNoBlock)
            return entry.lastTarget;
        if (direction_.taken(block, entry.counter) &&
            entry.lastTarget != isa::kNoBlock) {
            return entry.lastTarget;
        }
        return fall;
    }

    void
    update(isa::BlockId block, bool taken, isa::BlockId next)
    {
        Entry &entry = state_.at(block);
        train(entry.counter, taken);
        if (taken)
            entry.lastTarget = next;
        direction_.update(block, taken);
    }

  private:
    struct Entry
    {
        std::uint8_t counter = 1;
        isa::BlockId lastTarget = isa::kNoBlock;
    };

    const Att &att_;
    std::size_t capacity_;
    RefDirection direction_;
    std::list<isa::BlockId> lru_;
    std::map<isa::BlockId, Entry> state_;
};

/** The L0 buffer: MRU-first (block, ops) list, op-count capacity. */
class RefL0
{
  public:
    explicit RefL0(unsigned capacity_ops) : capacity_(capacity_ops) {}

    bool
    access(isa::BlockId block, std::uint32_t ops)
    {
        for (auto it = lru_.begin(); it != lru_.end(); ++it) {
            if (it->first == block) {
                lru_.splice(lru_.begin(), lru_, it);
                return true;
            }
        }
        if (ops > capacity_)
            return false;  // larger than the whole buffer: bypass
        while (used_ + ops > capacity_) {
            used_ -= lru_.back().second;
            lru_.pop_back();
        }
        lru_.emplace_front(block, ops);
        used_ += ops;
        return false;
    }

  private:
    std::uint64_t capacity_;
    std::uint64_t used_ = 0;
    std::list<std::pair<isa::BlockId, std::uint32_t>> lru_;
};

/** A fully associative LRU over line ids (the 3C shadow). */
class RefLruSet
{
  public:
    explicit RefLruSet(std::size_t capacity) : capacity_(capacity) {}

    bool contains(std::uint64_t line) const { return where_.count(line); }

    void
    touch(std::uint64_t line)
    {
        const auto it = where_.find(line);
        if (it != where_.end()) {
            lru_.erase(it->second);
        } else if (lru_.size() == capacity_) {
            where_.erase(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(line);
        where_[line] = lru_.begin();
    }

  private:
    std::size_t capacity_;
    std::list<std::uint64_t> lru_;
    std::map<std::uint64_t, std::list<std::uint64_t>::iterator> where_;
};

/** The L1: one MRU-first list of line ids per set. */
class RefL1
{
  public:
    explicit RefL1(const CacheConfig &config)
        : config_(config), sets_(config.sets)
    {
    }

    /** Block access; returns {hit, lines the block spans}. */
    std::pair<bool, std::uint32_t>
    access(std::uint32_t addr, std::uint32_t size)
    {
        const std::uint64_t first = addr / config_.lineBytes;
        const std::uint64_t last =
            (std::uint64_t(addr) + size - 1) / config_.lineBytes;
        // Look every line up (a resident line becomes MRU even when
        // the block as a whole misses).
        bool all = true;
        for (std::uint64_t line = first; line <= last; ++line)
            all = lookup(line) && all;
        if (!all) {
            // Restricted placement: the whole block is (re)filled.
            for (std::uint64_t line = first; line <= last; ++line) {
                if (lookup(line))
                    continue;
                std::list<std::uint64_t> &set = setOf(line);
                if (set.size() == config_.ways)
                    set.pop_back();
                set.push_front(line);
            }
        }
        return {all, std::uint32_t(last - first + 1)};
    }

  private:
    std::list<std::uint64_t> &
    setOf(std::uint64_t line)
    {
        return sets_[line % config_.sets];
    }

    bool
    lookup(std::uint64_t line)
    {
        std::list<std::uint64_t> &set = setOf(line);
        const auto it = std::find(set.begin(), set.end(), line);
        if (it == set.end())
            return false;
        set.splice(set.begin(), set, it);
        return true;
    }

    CacheConfig config_;
    std::vector<std::list<std::uint64_t>> sets_;
};

/** The bus, one byte lane at a time. */
class RefBus
{
  public:
    explicit RefBus(unsigned width) : lanes_(width, 0) {}

    void
    transfer(const std::vector<std::uint8_t> &bytes)
    {
        for (std::size_t i = 0; i < bytes.size(); i += lanes_.size()) {
            for (std::size_t b = 0; b < lanes_.size(); ++b) {
                const std::uint8_t byte =
                    i + b < bytes.size() ? bytes[i + b] : 0;
                for (unsigned bit = 0; bit < 8; ++bit)
                    flips_ += ((byte ^ lanes_[b]) >> bit) & 1;
                lanes_[b] = byte;
            }
            ++beats_;
        }
        bytes_ += bytes.size();
    }

    std::uint64_t flips() const { return flips_; }
    std::uint64_t beats() const { return beats_; }
    std::uint64_t bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> lanes_;
    std::uint64_t flips_ = 0;
    std::uint64_t beats_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace

ReferenceFetch
referenceSimulate(const isa::Image &image,
                  const isa::VliwProgram &program,
                  const sim::BlockTrace &trace,
                  const FetchConfig &config)
{
    const Att att = Att::build(image, program);
    const bool compressed = config.scheme == SchemeClass::kCompressed;
    const unsigned line_bytes = config.cache.lineBytes;
    RefAtb atb(att, config.atbEntries, config.predictor);
    RefL0 l0(config.l0CapacityOps);
    RefL1 l1(config.cache);
    std::set<std::uint64_t> touched;
    RefLruSet shadow(std::size_t(config.cache.sets) * config.cache.ways);
    RefBus bus(config.busWidthBytes);

    ReferenceFetch out;
    FetchStats &s = out.stats;
    bool correct = true;  // the cold start counts as predicted
    for (const sim::TraceEvent &event : trace.events) {
        const AttEntry &entry = att.entry(event.block);
        FetchEvent fe;
        fe.predictionCorrect = correct;
        ++s.blocksFetched;

        std::uint64_t atb_stall = 0;
        if (atb.access(event.block)) {
            ++s.atbHits;
        } else {
            ++s.atbMisses;
            atb_stall = config.penalties.atbMissPenalty;
            bus.transfer(std::vector<std::uint8_t>(
                (att.entryBits() + 7) / 8,
                std::uint8_t(0xa5 ^ (event.block & 0xff))));
        }

        fe.l0Hit = compressed && l0.access(event.block, entry.numOps);
        std::uint32_t n_lines = 0;
        if (fe.l0Hit) {
            fe.l1Hit = true;
            n_lines = std::max(
                1u, (entry.byteAddress % line_bytes + entry.byteSize +
                     line_bytes - 1) /
                        line_bytes);
        } else {
            const std::uint64_t first = entry.byteAddress / line_bytes;
            const std::uint64_t last =
                (std::uint64_t(entry.byteAddress) + entry.byteSize - 1) /
                line_bytes;
            // 3C: probe the pre-access state, then touch.
            bool first_touch = false;
            bool in_shadow = true;
            for (std::uint64_t line = first; line <= last; ++line) {
                first_touch = first_touch || !touched.count(line);
                in_shadow = in_shadow && shadow.contains(line);
            }
            for (std::uint64_t line = first; line <= last; ++line) {
                touched.insert(line);
                shadow.touch(line);
            }

            const auto [hit, lines] =
                l1.access(entry.byteAddress, entry.byteSize);
            fe.l1Hit = hit;
            n_lines = lines;
            if (!hit) {
                if (first_touch)
                    ++out.compulsory;
                else if (in_shadow)
                    ++out.conflict;
                else
                    ++out.capacity;
                s.linesTransferred += lines;
                std::vector<std::uint8_t> bytes;
                for (std::size_t a = entry.byteAddress;
                     a < std::size_t(entry.byteAddress) +
                             std::size_t(lines) * line_bytes &&
                     a < image.bytes.size();
                     ++a) {
                    bytes.push_back(image.bytes[a]);
                }
                if (!bytes.empty())
                    bus.transfer(bytes);
            }
        }

        const StallBreakdown causes =
            stallBreakdown(config.scheme, fe, entry.numMops,
                           entry.numOps, n_lines, config.penalties);
        const std::uint64_t stall = causes.mispredict + causes.l1Refill +
                                    causes.decodeStage + atb_stall;
        s.cycles += entry.numMops + stall;
        s.idealCycles += entry.numMops;
        s.opsDelivered += entry.numOps;
        s.stallCycles += stall;
        s.mispredictStallCycles += causes.mispredict;
        s.refillStallCycles += causes.l1Refill;
        s.decodeStallCycles += causes.decodeStage;
        s.atbStallCycles += atb_stall;
        s.l0SavedCycles +=
            l0BypassSavings(config.scheme, fe, config.penalties);
        if (fe.predictionCorrect)
            ++s.predictionsCorrect;
        else
            ++s.predictionsWrong;
        if (fe.l1Hit)
            ++s.l1Hits;
        else
            ++s.l1Misses;
        if (compressed) {
            if (fe.l0Hit)
                ++s.l0Hits;
            else
                ++s.l0Misses;
        }

        correct = atb.predictNext(event.block) == event.next;
        atb.update(event.block, event.branchTaken, event.next);
    }
    s.busBeats = bus.beats();
    s.busBitFlips = bus.flips();
    s.bytesTransferred = bus.bytes();
    return out;
}

} // namespace tepic::fetch
