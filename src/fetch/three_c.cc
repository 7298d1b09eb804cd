#include "fetch/three_c.hh"

#include "support/logging.hh"

namespace tepic::fetch {

ThreeCClassifier::ThreeCClassifier(const CacheConfig &cache)
    : map_(cache), shadowCapacity_(cache.sets * cache.ways)
{
}

void
ThreeCClassifier::unlink(std::uint32_t line)
{
    Line &node = lines_[line];
    if (node.prev != kNil)
        lines_[node.prev].next = node.next;
    else
        head_ = node.next;
    if (node.next != kNil)
        lines_[node.next].prev = node.prev;
    else
        tail_ = node.prev;
    node.prev = node.next = kNil;
}

void
ThreeCClassifier::pushFront(std::uint32_t line)
{
    Line &node = lines_[line];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil)
        lines_[head_].prev = line;
    head_ = line;
    if (tail_ == kNil)
        tail_ = line;
}

void
ThreeCClassifier::touch(std::uint32_t line)
{
    Line &node = lines_[line];
    node.touched = true;
    if (node.resident) {
        if (head_ != line) {
            unlink(line);
            pushFront(line);
        }
        return;
    }
    if (resident_ == shadowCapacity_) {
        const std::uint32_t victim = tail_;
        lines_[victim].resident = false;
        unlink(victim);
        --resident_;
    }
    node.resident = true;
    pushFront(line);
    ++resident_;
}

void
ThreeCClassifier::access(std::uint32_t addr, std::uint32_t size,
                         bool hit)
{
    TEPIC_ASSERT(size > 0, "zero-size block access");
    const auto first = std::uint32_t(map_.line(addr));
    const auto last =
        std::uint32_t(map_.line(std::uint64_t(addr) + size - 1));
    if (last >= lines_.size())
        lines_.resize(std::size_t(last) + 1);

    // Probe first (pre-access state), then update: a block's own
    // earlier lines must not satisfy its later ones.
    bool first_touch = false;
    bool shadow_all = true;
    for (std::uint32_t line = first; line <= last; ++line) {
        first_touch |= !lines_[line].touched;
        shadow_all &= lines_[line].resident;
    }
    for (std::uint32_t line = first; line <= last; ++line)
        touch(line);

    if (hit)
        return;
    if (first_touch)
        ++compulsory_;
    else if (shadow_all)
        ++conflict_;
    else
        ++capacity_;
}

} // namespace tepic::fetch
