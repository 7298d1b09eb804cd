#include "fetch/three_c.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace tepic::fetch {

ThreeCClassifier::ThreeCClassifier(const CacheConfig &cache)
    : ThreeCClassifier(cache.lineBytes, {cache.sets * cache.ways})
{
}

ThreeCClassifier::ThreeCClassifier(unsigned line_bytes,
                                   std::vector<std::uint32_t> capacities)
    : map_(CacheConfig{1, 1, line_bytes}),
      capacities_(std::move(capacities)),
      last_(capacities_.size(), kNil)
{
    TEPIC_ASSERT(!capacities_.empty(),
                 "3C classifier needs a shadow capacity");
    for (std::size_t s = 0; s < capacities_.size(); ++s) {
        TEPIC_ASSERT(capacities_[s] > (s ? capacities_[s - 1] : 0),
                     "3C shadow capacities must increase");
    }
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
    const unsigned zone = node.zone;
    if (zone == 0 && head_ == line)
        return;
    const auto shadows = unsigned(capacities_.size());

    // The line moves to the front: every shadow it was not in gains
    // it and pushes its last line one zone down (out of the list, for
    // the largest shadow).
    for (unsigned s = 0; s < zone; ++s) {
        const std::uint32_t last = last_[s];
        if (last == kNil)
            continue;  // the list is still shorter than this shadow
        lines_[last].zone = s + 1;
        last_[s] = capacities_[s] == 1 ? line : lines_[last].prev;
    }
    const bool resident = zone < shadows;
    if (resident) {
        // Its own zone's last line moves up one rank with it gone.
        if (last_[zone] == line)
            last_[zone] = node.prev;
        unlink(line);
    }
    node.zone = 0;
    pushFront(line);
    if (resident)
        return;

    if (++resident_ > capacities_.back()) {
        unlink(tail_);  // its zone already reads "in no shadow"
        --resident_;
    }
    for (unsigned s = 0; s < shadows; ++s) {
        if (last_[s] == kNil && resident_ == capacities_[s])
            last_[s] = tail_;
    }
}

ThreeCClassifier::Probe
ThreeCClassifier::touchBlock(std::uint32_t addr, std::uint32_t size)
{
    TEPIC_ASSERT(size > 0, "zero-size block access");
    const auto first = std::uint32_t(map_.line(addr));
    const auto last =
        std::uint32_t(map_.line(std::uint64_t(addr) + size - 1));
    if (last >= lines_.size()) {
        Line untouched;
        untouched.zone = std::uint32_t(capacities_.size());
        lines_.resize(std::size_t(last) + 1, untouched);
    }

    // Probe first (pre-access state), then update: a block's own
    // earlier lines must not satisfy its later ones.
    Probe probe;
    for (std::uint32_t line = first; line <= last; ++line) {
        probe.firstTouch |= !lines_[line].touched;
        probe.zone = std::max<unsigned>(probe.zone, lines_[line].zone);
    }
    for (std::uint32_t line = first; line <= last; ++line)
        touch(line);
    return probe;
}

} // namespace tepic::fetch
