#include "power/bitflips.hh"

#include <bit>
#include <cstring>
#include <vector>

#include "support/logging.hh"

namespace tepic::power {

namespace {

/**
 * Set bits of @p x. On baseline x86-64 (no POPCNT) std::popcount is
 * an out-of-line libgcc call; the bus counts the flips of every beat
 * of the fetch simulation, so the SWAR form stays inline.
 */
inline std::uint64_t
popcount64(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

/**
 * The @p n (<= 8) bytes at @p p as one beat word, byte k in bits
 * [8k, 8k+8) on every host, zero above: one load for a whole beat
 * (memcpy, plus a byte swap on big-endian hosts).
 */
inline std::uint64_t
loadBeat(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t beat = 0;
    std::memcpy(&beat, p, n);
    if constexpr (std::endian::native == std::endian::big)
        beat = __builtin_bswap64(beat);
    return beat;
}

/** Lanes [0, n) of @p lanes, n <= 8. */
inline std::uint64_t
lowLanes(std::uint64_t lanes, std::size_t n)
{
    return n == 8 ? lanes : lanes & ((std::uint64_t(1) << (8 * n)) - 1);
}

} // namespace

BusModel::BusModel(unsigned width_bytes)
    : widthBytes_(width_bytes)
{
    TEPIC_ASSERT(width_bytes > 0, "bus width must be positive");
    if (widthBytes_ > 8)
        lastWide_.assign(widthBytes_, 0);
}

void
BusModel::transfer(std::span<const std::uint8_t> bytes)
{
    std::size_t i = 0;
    if (widthBytes_ <= 8) {
        // Narrow path: the whole previous beat fits one word, and a
        // beat is one load; a short last beat is zero-padded.
        const std::size_t n = bytes.size();
        for (; i + widthBytes_ <= n; i += widthBytes_) {
            const std::uint64_t beat = widthBytes_ == 8
                ? loadBeat(bytes.data() + i, 8)
                : loadBeat(bytes.data() + i, widthBytes_);
            bitFlips_ += popcount64(beat ^ last_);
            last_ = beat;
            ++beats_;
        }
        if (i < n) {
            const std::uint64_t beat = loadBeat(bytes.data() + i, n - i);
            bitFlips_ += popcount64(beat ^ last_);
            last_ = beat;
            ++beats_;
        }
    } else {
        // Wide path: per-lane previous state, so every lane of a
        // >8-byte bus is accounted (lanes 8.. were silently dropped
        // before this path existed).
        while (i < bytes.size()) {
            for (unsigned b = 0; b < widthBytes_; ++b) {
                const std::uint8_t byte =
                    i + b < bytes.size() ? bytes[i + b] : 0;
                bitFlips_ += popcount64(std::uint8_t(byte ^ lastWide_[b]));
                lastWide_[b] = byte;
            }
            ++beats_;
            i += widthBytes_;
        }
    }
    bytes_ += bytes.size();
}

void
BusModel::transferFill(std::uint8_t byte, std::size_t count)
{
    if (widthBytes_ > 8) {
        transfer(std::vector<std::uint8_t>(count, byte));
        return;
    }
    const std::uint64_t lanes = 0x0101010101010101ull * byte;
    std::size_t tail = count;
    if (count >= widthBytes_) {
        // Every whole beat is the same word: only the first can flip.
        const std::uint64_t beat = lowLanes(lanes, widthBytes_);
        bitFlips_ += popcount64(beat ^ last_);
        last_ = beat;
        beats_ += count / widthBytes_;
        tail = count % widthBytes_;
    }
    if (tail > 0) {
        const std::uint64_t beat = lowLanes(lanes, tail);
        bitFlips_ += popcount64(beat ^ last_);
        last_ = beat;
        ++beats_;
    }
    bytes_ += count;
}

} // namespace tepic::power
