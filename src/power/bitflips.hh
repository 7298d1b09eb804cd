/**
 * @file
 * Memory-bus power proxy (§5, Figure 14).
 *
 * The paper models power by counting transitions ("bit flips") on the
 * memory bus during instruction-miss traffic: each beat XORed with the
 * previous bus state, population count accumulated. Compression saves
 * power because a given number of flips delivers more instructions.
 */

#ifndef TEPIC_POWER_BITFLIPS_HH
#define TEPIC_POWER_BITFLIPS_HH

#include <cstdint>
#include <span>
#include <vector>

namespace tepic::power {

/**
 * A fixed-width memory bus with transition counting. Any positive
 * width is supported: buses up to 8 bytes keep the previous beat in
 * one machine word (the hot path), wider buses keep it as a byte
 * vector so no lane is silently dropped. A zero width is a checked
 * error.
 */
class BusModel
{
  public:
    explicit BusModel(unsigned width_bytes = 8);

    /**
     * Transfer @p bytes over the bus (padded to whole beats with
     * zeros) and account the transitions.
     */
    void transfer(std::span<const std::uint8_t> bytes);

    /**
     * Exactly transfer() of @p count copies of @p byte, in one step
     * instead of a pass over a filled buffer: the fetch simulator's
     * ATT-entry upload, paid on every ATB miss.
     */
    void transferFill(std::uint8_t byte, std::size_t count);

    std::uint64_t bitFlips() const { return bitFlips_; }
    std::uint64_t beats() const { return beats_; }
    std::uint64_t bytesTransferred() const { return bytes_; }
    unsigned widthBytes() const { return widthBytes_; }

  private:
    unsigned widthBytes_;
    std::uint64_t last_ = 0;  ///< previous bus state (width <= 8)
    std::vector<std::uint8_t> lastWide_;  ///< previous beat (width > 8)
    std::uint64_t bitFlips_ = 0;
    std::uint64_t beats_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace tepic::power

#endif // TEPIC_POWER_BITFLIPS_HH
