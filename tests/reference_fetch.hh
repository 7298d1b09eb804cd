/**
 * @file
 * Test-only reference fetch model: the slow, obviously correct
 * simulator that fetch::simulateFetch and fetch::FetchBatch are
 * checked against (tests/test_fetch_oracle.cc).
 */

#ifndef TEPIC_TESTS_REFERENCE_FETCH_HH
#define TEPIC_TESTS_REFERENCE_FETCH_HH

#include <cstdint>

#include "fetch/fetch_sim.hh"

namespace tepic::fetch {

/** The reference model's result. */
struct ReferenceFetch
{
    /** Every integer counter of FetchStats; the histograms, the
     *  record trace and the recorder sections stay empty. */
    FetchStats stats;
    // The 3C split of the L1 misses.
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
};

/**
 * Simulate @p config over @p trace in one pass, one event at a time:
 * std::list/std::map LRU for the ATB, the L0 buffer, every L1 set and
 * the 3C shadow; maps for the gshare/PAs tables; a byte-at-a-time bus
 * and per-line loops with plain division. Only the static ATT
 * (Att::build) and the per-block Table-1 function (stallBreakdown,
 * l0BypassSavings) are shared with the fast kernel.
 */
ReferenceFetch referenceSimulate(const isa::Image &image,
                                 const isa::VliwProgram &program,
                                 const sim::BlockTrace &trace,
                                 const FetchConfig &config);

} // namespace tepic::fetch

#endif // TEPIC_TESTS_REFERENCE_FETCH_HH
