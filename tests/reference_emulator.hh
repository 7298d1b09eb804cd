/**
 * @file
 * Test-only reference emulator: the straightforward switch interpreter
 * that sim::emulate is checked against (tests/test_emulator_oracle.cc).
 */

#ifndef TEPIC_TESTS_REFERENCE_EMULATOR_HH
#define TEPIC_TESTS_REFERENCE_EMULATOR_HH

#include "sim/emulator.hh"

namespace tepic::sim {

/**
 * Run @p program exactly as sim::emulate does, but by re-decoding each
 * Operation every time it executes. Same results, same faults, same
 * diagnostics; only slower.
 */
EmulationResult referenceEmulate(const isa::VliwProgram &program,
                                 const compiler::DataSegment &data,
                                 const EmulatorConfig &config = {});

} // namespace tepic::sim

#endif // TEPIC_TESTS_REFERENCE_EMULATOR_HH
