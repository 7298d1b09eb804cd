/**
 * @file
 * Low-overhead structured tracing emitting Chrome trace-event JSON
 * (open the output in Perfetto — https://ui.perfetto.dev — or
 * chrome://tracing).
 *
 * Design:
 *
 *  - Complete ("X") events come from support::Scope, which hands
 *    complete() the two clock reads it took on entry and exit.
 *  - Per-thread buffers: each thread appends to its own vector under a
 *    thread-local, uncontended mutex; buffers are gathered and written
 *    only at stop(). A thread that exits first parks its events in a
 *    retired list, so pool workers joined before stop() still appear.
 *  - Runtime disable: when tracing is off (the default), every entry
 *    point is a single relaxed atomic load — no allocation, no lock,
 *    no clock read. Event names/categories must be string literals
 *    (or otherwise outlive stop()); they are not copied.
 *
 * Determinism caveat: trace *timestamps and durations* vary run to
 * run; the event structure (which spans exist, their nesting and
 * names) is deterministic for a deterministic program.
 */

#ifndef TEPIC_SUPPORT_TRACE_HH
#define TEPIC_SUPPORT_TRACE_HH

#include <chrono>
#include <cstddef>
#include <string>

namespace tepic::support::trace {

/** Runtime switch; one relaxed atomic load. */
bool enabled();

/**
 * Reset all buffers and enable collection. @p path is where stop()
 * writes the JSON; empty means "collect only" (use stopToJson()).
 */
void start(const std::string &path);

/**
 * Disable collection, flush every thread buffer, and write the JSON
 * file given to start() (if any). Returns false (after a warning)
 * only when that write fails; no-op returning true when never
 * started.
 */
bool stop();

/** Like stop(), but return the JSON instead of writing a file. */
std::string stopToJson();

/** Record an instant ("i") event. */
void instant(const char *name, const char *cat = "tepic");

/** Record a counter ("C") event. */
void counter(const char *name, double value, const char *cat = "tepic");

/**
 * Record a complete ("X") event spanning [@p start, @p finish). An
 * interval that began before the current session started (it
 * straddles a start()) is dropped.
 */
void complete(const char *name, const char *cat,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point finish);

// Test hooks.

/** Whether the calling thread has materialized a trace buffer. */
bool threadHasBuffer();

/** Total buffered (unflushed) events across all threads. */
std::size_t pendingEvents();

} // namespace tepic::support::trace

#endif // TEPIC_SUPPORT_TRACE_HH
