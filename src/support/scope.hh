/**
 * @file
 * The one RAII instrumentation scope around a unit of work.
 *
 * A Scope is opened at a *site*: a trace span name and category, a
 * prof phase and a MetricsRegistry timing name, each optional, plus
 * an optional sched task id. It reads std::chrono::steady_clock once
 * on entry and once on exit and hands those two reads to every
 * enabled sink:
 *
 *  - sched (support/sched): the task's start and finish, when a task
 *    id was given and a session is live;
 *  - trace (support/trace): one complete ("X") event, when the site
 *    names a span and a trace session is live;
 *  - metrics: one sample of the site's timing (milliseconds) in
 *    MetricsRegistry::global(), when the site names one.
 *
 * So a sched task and its trace event share their clock reads: the
 * task's finish - start is exactly the event's duration. The site's
 * prof phase opens a self-time frame (support/profiler) on the
 * calling thread for the scope's extent; prof keeps its own
 * thread-CPU clock and attribution rules.
 *
 * A disabled trace or sched sink costs one relaxed atomic load per
 * scope. Span names and categories must be string literals (or
 * otherwise outlive the trace session); they are not copied.
 */

#ifndef TEPIC_SUPPORT_SCOPE_HH
#define TEPIC_SUPPORT_SCOPE_HH

#include <chrono>
#include <cstdint>
#include <optional>

#include "support/profiler.hh"
#include "support/sched.hh"

namespace tepic::support {

/** Where a Scope is opened; every member is optional. */
struct ScopeSite
{
    const char *span = nullptr;  ///< trace event name; null: no event
    const char *cat = "tepic";   ///< trace event category
    std::optional<prof::Phase> phase = {};  ///< prof self-time frame
    const char *timing = nullptr;  ///< global timing name (ms); or null
};

class Scope
{
  public:
    explicit Scope(const ScopeSite &site,
                   std::uint64_t task = sched::kNoTask);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    ScopeSite site_;
    std::uint64_t task_;
    bool profiled_ = false;
    std::chrono::steady_clock::time_point start_;
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_SCOPE_HH
