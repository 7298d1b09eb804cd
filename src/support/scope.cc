#include "support/scope.hh"

#include "support/metrics.hh"
#include "support/trace.hh"

namespace tepic::support {

Scope::Scope(const ScopeSite &site, std::uint64_t task)
    : site_(site), task_(task)
{
    if (site_.phase)
        profiled_ = prof::enterPhase(*site_.phase);
    start_ = std::chrono::steady_clock::now();
}

Scope::~Scope()
{
    const auto finish = std::chrono::steady_clock::now();
    if (task_ != sched::kNoTask)
        sched::taskRan(task_, start_, finish);
    if (site_.span)
        trace::complete(site_.span, site_.cat, start_, finish);
    if (site_.timing) {
        MetricsRegistry::global().recordTimingMs(
            site_.timing,
            std::chrono::duration<double, std::milli>(finish - start_)
                .count());
    }
    if (profiled_)
        prof::exitPhase();
}

} // namespace tepic::support
