/**
 * @file
 * Tests for support::Scope, the one instrumentation scope: its sched,
 * trace and prof sinks see the same unit of work. With all three
 * sessions live on a 4-thread pool, each sched task's finish - start
 * equals its trace event's duration (the two share their clock
 * reads) and each prof phase counts one enter per Scope; with every
 * session off, a Scope records nothing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json_mini.hh"
#include "support/profiler.hh"
#include "support/sched.hh"
#include "support/scope.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"

namespace {

using namespace tepic;
using support::Scope;
using support::prof::Phase;
namespace prof = support::prof;
namespace sched = support::sched;
namespace trace = support::trace;

// Span names must outlive the trace session: one literal per task.
constexpr const char *kSpanNames[] = {
    "scope.t0", "scope.t1", "scope.t2",  "scope.t3",
    "scope.t4", "scope.t5", "scope.t6",  "scope.t7",
    "scope.t8", "scope.t9", "scope.t10", "scope.t11",
};
constexpr std::size_t kTasks = std::size(kSpanNames);

sched::TaskDecl
decl(const char *label)
{
    sched::TaskDecl d;
    d.label = label;
    d.kind = "test";
    d.workload = "unit";
    return d;
}

TEST(Scope, SinksShareOneUnitOfWorkOnAPool)
{
    prof::resetForTest();
    prof::startSession();
    sched::resetForTest();
    sched::startSession(4);
    trace::start("");

    std::vector<std::uint64_t> ids;
    for (const char *name : kSpanNames)
        ids.push_back(sched::declareTask(decl(name)));
    {
        support::ThreadPool pool(4);
        pool.parallelFor(kTasks, [&](std::size_t i) {
            const Scope scope({.span = kSpanNames[i],
                               .cat = "scope",
                               .phase = Phase::kBenchKernel},
                              ids[i]);
        });
    }
    sched::endSession();
    const auto doc = testjson::parse(trace::stopToJson());
    const auto analysis = sched::analyze();
    const auto snap = prof::snapshot();

    // Same clock reads: each task's duration is its event's duration.
    std::map<std::string, std::uint64_t> span_ns;
    for (const auto &event : doc.at("traceEvents").array) {
        if (event.at("ph").str == "X" &&
            event.at("cat").str == "scope") {
            span_ns[event.at("name").str] = std::uint64_t(
                std::llround(event.at("dur").number * 1000.0));
        }
    }
    ASSERT_EQ(span_ns.size(), kTasks);
    ASSERT_EQ(analysis.tasks.size(), kTasks);
    for (const auto &task : analysis.tasks) {
        ASSERT_TRUE(task.ran) << task.decl.label;
        EXPECT_NE(task.worker, sched::kMainWorker) << task.decl.label;
        EXPECT_EQ(task.finishNs - task.startNs,
                  span_ns.at(task.decl.label))
            << task.decl.label;
    }

    // One prof enter per Scope of each phase: the test's scopes, and
    // the pool's own scope around every job it ran.
    EXPECT_EQ(snap.phases[unsigned(Phase::kBenchKernel)].enters,
              kTasks);
    EXPECT_EQ(snap.phases[unsigned(Phase::kWorker)].enters, kTasks);
}

TEST(Scope, EverySessionOffRecordsNothing)
{
    sched::resetForTest();
    ASSERT_FALSE(trace::enabled());
    ASSERT_EQ(trace::pendingEvents(), 0u);
    {
        const Scope scope({.span = "scope.off", .cat = "scope"},
                          sched::declareTask(decl("off")));
    }
    EXPECT_EQ(trace::pendingEvents(), 0u);
    EXPECT_TRUE(sched::analyze().tasks.empty());

    // A task declared in a session that has since ended stays unrun.
    sched::startSession(1);
    const std::uint64_t id = sched::declareTask(decl("ended"));
    sched::endSession();
    {
        const Scope scope({.span = "scope.ended", .cat = "scope"}, id);
    }
    EXPECT_EQ(trace::pendingEvents(), 0u);
    const auto analysis = sched::analyze();
    ASSERT_EQ(analysis.tasks.size(), 1u);
    EXPECT_FALSE(analysis.tasks[0].ran);
}

} // namespace
