/**
 * @file
 * Figure 13 reproduction: "Cache Study Summary" — operations
 * delivered per cycle for Ideal / Base / Compressed (full-op Huffman)
 * / Tailored, per workload, under the §5 configuration (16 KB 2-way
 * caches, 20 KB effective for Base; Table-1 cycle model; ATB-coupled
 * 2-bit + last-target prediction).
 *
 * Paper reference shape: Tailored and Compressed both exceed Base on
 * average; Compressed does worse than Base on several benchmarks
 * (compress, go, ijpeg, m88ksim) because of the higher
 * misprediction/miss-repair penalties of the added decoder stage.
 * Also prints the Table-1 assumptions the model runs on.
 */

#include "common.hh"

namespace {

using namespace tepic;
using fetch::SchemeClass;
using support::TextTable;

void
printTable1()
{
    std::printf("--- Table 1 (cycle-count assumptions, as "
                "implemented) ---\n\n");
    TextTable t;
    t.setHeader({"event", "Base", "Tailored",
                 "Compressed L0-miss", "Compressed L0-hit"});
    t.addRow({"pred ok,  L1 hit", "1", "1", "1", "1"});
    t.addRow({"pred ok,  L1 miss", "1+(n-1)", "2+(n-1)", "3+(n-1)",
              "1"});
    t.addRow({"mispred,  L1 hit", "2", "2", "3", "1"});
    t.addRow({"mispred,  L1 miss", "8+(n-1)", "9+(n-1)", "10+(n-1)",
              "1"});
    std::printf("%s(single-MOP blocks; n = memory lines; +1 per "
                "additional MOP)\n\n", t.render().c_str());
}

void
printFigure13()
{
    std::printf("=== Figure 13: cache study summary "
                "(operations delivered per cycle) ===\n\n");
    printTable1();

    // The paper's Figure 13 covers the SPECint95-shaped suite; the
    // DSP kernels appear separately below (they are the Section 4
    // L0-buffer discussion, not part of the cache study).
    TextTable table;
    table.setHeader({"workload", "Ideal", "Base", "Compressed",
                     "Tailored", "base L1 hit%", "comp L1 hit%",
                     "L0 hit%", "pred acc%"});
    TextTable dsp;
    dsp.setHeader({"DSP kernel", "Base", "Compressed", "Tailored",
                   "L0 hit%"});

    std::vector<double> base_v;
    std::vector<double> comp_v;
    std::vector<double> tail_v;
    std::vector<double> ideal_v;
    std::vector<double> comp_rel;
    std::vector<double> tail_rel;

    for (const auto &named : bench::allArtifacts()) {
        const auto &a = named.artifacts();
        const auto base = core::runFetch(a, SchemeClass::kBase,
                                         std::nullopt, named.name);
        const auto comp = core::runFetch(
            a, SchemeClass::kCompressed, std::nullopt, named.name);
        const auto tail = core::runFetch(
            a, SchemeClass::kTailored, std::nullopt, named.name);

        auto &metrics = support::MetricsRegistry::global();
        metrics.setGauge("fetch.ipc." + named.name + ".base",
                         base.ipc());
        metrics.setGauge("fetch.ipc." + named.name + ".compressed",
                         comp.ipc());
        metrics.setGauge("fetch.ipc." + named.name + ".tailored",
                         tail.ipc());

        const double l0_rate = comp.l0Hits + comp.l0Misses
            ? double(comp.l0Hits) /
                  double(comp.l0Hits + comp.l0Misses)
            : 0.0;
        if (named.isDspKernel) {
            dsp.addRow({named.name, TextTable::num(base.ipc(), 3),
                        TextTable::num(comp.ipc(), 3),
                        TextTable::num(tail.ipc(), 3),
                        TextTable::percent(l0_rate, 1)});
            continue;
        }
        base_v.push_back(base.ipc());
        comp_v.push_back(comp.ipc());
        tail_v.push_back(tail.ipc());
        ideal_v.push_back(base.idealIpc());
        comp_rel.push_back(comp.ipc() / base.ipc());
        tail_rel.push_back(tail.ipc() / base.ipc());

        table.addRow({named.name,
                      TextTable::num(base.idealIpc(), 3),
                      TextTable::num(base.ipc(), 3),
                      TextTable::num(comp.ipc(), 3),
                      TextTable::num(tail.ipc(), 3),
                      TextTable::percent(base.l1HitRate(), 2),
                      TextTable::percent(comp.l1HitRate(), 2),
                      TextTable::percent(l0_rate, 1),
                      TextTable::percent(base.predictionAccuracy(),
                                         1)});
    }
    table.addRow({"average", TextTable::num(support::mean(ideal_v), 3),
                  TextTable::num(support::mean(base_v), 3),
                  TextTable::num(support::mean(comp_v), 3),
                  TextTable::num(support::mean(tail_v), 3), "", "", "",
                  ""});
    std::printf("%s\n", table.render().c_str());

    TextTable summary;
    summary.setHeader({"metric", "Compressed vs Base",
                       "Tailored vs Base"});
    summary.addRow({"mean speedup",
                    TextTable::percent(support::mean(comp_rel) - 1.0),
                    TextTable::percent(support::mean(tail_rel) - 1.0)});
    summary.addRow({"median speedup",
                    TextTable::percent(
                        support::median(comp_rel) - 1.0),
                    TextTable::percent(
                        support::median(tail_rel) - 1.0)});
    int comp_losses = 0;
    for (double r : comp_rel)
        if (r < 1.0)
            ++comp_losses;
    summary.addRow({"workloads below Base",
                    std::to_string(comp_losses), ""});
    std::printf("%s\n", summary.render().c_str());

    // Headline gauges for the fidelity report (suite averages over
    // the cache-study workloads, DSP kernels excluded like Fig. 13).
    auto &metrics = support::MetricsRegistry::global();
    metrics.setGauge("fig13.ipc.ideal", support::mean(ideal_v));
    metrics.setGauge("fig13.ipc.base", support::mean(base_v));
    metrics.setGauge("fig13.ipc.compressed", support::mean(comp_v));
    metrics.setGauge("fig13.ipc.tailored", support::mean(tail_v));
    metrics.setGauge("fig13.speedup.compressed_mean",
                     support::mean(comp_rel) - 1.0);
    metrics.setGauge("fig13.speedup.compressed_median",
                     support::median(comp_rel) - 1.0);
    metrics.setGauge("fig13.speedup.tailored_mean",
                     support::mean(tail_rel) - 1.0);
    metrics.setGauge("fig13.speedup.tailored_median",
                     support::median(tail_rel) - 1.0);
    metrics.setGauge("fig13.compressed_losses", double(comp_losses));
    std::printf("(paper: Tailored highest; Compressed median-better "
                "than Base but loses on compress/go/ijpeg/m88ksim)\n\n");

    std::printf("--- Section 4 claim: DSP kernels fit the 32-op L0 "
                "buffer ---\n\n%s\n", dsp.render().c_str());
}

void
BM_FetchSimBase(benchmark::State &state)
{
    const auto &a = bench::allArtifacts().front().artifacts();
    for (auto _ : state) {
        auto stats = core::runFetch(a, SchemeClass::kBase);
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(
        std::int64_t(state.iterations()) *
        std::int64_t(a.execution.trace.events.size()));
}
BENCHMARK(BM_FetchSimBase)->Unit(benchmark::kMillisecond);

void
BM_FetchSimCompressed(benchmark::State &state)
{
    const auto &a = bench::allArtifacts().front().artifacts();
    for (auto _ : state) {
        auto stats = core::runFetch(a, SchemeClass::kCompressed);
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(
        std::int64_t(state.iterations()) *
        std::int64_t(a.execution.trace.events.size()));
}
BENCHMARK(BM_FetchSimCompressed)->Unit(benchmark::kMillisecond);

/** Emulate the first program, recording its block trace or not. */
void
emulate(benchmark::State &state, bool record_trace)
{
    const auto &a = bench::allArtifacts().front().artifacts();
    sim::EmulatorConfig config;
    config.recordTrace = record_trace;
    for (auto _ : state) {
        auto result = sim::emulate(a.compiled.program,
                                   a.compiled.data, config);
        benchmark::DoNotOptimize(result.exitValue);
        benchmark::DoNotOptimize(result.trace.events.data());
    }
    state.SetItemsProcessed(
        std::int64_t(state.iterations()) *
        std::int64_t(a.execution.dynamicOps));
}

void
BM_Emulate(benchmark::State &state)
{
    emulate(state, false);
}
BENCHMARK(BM_Emulate)->Unit(benchmark::kMillisecond);

// The engine's second emulation of every program records the trace.
void
BM_EmulateTrace(benchmark::State &state)
{
    emulate(state, true);
}
BENCHMARK(BM_EmulateTrace)->Unit(benchmark::kMillisecond);

} // namespace

TEPIC_BENCH_MAIN(printFigure13,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kBase,
                     tepic::core::ArtifactKind::kFull,
                     tepic::core::ArtifactKind::kTailored,
                     tepic::core::ArtifactKind::kTrace}))
