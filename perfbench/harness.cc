/**
 * @file
 * The repository benchmark harness: one process runs one workload
 * (figures, sweep or size-study) for a fixed time and prints every
 * metric by name with its unit. See perfbench/README.md for what each
 * workload and metric means and BENCHMARK.json for the bounds.
 *
 * Timing rules:
 *  - Only calls into the public functions of each layer are timed;
 *    the output checks run between jobs, outside the timed window.
 *  - The first job of a run warms the process up; it is checked but
 *    not timed.
 *  - No prof sampling, sched, cachestats, hotstats or Chrome-trace
 *    session may be live during a timed job (asserted before each).
 *  - With --trace 1, every other job records one span per layer call
 *    (name, start, end, parent, job id) into memory; after the jobs a
 *    decomposition pass calls every layer directly on the workload's
 *    programs. Spans are written out once, at the end.
 *
 * Simulated statistics are exact and must repeat; every job checks
 * them, plus image sizes and bytes, ATT bits and decoder costs,
 * against the digests in expected_digests.txt. The digests are keyed
 * by program or sweep slice, never by seed.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "compiler/driver.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "core/sweep.hh"
#include "decoder/complexity.hh"
#include "fetch/att.hh"
#include "fetch/cache_stats.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/hot_stats.hh"
#include "isa/baseline.hh"
#include "power/bitflips.hh"
#include "schemes/huffman_scheme.hh"
#include "schemes/stream_config.hh"
#include "schemes/tailored.hh"
#include "sim/emulator.hh"
#include "support/metrics.hh"
#include "support/sched.hh"
#include "support/stats.hh"
#include "support/sweep.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
using fetch::SchemeClass;

constexpr std::array<SchemeClass, 3> kSchemes = {
    SchemeClass::kBase, SchemeClass::kCompressed, SchemeClass::kTailored};

// ---------------------------------------------------------------------------
// Clocks, resources, statistics.

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU of the whole process (every thread), in ns. */
std::int64_t
processCpuNs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto ns = [](const timeval &tv) {
        return std::int64_t(tv.tv_sec) * 1'000'000'000 +
               std::int64_t(tv.tv_usec) * 1'000;
    };
    return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/** A "Vm*" field of /proc/self/status in MB; 0 when absent. */
double
statusMb(const char *field)
{
    std::ifstream status("/proc/self/status");
    const std::string prefix = std::string(field) + ":";
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(prefix, 0) == 0)
            return std::atof(line.c_str() + prefix.size()) / 1024.0;
    }
    return 0.0;
}

/**
 * Open a job's memory window: hand freed heap back to the kernel and
 * restart the peak-RSS mark (VmHWM). False when the kernel refuses.
 */
bool
beginMemoryWindow()
{
    malloc_trim(0);
    std::FILE *file = std::fopen("/proc/self/clear_refs", "w");
    if (!file)
        return false;
    const bool written = std::fputs("5", file) >= 0;
    return std::fclose(file) == 0 && written;
}

/**
 * Peak resident set (MB) since beginMemoryWindow(); the process peak
 * when the window could not be opened.
 */
double
endMemoryWindow(bool opened)
{
    if (opened)
        return statusMb("VmHWM");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/**
 * The highest percentile with at least ten samples beyond it: the
 * (n-10)th smallest of n, by nearest rank. Up to twenty samples that
 * percentile would not lie above the median, so the median is reported.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 50.0;
    std::size_t beyond = 0;
};

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    if (values.empty())
        return tail;
    const std::size_t n = values.size();
    if (n <= 20) {
        tail.value = support::median(values);
        tail.beyond = n / 2;
        return tail;
    }
    std::sort(values.begin(), values.end());
    tail.value = values[n - 11];
    tail.beyond = 10;
    tail.percentile = 100.0 * double(n - 10) / double(n);
    return tail;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A seeded permutation of 0..n-1 (Fisher-Yates over splitmix64). */
std::vector<std::size_t>
permutation(std::uint64_t seed, std::uint64_t stream, std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = seed * 0x100000001b3ull ^ (stream + 1);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[splitmix64(state) % i]);
    return order;
}

/** FNV-1a over integers and byte strings: the exact-output digest. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t value)
    {
        bytes(&value, sizeof(value));
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// Spans. Only the benchmark thread opens spans, around the calls it
// makes into the library; nothing inside the library is traced.

constexpr int kProbeUnit = -1;

struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    int unit = 0;  ///< job index, or kProbeUnit
    std::uint64_t work = 0;
};

struct Tracer
{
    bool on = false;
    int unit = 0;
    std::vector<Span> spans;
    std::vector<int> open;
    /** (unit, name) -> value: counts taken at the same boundaries. */
    std::map<std::pair<int, std::string>, double> counters;

    void
    count(const std::string &name, double value)
    {
        if (on)
            counters[{unit, name}] += value;
    }
};

Tracer tracer;

class SpanScope
{
  public:
    explicit SpanScope(const char *name)
    {
        if (!tracer.on)
            return;
        id_ = int(tracer.spans.size());
        Span span;
        span.name = name;
        span.parent = tracer.open.empty() ? -1 : tracer.open.back();
        span.unit = tracer.unit;
        tracer.spans.push_back(span);
        tracer.open.push_back(id_);
        tracer.spans[std::size_t(id_)].start = nowNs();
    }

    ~SpanScope()
    {
        if (id_ < 0)
            return;
        Span &span = tracer.spans[std::size_t(id_)];
        span.end = nowNs();
        span.work = work_;
        tracer.open.pop_back();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void work(std::uint64_t amount) { work_ += amount; }

  private:
    int id_ = -1;
    std::uint64_t work_ = 0;
};

std::size_t
schemeIndex(SchemeClass scheme)
{
    return std::size_t(scheme);
}

// Span names are static strings (the tracer stores the pointer).
constexpr std::array<const char *, 3> kSimulateSpan = {
    "fetch.simulate.base", "fetch.simulate.compressed",
    "fetch.simulate.tailored"};
constexpr std::array<const char *, 3> kSimulate3cSpan = {
    "fetch.simulate_3c.base", "fetch.simulate_3c.compressed",
    "fetch.simulate_3c.tailored"};

// ---------------------------------------------------------------------------
// Recorders-off guard.

void
assertRecordersOff()
{
    itimerval prof_timer{};
    getitimer(ITIMER_PROF, &prof_timer);
    const bool sampling = prof_timer.it_interval.tv_sec != 0 ||
                          prof_timer.it_interval.tv_usec != 0 ||
                          prof_timer.it_value.tv_sec != 0 ||
                          prof_timer.it_value.tv_usec != 0;
    const char *live = nullptr;
    if (sampling)
        live = "prof sampling";
    else if (support::sched::enabled())
        live = "sched";
    else if (fetch::cachestats::enabled())
        live = "cachestats";
    else if (fetch::hotstats::enabled())
        live = "hotstats";
    else if (support::trace::enabled())
        live = "trace";
    if (live) {
        std::fprintf(stderr,
                     "perfbench: a %s session is live during a timed "
                     "job; timed runs must keep recorders off\n",
                     live);
        std::exit(3);
    }
}

// ---------------------------------------------------------------------------
// Expected digests (perfbench/expected_digests.txt).

class Expectations
{
  public:
    void
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "perfbench: cannot read digests '%s'\n",
                         path.c_str());
            std::exit(2);
        }
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string key, value;
            fields >> key >> value;
            if (!key.empty())
                expected_[key] = value;
        }
    }

    /** Record @p actual under @p key; true when it matches. */
    bool
    check(const std::string &key, const std::string &actual)
    {
        observed_[key] = actual;
        const auto it = expected_.find(key);
        if (it != expected_.end() && it->second == actual)
            return true;
        ++mismatches_;
        if (!expected_.empty() && mismatches_ <= 5) {
            std::fprintf(stderr,
                         "perfbench: digest mismatch for %s: got %s, "
                         "expected %s\n",
                         key.c_str(), actual.c_str(),
                         it == expected_.end() ? "(none)"
                                               : it->second.c_str());
        }
        return false;
    }

    std::size_t mismatches() const { return mismatches_; }
    const std::map<std::string, std::string> &
    observed() const
    {
        return observed_;
    }

  private:
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> observed_;
    std::size_t mismatches_ = 0;
};

Expectations expectations;

// ---------------------------------------------------------------------------
// Layer calls shared by the jobs and the decomposition pass.

/** Every image of the size study, built straight from a program. */
struct ImageSet
{
    isa::Image base;
    schemes::CompressedImage byte;
    std::vector<schemes::CompressedImage> streams;
    schemes::CompressedImage full;
    std::optional<schemes::TailoredIsa> tailoredIsa;
    isa::Image tailored;
    std::optional<fetch::Att> att;
    std::vector<std::uint64_t> decoderTransistors;

    const isa::Image &
    imageFor(SchemeClass scheme) const
    {
        switch (scheme) {
          case SchemeClass::kBase: return base;
          case SchemeClass::kCompressed: return full.image;
          case SchemeClass::kTailored: return tailored;
        }
        throw std::logic_error("bad scheme class");
    }
};

/** Transistor cost of every Huffman and tailored decoder. */
std::vector<std::uint64_t>
decoderCosts(const schemes::CompressedImage &byte,
             const std::vector<schemes::CompressedImage> &streams,
             const schemes::CompressedImage &full,
             const schemes::TailoredIsa &tailored_isa)
{
    std::vector<std::uint64_t> costs;
    costs.push_back(decoder::decoderTransistors(byte));
    for (const auto &stream : streams)
        costs.push_back(decoder::decoderTransistors(stream));
    costs.push_back(decoder::decoderTransistors(full));
    costs.push_back(decoder::tailoredDecoderTransistors(tailored_isa));
    return costs;
}

ImageSet
buildImages(const isa::VliwProgram &program)
{
    const schemes::HuffmanOptions huffman;
    const std::uint64_t ops = program.opCount();
    ImageSet set;
    {
        SpanScope span("schemes.encode.base");
        set.base = isa::buildBaselineImage(program);
        span.work(ops);
    }
    {
        SpanScope span("schemes.encode.byte");
        set.byte = schemes::compressByte(program, huffman);
        span.work(ops);
    }
    for (const auto &config : schemes::allStreamConfigs()) {
        SpanScope span("schemes.encode.stream");
        set.streams.push_back(
            schemes::compressStream(program, config, huffman));
        span.work(ops);
    }
    {
        SpanScope span("schemes.encode.full");
        set.full = schemes::compressFull(program, huffman);
        span.work(ops);
    }
    {
        SpanScope span("schemes.encode.tailored");
        set.tailoredIsa = schemes::TailoredIsa::build(program);
        set.tailored = set.tailoredIsa->encode(program);
        span.work(ops);
    }
    {
        SpanScope span("fetch.att_build");
        set.att = fetch::Att::build(set.full.image, program);
    }
    {
        SpanScope span("decoder.cost");
        set.decoderTransistors = decoderCosts(set.byte, set.streams,
                                              set.full, *set.tailoredIsa);
    }
    return set;
}

/** Decoded image == the program's operation stream, block by block. */
bool
sameOps(const std::vector<std::vector<isa::Operation>> &decoded,
        const isa::VliwProgram &program)
{
    if (decoded.size() != program.blocks().size())
        return false;
    for (const auto &block : program.blocks()) {
        const auto &ops = decoded[block.id];
        std::size_t i = 0;
        for (const auto &mop : block.mops) {
            for (const auto &op : mop.ops()) {
                if (i >= ops.size() || !(ops[i] == op))
                    return false;
                ++i;
            }
        }
        if (i != ops.size())
            return false;
    }
    return true;
}

/** Decode every image of @p set back; false on any mismatch. */
bool
decodeAllImages(const ImageSet &set, const isa::VliwProgram &program)
{
    const std::uint64_t ops = program.opCount();
    bool ok = true;
    const auto verify = [&](const codec::Decoder &decoder) {
        SpanScope span("codec.verify");
        ok = sameOps(decoder.decodeAll(), program) && ok;
        span.work(ops);
    };
    verify(*codec::makeBaseDecoder(set.base));
    verify(*codec::makeDecoder(set.byte));
    for (const auto &stream : set.streams)
        verify(*codec::makeDecoder(stream));
    verify(*codec::makeDecoder(set.full));
    verify(*codec::makeDecoder(*set.tailoredIsa, set.tailored));
    return ok;
}

void
digestImage(Digest &digest, const isa::Image &image)
{
    digest.u64(image.bitSize);
    digest.u64(image.bytes.size());
    digest.bytes(image.bytes.data(), image.bytes.size());
}

/**
 * The size digest of one program: every image's bit size and bytes,
 * the ATT bits and every decoder's transistor count. Figures jobs
 * (engine-built images) and size-study jobs (directly built images)
 * must agree on it.
 */
std::string
sizeDigest(const isa::Image &base, const schemes::CompressedImage &byte,
           const std::vector<schemes::CompressedImage> &streams,
           const schemes::CompressedImage &full, const isa::Image &tailored,
           const fetch::Att &att,
           const std::vector<std::uint64_t> &decoder_costs)
{
    Digest digest;
    digestImage(digest, base);
    digestImage(digest, byte.image);
    for (const auto &stream : streams)
        digestImage(digest, stream.image);
    digestImage(digest, full.image);
    digestImage(digest, tailored);
    digest.u64(att.totalBits());
    digest.u64(att.entryBits());
    for (std::uint64_t cost : decoder_costs)
        digest.u64(cost);
    return digest.hex();
}

std::string
sizeDigest(const ImageSet &set)
{
    return sizeDigest(set.base, set.byte, set.streams, set.full,
                      set.tailored, *set.att, set.decoderTransistors);
}

std::string
sizeDigest(const core::Artifacts &a)
{
    return sizeDigest(a.baseImage(), a.byteImage(), a.streamImages(),
                      a.fullImage(), a.tailoredImage(), a.att(),
                      decoderCosts(a.byteImage(), a.streamImages(),
                                   a.fullImage(), a.tailoredIsa()));
}

/** Every FetchStats integer of the three organisations + bus flips. */
std::string
fetchDigest(const std::array<fetch::FetchStats, 3> &stats,
            const std::array<std::uint64_t, 3> &image_flips)
{
    Digest digest;
    for (std::size_t s = 0; s < 3; ++s) {
        const fetch::FetchStats &f = stats[s];
        for (std::uint64_t v :
             {f.cycles, f.idealCycles, f.opsDelivered, f.blocksFetched,
              f.l1Hits, f.l1Misses, f.l0Hits, f.l0Misses, f.atbHits,
              f.atbMisses, f.predictionsCorrect, f.predictionsWrong,
              f.linesTransferred, f.busBeats, f.busBitFlips,
              f.bytesTransferred, f.stallCycles,
              f.mispredictStallCycles, f.refillStallCycles,
              f.decodeStallCycles, f.atbStallCycles, f.l0SavedCycles}) {
            digest.u64(v);
        }
        digest.u64(image_flips[s]);
    }
    return digest.hex();
}

/** Bit flips of loading @p image once over the paper's 8-byte bus. */
std::uint64_t
imageBusFlips(const isa::Image &image)
{
    SpanScope span("power.bus");
    power::BusModel bus(8);
    bus.transfer(image.bytes);
    span.work(image.bytes.size());
    return bus.bitFlips();
}

/** Count an engine's cache lookups and its pool's wait / busy time. */
void
recordEngine(const core::ArtifactEngine &engine)
{
    support::MetricsRegistry metrics;
    engine.exportMetrics(metrics);
    const auto stats = engine.stats();
    tracer.count("engine.hits", double(stats.cacheHits));
    tracer.count("engine.lookups",
                 double(stats.cacheHits + stats.cacheMisses));
    tracer.count("threadpool.queue_wait_ms",
                 double(metrics.runtime("threadpool.queue_wait_us")) / 1e3);
    tracer.count("threadpool.exec_ms",
                 double(metrics.runtime("threadpool.exec_us")) / 1e3);
}

// ---------------------------------------------------------------------------
// Workloads.

struct Program
{
    const workloads::Workload *workload = nullptr;
    std::int32_t reference = 0;  ///< native oracle's exit value
};

std::vector<Program>
programsNamed(const std::vector<std::string> &names)
{
    std::vector<Program> programs;
    for (const auto &name : names)
        programs.push_back({&workloads::workloadByName(name), 0});
    return programs;
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

/** Fill in each program's native reference() exit value. */
void
computeReferences(std::vector<Program> &programs)
{
    for (auto &program : programs)
        program.reference = program.workload->reference();
}

class Workload
{
  public:
    explicit Workload(std::vector<Program> programs, std::uint64_t seed,
                      unsigned threads)
        : programs_(std::move(programs)), seed_(seed), threads_(threads)
    {
    }
    virtual ~Workload() = default;

    /** Everything before the first timed job; repeatable. */
    virtual void setup() = 0;
    /** One timed job; returns the simulated ops it delivered. */
    virtual std::uint64_t job(std::size_t index) = 0;
    /** Check the last job's outputs (untimed) and release them. */
    virtual bool check() = 0;

    const std::vector<Program> &programs() const { return programs_; }

  protected:
    std::vector<Program> programs_;
    std::uint64_t seed_;
    unsigned threads_;
};

/** Cold reproduction of Figs 5/7/10/13/14 over the whole suite. */
class FiguresWorkload : public Workload
{
  public:
    using Workload::Workload;

    void setup() override { computeReferences(programs_); }

    std::uint64_t
    job(std::size_t index) override
    {
        const std::size_t n = programs_.size();
        const auto order = permutation(seed_, index, n);
        auto engine = std::make_unique<core::ArtifactEngine>(threads_);
        std::vector<core::BuildRequest> requests;
        for (std::size_t i : order) {
            const auto *w = programs_[i].workload;
            requests.push_back({w->source, core::ArtifactRequest::all(),
                                {}, w->name});
        }
        std::vector<std::shared_ptr<const core::Artifacts>> built;
        {
            SpanScope span("core.engine.build");
            built = engine->buildMany(requests);
        }
        artifacts_.assign(n, nullptr);
        for (std::size_t k = 0; k < n; ++k)
            artifacts_[order[k]] = built[k];

        std::uint64_t sim_ops = 0;
        stats_.assign(n, {});
        flips_.assign(n, {});
        summaries_.assign(n, {});
        attBits_.assign(n, 0);
        for (std::size_t p = 0; p < n; ++p) {
            const core::Artifacts &a = *artifacts_[p];
            const std::string &name = programs_[p].workload->name;
            for (SchemeClass scheme : kSchemes) {
                const std::size_t s = schemeIndex(scheme);
                SpanScope span("core.run_fetch");
                stats_[p][s] = core::runFetch(a, scheme, std::nullopt,
                                              name);
                span.work(stats_[p][s].blocksFetched);
                sim_ops += stats_[p][s].opsDelivered;
            }
            {
                SpanScope span("core.summarise");
                summaries_[p] = core::summarise(a);
                attBits_[p] = a.att().totalBits();
            }
            for (SchemeClass scheme : kSchemes) {
                flips_[p][schemeIndex(scheme)] =
                    imageBusFlips(core::imageFor(a, scheme));
            }
        }
        if (tracer.on)
            recordEngine(*engine);
        engine.reset();
        return sim_ops;
    }

    bool
    check() override
    {
        bool ok = true;
        std::vector<char> verified(programs_.size(), 0);
        {
            // verifyRoundTrips per program, fanned out; untimed.
            support::ThreadPool pool(threads_);
            pool.parallelFor(programs_.size(), [&](std::size_t p) {
                try {
                    core::verifyRoundTrips(*artifacts_[p]);
                    verified[p] = 1;
                } catch (const std::exception &) {
                    verified[p] = 0;
                }
            });
        }
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            const core::Artifacts &a = *artifacts_[p];
            const std::string &name = programs_[p].workload->name;
            ok = verified[p] && ok;
            ok = a.execution.exitValue == programs_[p].reference && ok;
            ok = expectations.check("size/" + name, sizeDigest(a)) && ok;
            ok = expectations.check("fetch/" + name,
                                    fetchDigest(stats_[p], flips_[p])) &&
                 ok;
            // The Fig 5/7/10 table rows as the figure binaries print them.
            Digest table;
            for (const auto &row : summaries_[p]) {
                table.bytes(row.name.data(), row.name.size());
                table.u64(row.codeBits);
                table.u64(row.decoderTransistors);
            }
            table.u64(attBits_[p]);
            ok = expectations.check("table/" + name, table.hex()) && ok;
        }
        artifacts_.clear();
        return ok;
    }

  private:
    std::vector<std::shared_ptr<const core::Artifacts>> artifacts_;
    std::vector<std::array<fetch::FetchStats, 3>> stats_;
    std::vector<std::array<std::uint64_t, 3>> flips_;
    std::vector<std::vector<core::SchemeSummary>> summaries_;
    std::vector<std::uint64_t> attBits_;
};

/**
 * The CI grid, cut into 12 fixed slices (one per predictor x L0 x ATB);
 * each holds every cache geometry (sets x ways x line) and scheme on
 * the three sweep programs. Small geometries cost over twice as much
 * to simulate as large ones, so a slice that spans them all makes
 * every job about the same work. A job sweeps one slice; the seed
 * picks the order.
 */
std::vector<core::sweep::SweepGrid>
sweepSlices(const std::vector<std::string> &programs)
{
    const core::sweep::SweepGrid ci = core::sweep::SweepGrid::ci();
    std::vector<core::sweep::SweepGrid> grids;
    for (auto predictor : ci.predictors)
        for (unsigned l0 : ci.l0CapacityOps)
            for (unsigned atb : ci.atbEntries) {
                core::sweep::SweepGrid grid = ci;
                grid.workloads = programs;
                grid.predictors = {predictor};
                grid.l0CapacityOps = {l0};
                grid.atbEntries = {atb};
                grids.push_back(grid);
            }
    return grids;
}

std::string
sliceKey(const core::sweep::SweepGrid &grid)
{
    return std::string("p:") +
           fetch::predictorKindName(grid.predictors[0]) +
           "/l0:" + std::to_string(grid.l0CapacityOps[0]) +
           "/atb:" + std::to_string(grid.atbEntries[0]);
}

const std::vector<std::string> kSweepPrograms = {"gcc", "m88ksim",
                                                 "fir"};

/** The images runSweep reads for all three schemes, plus the trace. */
const core::ArtifactRequest kSweepRequest{
    core::ArtifactKind::kTrace, core::ArtifactKind::kBase,
    core::ArtifactKind::kFull, core::ArtifactKind::kTailored};

class SweepWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        computeReferences(programs_);
        grids_ = sweepSlices(kSweepPrograms);
        warm_.clear();
        engine_.reset();
        // Serial: a cache-hit sweep never uses the engine's pool, and
        // a one-thread build leaves the same heap layout on every run.
        engine_ = std::make_unique<core::ArtifactEngine>(1);
        std::vector<core::BuildRequest> requests;
        for (const auto &program : programs_) {
            requests.push_back({program.workload->source, kSweepRequest,
                                {}, program.workload->name});
        }
        warm_ = engine_->buildMany(requests);
    }

    std::uint64_t
    job(std::size_t index) override
    {
        const std::size_t round = index / grids_.size();
        const auto order = permutation(seed_, round, grids_.size());
        current_ = order[index % grids_.size()];

        core::sweep::SweepOptions options;
        options.grid = grids_[current_];
        options.jobs = threads_;
        options.record3c = true;  // as tepic-sweep defaults
        const auto before = engine_->stats();
        {
            SpanScope span("core.sweep.run");
            result_ = core::sweep::runSweep(*engine_, options);
            span.work(result_.points.size());
        }
        const auto after = engine_->stats();
        tracer.count("engine.hits",
                     double(after.cacheHits - before.cacheHits));
        tracer.count("engine.lookups",
                     double(after.cacheHits + after.cacheMisses -
                            before.cacheHits - before.cacheMisses));
        std::uint64_t sim_ops = 0;
        for (const auto &point : result_.points)
            sim_ops += point.metrics.opsDelivered;
        return sim_ops;
    }

    bool
    check() override
    {
        bool ok = true;
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            ok = warm_[p]->execution.exitValue == programs_[p].reference &&
                 ok;
        }
        Digest digest;
        const std::string structure =
            core::sweep::structureJson(result_);
        digest.bytes(structure.data(), structure.size());
        ok = expectations.check("sweep/" + sliceKey(grids_[current_]),
                                digest.hex()) &&
             ok;
        result_ = {};
        return ok;
    }

  private:
    std::vector<core::sweep::SweepGrid> grids_;
    std::unique_ptr<core::ArtifactEngine> engine_;
    std::vector<std::shared_ptr<const core::Artifacts>> warm_;
    std::size_t current_ = 0;
    core::sweep::SweepResult result_;
};

/** The Figs 5/7/10 compression study, serial, from a fixed profile. */
class SizeStudyWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        computeReferences(programs_);
        const std::size_t n = programs_.size();
        profiles_.assign(n, {});
        exitValues_.assign(n, 0);
        for (std::size_t p = 0; p < n; ++p) {
            const auto compiled =
                compiler::compileSource(programs_[p].workload->source);
            sim::EmulatorConfig config;
            config.recordTrace = false;
            const auto run =
                sim::emulate(compiled.program, compiled.data, config);
            profiles_[p] = run.blockCounts;
            exitValues_[p] = run.exitValue;
        }
    }

    std::uint64_t
    job(std::size_t index) override
    {
        const std::size_t n = programs_.size();
        const auto order = permutation(seed_, index, n);
        const compiler::CompileOptions options;
        sets_.assign(n, {});
        decoded_.assign(n, 0);
        std::uint64_t decoded_ops = 0;
        for (std::size_t p : order) {
            compiler::CompiledProgram compiled;
            {
                SpanScope span("compiler.compile");
                compiled = compiler::compileSource(
                    programs_[p].workload->source, options);
                span.work(compiled.program.opCount());
            }
            {
                SpanScope span("compiler.relayout");
                compiler::applyProfileAndRelayout(compiled, profiles_[p],
                                                  options.machine);
                span.work(compiled.program.opCount());
            }
            sets_[p] = buildImages(compiled.program);
            decoded_[p] = decodeAllImages(sets_[p], compiled.program);
            decoded_ops += (4 + sets_[p].streams.size()) *
                           compiled.program.opCount();
        }
        return decoded_ops;
    }

    bool
    check() override
    {
        bool ok = true;
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            ok = decoded_[p] && ok;
            ok = exitValues_[p] == programs_[p].reference && ok;
            ok = expectations.check(
                     "size/" + programs_[p].workload->name,
                     sizeDigest(sets_[p])) &&
                 ok;
        }
        return ok;
    }

  private:
    std::vector<std::vector<std::uint64_t>> profiles_;
    std::vector<std::int32_t> exitValues_;
    std::vector<ImageSet> sets_;
    std::vector<char> decoded_;
};

// ---------------------------------------------------------------------------
// The decomposition pass of the traced run: every layer called
// directly, serially, on the workload's programs.

struct ProbeResult
{
    bool ok = true;
    /** Paper-config stats per program and scheme (3C off). */
    std::vector<std::array<fetch::FetchStats, 3>> paper;
};

ProbeResult
runProbe(const std::vector<Program> &programs, unsigned threads)
{
    ProbeResult out;
    tracer.on = true;
    tracer.unit = kProbeUnit;
    SpanScope root("probe");
    const compiler::CompileOptions options;

    for (const auto &program : programs) {
        const auto *w = program.workload;
        compiler::CompiledProgram compiled;
        {
            SpanScope span("compiler.compile");
            compiled = compiler::compileSource(w->source, options);
            span.work(compiled.program.opCount());
        }
        sim::EmulationResult profile;
        {
            SpanScope span("sim.emulate");
            sim::EmulatorConfig config;
            config.recordTrace = false;
            profile = sim::emulate(compiled.program, compiled.data,
                                   config);
            span.work(profile.dynamicOps);
        }
        {
            SpanScope span("compiler.relayout");
            compiler::applyProfileAndRelayout(
                compiled, profile.blockCounts, options.machine);
            span.work(compiled.program.opCount());
        }
        sim::EmulationResult run;
        {
            SpanScope span("sim.emulate");
            run = sim::emulate(compiled.program, compiled.data);
            span.work(run.dynamicOps);
        }
        out.ok = run.exitValue == program.reference && out.ok;

        const ImageSet set = buildImages(compiled.program);
        out.ok = decodeAllImages(set, compiled.program) && out.ok;
        out.ok = expectations.check("size/" + w->name, sizeDigest(set)) &&
                 out.ok;

        std::array<fetch::FetchStats, 3> stats;
        std::array<std::uint64_t, 3> flips{};
        for (SchemeClass scheme : kSchemes) {
            const std::size_t s = schemeIndex(scheme);
            const isa::Image &image = set.imageFor(scheme);
            flips[s] = imageBusFlips(image);
            {
                SpanScope span(kSimulateSpan[s]);
                stats[s] = fetch::simulateFetch(
                    image, compiled.program, run.trace,
                    fetch::FetchConfig::paper(scheme));
                span.work(stats[s].blocksFetched);
            }
            // The same simulation with the sweep's 3C recording on.
            fetch::FetchConfig with_3c = fetch::FetchConfig::paper(scheme);
            with_3c.cacheStats.enabled = true;
            with_3c.cacheStats.reuseSampleEvery = 64;
            SpanScope span(kSimulate3cSpan[s]);
            const auto recorded = fetch::simulateFetch(
                image, compiled.program, run.trace, with_3c);
            span.work(recorded.blocksFetched);
        }
        out.ok = expectations.check("fetch/" + w->name,
                                    fetchDigest(stats, flips)) &&
                 out.ok;
        out.paper.push_back(stats);
    }

    // Engine: each program's cold build timed alone (the longest is
    // the critical path under a figures job).
    core::ArtifactEngine engine(threads);
    std::vector<std::shared_ptr<const core::Artifacts>> built;
    for (const auto &program : programs) {
        SpanScope span("core.engine.build");
        built.push_back(engine.build(program.workload->source,
                                     core::ArtifactRequest::all(), {},
                                     program.workload->name));
    }
    recordEngine(engine);

    // Recorder cost: runFetch with each session off / on.
    const auto run_fetch_all = [&](const char *span_name) {
        for (std::size_t p = 0; p < programs.size(); ++p)
            for (SchemeClass scheme : kSchemes) {
                SpanScope span(span_name);
                const auto stats = core::runFetch(
                    *built[p], scheme, std::nullopt,
                    programs[p].workload->name);
                span.work(stats.blocksFetched);
            }
    };
    run_fetch_all("core.run_fetch.off");
    fetch::cachestats::startSession();
    run_fetch_all("core.run_fetch.cachestats");
    fetch::cachestats::endSession();
    fetch::hotstats::startSession();
    run_fetch_all("core.run_fetch.hotstats");
    fetch::hotstats::endSession();

    // Sweep: one cache geometry and predictor of the CI grid over
    // these programs on the warm engine, then the per-point simulation
    // timed from outside.
    core::sweep::SweepOptions sweep_options;
    core::sweep::SweepGrid &grid = sweep_options.grid;
    grid = core::sweep::SweepGrid::ci();
    grid.workloads.clear();
    for (const auto &program : programs)
        grid.workloads.push_back(program.workload->name);
    grid.cacheSets.resize(1);
    grid.cacheWays.resize(1);
    grid.lineBytes.resize(1);
    grid.predictors.resize(1);
    sweep_options.jobs = threads;
    core::sweep::SweepResult sweep;
    {
        SpanScope span("core.sweep.run");
        sweep = core::sweep::runSweep(engine, sweep_options);
        span.work(sweep.points.size());
    }
    for (const auto &config : sweep.configs) {
        if (config.atbEntries != 64 ||
            (config.l0Ops != 0 && config.l0Ops != 32)) {
            continue;
        }
        for (std::size_t p = 0; p < programs.size(); ++p) {
            SpanScope span("fetch.simulate_point");
            const auto stats = fetch::simulateFetch(
                core::imageFor(*built[p], config.scheme),
                built[p]->compiled.program, built[p]->trace(),
                config.fetchConfig(true));
            span.work(stats.blocksFetched);
        }
    }
    std::vector<support::sweep::Point> points;
    for (const auto &aggregate : sweep.aggregates)
        points.push_back(core::sweep::aggregatePoint(aggregate));
    for (int i = 0; i < 25; ++i) {
        SpanScope span("support.sweep.pareto_front");
        const auto front = support::sweep::paretoFront(
            points, core::sweep::objectives());
        span.work(front.size());
    }
    return out;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the spans.

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class LayerView
{
  public:
    LayerView()
    {
        std::vector<std::int64_t> child(tracer.spans.size(), 0);
        for (const Span &span : tracer.spans)
            if (span.parent >= 0)
                child[std::size_t(span.parent)] += span.end - span.start;
        for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
            const Span &span = tracer.spans[i];
            const double self_ms =
                double(span.end - span.start - child[i]) / 1e6;
            Agg &agg = byUnit_[span.unit][span.name];
            agg.selfMs += self_ms;
            agg.work += span.work;
            agg.calls += 1;
            agg.durationsMs.push_back(double(span.end - span.start) /
                                      1e6);
        }
    }

    /**
     * The units a layer's metric is taken from: the traced jobs when
     * they call the layer, otherwise the decomposition pass.
     */
    std::vector<int>
    unitsFor(const std::string &prefix) const
    {
        std::vector<int> units;
        for (const auto &[unit, names] : byUnit_) {
            if (unit == kProbeUnit)
                continue;
            for (const auto &[name, agg] : names)
                if (matches(name, prefix)) {
                    units.push_back(unit);
                    break;
                }
        }
        if (units.empty())
            units.push_back(kProbeUnit);
        return units;
    }

    /** Median over units of the per-unit self time (ms). */
    double
    selfMs(const std::string &prefix) const
    {
        std::vector<double> per_unit;
        for (int unit : unitsFor(prefix))
            per_unit.push_back(sum(unit, prefix).selfMs);
        return support::median(per_unit);
    }

    /** Work per self-time second, over the same units. */
    double
    ratePerS(const std::string &prefix) const
    {
        double ms = 0.0;
        double work = 0.0;
        for (int unit : unitsFor(prefix)) {
            const Agg agg = sum(unit, prefix);
            ms += agg.selfMs;
            work += double(agg.work);
        }
        return ms > 0.0 ? work / (ms / 1e3) : 0.0;
    }

    double
    callsPerUnit(const std::string &prefix) const
    {
        std::vector<double> per_unit;
        for (int unit : unitsFor(prefix))
            per_unit.push_back(double(sum(unit, prefix).calls));
        return support::median(per_unit);
    }

    /** Every span duration (ms) of @p prefix in @p unit. */
    std::vector<double>
    durations(int unit, const std::string &prefix) const
    {
        return sum(unit, prefix).durationsMs;
    }

    double
    unitSelfMs(int unit, const std::string &prefix) const
    {
        return sum(unit, prefix).selfMs;
    }

    double
    probeSelfMs(const std::string &prefix) const
    {
        return unitSelfMs(kProbeUnit, prefix);
    }

    /** Traced job units, in order. */
    std::vector<int>
    jobUnits() const
    {
        std::vector<int> units;
        for (const auto &[unit, names] : byUnit_)
            if (unit != kProbeUnit)
                units.push_back(unit);
        return units;
    }

  private:
    struct Agg
    {
        double selfMs = 0.0;
        std::uint64_t work = 0;
        std::uint64_t calls = 0;
        std::vector<double> durationsMs;
    };

    static bool
    matches(const std::string &name, const std::string &prefix)
    {
        return name == prefix ||
               (name.size() > prefix.size() &&
                name.compare(0, prefix.size(), prefix) == 0 &&
                name[prefix.size()] == '.');
    }

    Agg
    sum(int unit, const std::string &prefix) const
    {
        Agg total;
        const auto it = byUnit_.find(unit);
        if (it == byUnit_.end())
            return total;
        for (const auto &[name, agg] : it->second) {
            if (!matches(name, prefix))
                continue;
            total.selfMs += agg.selfMs;
            total.work += agg.work;
            total.calls += agg.calls;
            total.durationsMs.insert(total.durationsMs.end(),
                                     agg.durationsMs.begin(),
                                     agg.durationsMs.end());
        }
        return total;
    }

    std::map<int, std::map<std::string, Agg>> byUnit_;
};

/** Per-unit values of the tracer counter @p name. */
std::map<int, double>
counterByUnit(const std::string &name)
{
    std::map<int, double> by_unit;
    for (const auto &[key, value] : tracer.counters)
        if (key.second == name)
            by_unit[key.first] += value;
    return by_unit;
}

/**
 * The units a counter-based metric is taken from: the traced jobs
 * when @p name is non-zero there, otherwise the decomposition pass.
 */
std::vector<int>
counterUnits(const std::string &name)
{
    std::vector<int> units;
    for (const auto &[unit, value] : counterByUnit(name))
        if (unit != kProbeUnit && value > 0.0)
            units.push_back(unit);
    if (units.empty())
        units.push_back(kProbeUnit);
    return units;
}

/** Median over @p units of the counter @p name. */
double
counterMedian(const std::vector<int> &units, const std::string &name)
{
    const auto by_unit = counterByUnit(name);
    std::vector<double> values;
    for (int unit : units) {
        const auto it = by_unit.find(unit);
        values.push_back(it == by_unit.end() ? 0.0 : it->second);
    }
    return support::median(values);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
layerMetrics(const ProbeResult &probe, unsigned threads,
             double untraced_p50, double traced_p50)
{
    const LayerView view;
    std::vector<Metric> m;
    const auto add = [&m](const std::string &name, double value,
                          const std::string &unit) {
        m.push_back({name, value, unit});
    };

    add("compiler.compile_ms", view.selfMs("compiler.compile"), "ms");
    add("compiler.relayout_ms", view.selfMs("compiler.relayout"), "ms");
    add("compiler.static_kops_per_s",
        view.ratePerS("compiler.compile") / 1e3, "kops/s");

    add("sim.emulate_ms", view.selfMs("sim.emulate"), "ms");
    add("sim.emulate_mops_per_s", view.ratePerS("sim.emulate") / 1e6,
        "Mops/s");
    add("sim.emulations", view.callsPerUnit("sim.emulate"), "count");

    for (const char *scheme :
         {"base", "byte", "stream", "full", "tailored"}) {
        add(std::string("schemes.encode_ms.") + scheme,
            view.selfMs(std::string("schemes.encode.") + scheme), "ms");
    }
    add("schemes.encoded_kops_per_s",
        view.ratePerS("schemes.encode") / 1e3, "kops/s");

    add("codec.verify_ms", view.selfMs("codec.verify"), "ms");
    add("codec.decode_mops_per_s", view.ratePerS("codec.verify") / 1e6,
        "Mops/s");

    add("fetch.att_build_ms", view.selfMs("fetch.att_build"), "ms");
    for (SchemeClass scheme : kSchemes) {
        const std::size_t s = schemeIndex(scheme);
        add(std::string("fetch.sim_ms.") + fetch::schemeClassName(scheme),
            view.selfMs(kSimulateSpan[s]), "ms");
        add(std::string("fetch.sim_mblocks_per_s.") + fetch::schemeClassName(scheme),
            view.ratePerS(kSimulateSpan[s]) / 1e6, "Mblocks/s");
    }
    add("fetch.threec_overhead_ratio",
        ratio(view.probeSelfMs("fetch.simulate_3c"),
              view.probeSelfMs("fetch.simulate")),
        "ratio");
    add("fetch.recorder_overhead_ratio.cachestats",
        ratio(view.probeSelfMs("core.run_fetch.cachestats"),
              view.probeSelfMs("core.run_fetch.off")),
        "ratio");
    add("fetch.recorder_overhead_ratio.hotstats",
        ratio(view.probeSelfMs("core.run_fetch.hotstats"),
              view.probeSelfMs("core.run_fetch.off")),
        "ratio");

    // Simulated (exact) statistics at the paper configuration, summed
    // over the workload's programs.
    std::array<fetch::FetchStats, 3> total{};
    for (const auto &per_program : probe.paper)
        for (std::size_t s = 0; s < 3; ++s) {
            const fetch::FetchStats &f = per_program[s];
            fetch::FetchStats &t = total[s];
            t.cycles += f.cycles;
            t.opsDelivered += f.opsDelivered;
            t.l1Hits += f.l1Hits;
            t.l1Misses += f.l1Misses;
            t.l0Hits += f.l0Hits;
            t.l0Misses += f.l0Misses;
            t.atbHits += f.atbHits;
            t.atbMisses += f.atbMisses;
            t.predictionsCorrect += f.predictionsCorrect;
            t.predictionsWrong += f.predictionsWrong;
            t.mispredictStallCycles += f.mispredictStallCycles;
            t.refillStallCycles += f.refillStallCycles;
            t.decodeStallCycles += f.decodeStallCycles;
            t.atbStallCycles += f.atbStallCycles;
        }
    fetch::FetchStats all;
    for (SchemeClass scheme : kSchemes) {
        const fetch::FetchStats &t = total[schemeIndex(scheme)];
        const std::string name = fetch::schemeClassName(scheme);
        add("fetch.ipc_e6." + name,
            double(t.cycles ? t.opsDelivered * 1'000'000ull / t.cycles
                            : 0),
            "sim_ipc_e6");
        add("fetch.l1_hit_ratio." + name,
            ratio(double(t.l1Hits), double(t.l1Hits + t.l1Misses)),
            "sim_ratio");
        add("fetch.atb_hit_ratio." + name,
            ratio(double(t.atbHits), double(t.atbHits + t.atbMisses)),
            "sim_ratio");
        all.predictionsCorrect += t.predictionsCorrect;
        all.predictionsWrong += t.predictionsWrong;
        all.mispredictStallCycles += t.mispredictStallCycles;
        all.refillStallCycles += t.refillStallCycles;
        all.decodeStallCycles += t.decodeStallCycles;
        all.atbStallCycles += t.atbStallCycles;
    }
    const fetch::FetchStats &comp =
        total[schemeIndex(SchemeClass::kCompressed)];
    add("fetch.l0_hit_ratio",
        ratio(double(comp.l0Hits), double(comp.l0Hits + comp.l0Misses)),
        "sim_ratio");
    add("fetch.pred_accuracy",
        ratio(double(all.predictionsCorrect),
              double(all.predictionsCorrect + all.predictionsWrong)),
        "sim_ratio");
    add("fetch.stall_cycles.mispredict",
        double(all.mispredictStallCycles), "sim_cycles");
    add("fetch.stall_cycles.refill", double(all.refillStallCycles),
        "sim_cycles");
    add("fetch.stall_cycles.decode", double(all.decodeStallCycles),
        "sim_cycles");
    add("fetch.stall_cycles.atb", double(all.atbStallCycles),
        "sim_cycles");

    add("power.bus_ms", view.selfMs("power.bus"), "ms");
    add("power.bus_mb_per_s", view.ratePerS("power.bus") / 1e6, "MB/s");

    add("core.engine.build_ms", view.selfMs("core.engine.build"), "ms");
    const auto lookup_units = counterUnits("engine.lookups");
    add("core.engine.cache_hit_ratio",
        ratio(counterMedian(lookup_units, "engine.hits"),
              counterMedian(lookup_units, "engine.lookups")),
        "ratio");
    const auto cold_builds =
        view.durations(kProbeUnit, "core.engine.build");
    add("core.engine.critical_path_ms",
        cold_builds.empty()
            ? 0.0
            : *std::max_element(cold_builds.begin(), cold_builds.end()),
        "ms");
    add("core.sweep.run_ms", view.selfMs("core.sweep.run"), "ms");
    add("core.sweep.points_per_s", view.ratePerS("core.sweep.run"),
        "1/s");
    add("core.sweep.point_ms_p50",
        support::median(
            view.durations(kProbeUnit, "fetch.simulate_point")),
        "ms");

    const auto pool_units = counterUnits("threadpool.exec_ms");
    const bool pool_from_jobs = pool_units.front() != kProbeUnit;
    const double exec_ms = counterMedian(pool_units, "threadpool.exec_ms");
    add("support.threadpool.queue_wait_ms",
        counterMedian(pool_units, "threadpool.queue_wait_ms"), "ms");
    add("support.threadpool.exec_ms", exec_ms, "ms");
    // Busy share of the workers over the engine's wall time: the job
    // span when the jobs own the engine, else the probe's cold builds.
    double engine_wall_ms = 0.0;
    if (pool_from_jobs) {
        std::vector<double> walls;
        for (int unit : view.jobUnits()) {
            const auto d = view.durations(unit, "core.engine.build");
            for (double ms : d)
                walls.push_back(ms);
        }
        engine_wall_ms = support::median(walls);
    } else {
        for (double ms : cold_builds)
            engine_wall_ms += ms;
    }
    add("support.threadpool.busy_frac",
        ratio(exec_ms, engine_wall_ms * double(threads)), "ratio");
    add("support.sweep.front_ms",
        support::median(
            view.durations(kProbeUnit, "support.sweep.pareto_front")),
        "ms");

    add("trace.overhead_ratio", ratio(traced_p50, untraced_p50),
        "ratio");
    // Share of a traced job's wall covered by layer spans (1 - the
    // root span's self share).
    std::vector<double> shares;
    for (int unit : view.jobUnits()) {
        const auto roots = view.durations(unit, "job");
        if (roots.empty())
            continue;
        const double root_ms = roots.front();
        shares.push_back(1.0 - ratio(view.unitSelfMs(unit, "job"), root_ms));
    }
    add("trace.layer_share", support::median(shares), "ratio");
    return m;
}

// ---------------------------------------------------------------------------
// Output.

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

void
writeSpans(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n",
                     path.c_str());
        return;
    }
    std::fprintf(file, "[\n");
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &span = tracer.spans[i];
        std::fprintf(file,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                     "%" PRId64 ", \"end_ns\": %" PRId64
                     ", \"parent\": %d, \"job\": %d, \"work\": %" PRIu64
                     "}%s\n",
                     i, span.name, span.start, span.end, span.parent,
                     span.unit, span.work,
                     i + 1 < tracer.spans.size() ? "," : "");
    }
    std::fprintf(file, "]\n");
    std::fclose(file);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string spansOut;
    std::string writeDigests;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: tepic_perfbench --workload figures|sweep|"
                 "size-study --seed N --seconds S --trace 0|1\n"
                 "       --digests FILE [--spans-out FILE]\n"
                 "       tepic_perfbench --write-digests FILE\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            o.workload = value;
        else if (arg == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            o.trace = value == "1";
        else if (arg == "--digests")
            o.digests = value;
        else if (arg == "--spans-out")
            o.spansOut = value;
        else if (arg == "--write-digests")
            o.writeDigests = value;
        else
            usage(("unknown flag " + arg).c_str());
    }
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             unsigned threads)
{
    if (name == "figures") {
        return std::make_unique<FiguresWorkload>(
            programsNamed(suiteNames()), seed, threads);
    }
    if (name == "sweep") {
        return std::make_unique<SweepWorkload>(
            programsNamed(kSweepPrograms), seed, threads);
    }
    if (name == "size-study") {
        return std::make_unique<SizeStudyWorkload>(
            programsNamed(suiteNames()), seed, threads);
    }
    usage(("unknown workload '" + name + "'").c_str());
}

/** Regenerate expected_digests.txt: every key any job can check. */
int
writeDigests(const std::string &path, unsigned threads)
{
    FiguresWorkload figures(programsNamed(suiteNames()), 0, threads);
    figures.setup();
    figures.job(0);
    figures.check();
    const auto from_engine = expectations.observed();
    SizeStudyWorkload size(programsNamed(suiteNames()), 0, threads);
    size.setup();
    size.job(0);
    size.check();
    // Engine-built and directly built images must agree.
    for (const auto &[key, value] : expectations.observed()) {
        if (from_engine.at(key) != value) {
            std::fprintf(stderr,
                         "perfbench: %s differs between the figures and "
                         "size-study paths\n",
                         key.c_str());
            return 1;
        }
    }
    SweepWorkload sweep(programsNamed(kSweepPrograms), 0, threads);
    sweep.setup();
    const std::size_t slices = sweepSlices(kSweepPrograms).size();
    for (std::size_t i = 0; i < slices; ++i) {
        sweep.job(i);
        sweep.check();
    }
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     path.c_str());
        return 1;
    }
    std::fprintf(file,
                 "# Exact digests of the benchmark's simulated and size\n"
                 "# results, keyed by program or sweep slice (never\n"
                 "# by seed). Regenerate with: tepic_perfbench "
                 "--write-digests FILE\n");
    for (const auto &[key, value] : expectations.observed())
        std::fprintf(file, "%s %s\n", key.c_str(), value.c_str());
    std::fclose(file);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t process_start = nowNs();
    const Options options = parseOptions(argc, argv);
    const unsigned threads =
        std::min(4u, support::ThreadPool::hardwareThreads());
    if (!options.writeDigests.empty())
        return writeDigests(options.writeDigests, threads);
    if (options.workload.empty() || options.digests.empty())
        usage("--workload and --digests are required");
    expectations.load(options.digests);

    auto workload = makeWorkload(options.workload, options.seed, threads);

    // Set-up runs three times before the first job, the first from
    // process start (reported alone as setup_first_s in the detail
    // line), and again between jobs all through the run, so that its
    // median sees the same host as the jobs: one set-up, or a few at
    // the start, is too noisy to bound.
    std::vector<double> setup_s;
    const auto run_setup = [&](std::int64_t begin) {
        workload->setup();
        setup_s.push_back(double(nowNs() - begin) / 1e9);
    };
    run_setup(process_start);
    while (setup_s.size() < 3)
        run_setup(nowNs());
    std::size_t setup_every = 1;

    std::vector<double> wall_ms;
    std::vector<double> traced_ms;
    std::vector<double> cpu_ms;
    std::vector<double> mops_per_s;
    std::vector<double> rss_mb;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const std::int64_t deadline =
        nowNs() + std::int64_t(options.seconds * 1e9);
    // Job 0 warms the process up (heap, code pages): it is checked and
    // counted as attempted, but its times are left out of the metrics.
    for (std::size_t i = 0;; ++i) {
        if (i > 3 && nowNs() >= deadline)
            break;
        if (i > 1 && i % setup_every == 0)
            run_setup(nowNs());
        assertRecordersOff();
        const bool traced = options.trace && i % 2 == 1;
        tracer.on = traced;
        tracer.unit = int(i);
        std::uint64_t sim_ops = 0;
        bool ok = true;
        const bool rss_window = beginMemoryWindow();
        const std::int64_t cpu0 = processCpuNs();
        const std::int64_t t0 = nowNs();
        try {
            SpanScope root("job");
            sim_ops = workload->job(i);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: job %zu threw: %s\n", i,
                         e.what());
            ok = false;
        }
        const std::int64_t t1 = nowNs();
        const std::int64_t cpu1 = processCpuNs();
        const double job_rss_mb = endMemoryWindow(rss_window);
        tracer.on = false;
        if (ok) {
            try {
                ok = workload->check();
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: check %zu threw: %s\n",
                             i, e.what());
                ok = false;
            }
        }
        ++attempted;
        failed += ok ? 0 : 1;
        const double ms = double(t1 - t0) / 1e6;
        if (i == 0) {
            // Set-ups between jobs take about a fifth of the job time.
            setup_every = std::max<std::size_t>(
                1, std::size_t(std::ceil(5e3 * support::median(setup_s) /
                                         std::max(ms, 1.0))));
            continue;
        }
        if (traced) {
            traced_ms.push_back(ms);
            continue;
        }
        wall_ms.push_back(ms);
        cpu_ms.push_back(double(cpu1 - cpu0) / 1e6);
        mops_per_s.push_back(double(sim_ops) / (ms / 1e3) / 1e6);
        rss_mb.push_back(job_rss_mb);
    }

    std::vector<Metric> metrics;
    const Tail tail = tailOf(wall_ms);
    if (options.trace) {
        const ProbeResult probe =
            runProbe(workload->programs(), threads);
        tracer.on = false;
        ++attempted;
        failed += probe.ok ? 0 : 1;
        metrics = layerMetrics(probe, threads, support::median(wall_ms),
                               support::median(traced_ms));
        if (!options.spansOut.empty())
            writeSpans(options.spansOut);
    } else {
        double cpu_total = 0.0;
        for (double ms : cpu_ms)
            cpu_total += ms;
        metrics = {
            {"setup_s", support::median(setup_s), "s"},
            {"job_ms_p50", support::median(wall_ms), "ms"},
            {"job_ms_tail", tail.value, "ms"},
            {"cpu_ms_per_job", cpu_total / double(cpu_ms.size()), "ms"},
            {"peak_rss_mb", support::median(rss_mb), "MB"},
            {"sim_mops_per_s", support::median(mops_per_s), "Mops/s"},
            {"ok_frac",
             double(attempted - failed) / double(attempted), "ratio"},
        };
    }

    const auto list = [](const std::vector<double> &values,
                         const char *format) {
        std::string text;
        for (double v : values) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), format, v);
            text += (text.empty() ? "" : ", ") + std::string(buf);
        }
        return text;
    };
    std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"threads\": %u, \"jobs_timed\": %zu, "
                "\"jobs_traced\": %zu, \"job_ms_tail_percentile\": %.3f, "
                "\"jobs_beyond_tail\": %zu, \"setups\": %zu, "
                "\"setup_first_s\": %.6f, \"setups_s\": [%s], "
                "\"digests_checked\": %zu, \"digest_mismatches\": %zu, "
                "\"job_ms\": [%s]}}\n",
                options.workload.c_str(), options.seed,
                options.trace ? 1 : 0, threads, wall_ms.size(),
                traced_ms.size(), tail.percentile, tail.beyond,
                setup_s.size(), setup_s.front(),
                list(setup_s, "%.4f").c_str(),
                expectations.observed().size(),
                expectations.mismatches(), list(wall_ms, "%.1f").c_str());
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
