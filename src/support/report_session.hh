/**
 * @file
 * The session store shared by the per-simulation report recorders
 * (fetch::cachestats, fetch::hotstats): one relaxed atomic until
 * start(), a mutex-guarded workload -> scheme -> merged-record map,
 * and the {"schema", "name", "structure": {"workloads": ...}} report
 * envelope.
 *
 * A Stats record must provide `bool recorded`, `merge(const Stats &)`
 * and `sameShape(const Stats &)`. Two records of one (workload,
 * scheme) pair merge when their shapes agree; a record of another
 * shape (a geometry sweep, a relayout) is keyed apart under
 * "<workload><shapeKey(stats)>" so merge() never crosses shapes. An
 * empty workload label is stored as "-". Each recorder supplies only
 * its shape key and its per-record JSON body (appendScheme).
 */

#ifndef TEPIC_SUPPORT_REPORT_SESSION_HH
#define TEPIC_SUPPORT_REPORT_SESSION_HH

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "support/metrics.hh"
#include "support/text_file.hh"

namespace tepic::support {

template <typename Stats>
class ReportSession
{
  public:
    /** "@..." suffix naming a record's shape (support/keys.hh). */
    using ShapeKeyFn = std::string (*)(const Stats &);
    /** Append one record's JSON object; @p indent is its own. */
    using AppendFn = void (*)(std::string &out, const Stats &stats,
                              const std::string &indent);

    /**
     * @p schema is the report's "schema" value, @p what names the
     * output in I/O warnings ("cache report").
     */
    ReportSession(const char *schema, const char *what,
                  ShapeKeyFn shapeKey, AppendFn appendScheme)
        : schema_(schema), what_(what), shapeKey_(shapeKey),
          appendScheme_(appendScheme)
    {
    }

    /** Runtime switch; one relaxed atomic load. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Reset the store and enable recording. */
    void
    start()
    {
        enabled_.store(false, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            workloads_.clear();
        }
        enabled_.store(true, std::memory_order_release);
    }

    /** Disable recording; recorded data stays until the next start. */
    void end() { enabled_.store(false, std::memory_order_relaxed); }

    /** Merge one simulation's record under (@p workload, @p scheme). */
    void
    record(const std::string &workload, const char *scheme,
           const Stats &stats)
    {
        if (!enabled() || !stats.recorded)
            return;
        const std::string key = workload.empty() ? "-" : workload;
        std::lock_guard<std::mutex> lock(mutex_);
        Stats &slot = workloads_[key][scheme];
        if (slot.recorded && !slot.sameShape(stats)) {
            workloads_[key + shapeKey_(stats)][scheme].merge(stats);
            return;
        }
        slot.merge(stats);
    }

    /** The whole report; everything under "structure" is exact-gated
     *  across --jobs (each record is a pure function of trace and
     *  config). */
    std::string
    reportJson(const std::string &name) const
    {
        std::string out = "{\n";
        out += "  \"schema\": \"" + std::string(schema_) + "\",\n";
        out += "  \"name\": " + jsonQuote(name) + ",\n";
        out += "  \"structure\": {\n";
        out += "    \"workloads\": {";
        std::lock_guard<std::mutex> lock(mutex_);
        bool first_wl = true;
        for (const auto &[workload, schemes] : workloads_) {
            if (!first_wl)
                out += ",";
            first_wl = false;
            out += "\n      " + jsonQuote(workload) + ": {";
            bool first_scheme = true;
            for (const auto &[scheme, stats] : schemes) {
                if (!first_scheme)
                    out += ",";
                first_scheme = false;
                out += "\n        " + jsonQuote(scheme) + ": ";
                appendScheme_(out, stats, "        ");
            }
            out += "\n      }";
        }
        out += workloads_.empty() ? "}\n" : "\n    }\n";
        out += "  }\n";
        out += "}\n";
        return out;
    }

    /** reportJson() to a file; warns (returns false) on I/O failure. */
    bool
    writeReport(const std::string &path, const std::string &name) const
    {
        return writeTextFile(path, reportJson(name), what_);
    }

    /** Drop all recorded state and disable (tests only). */
    void
    resetForTest()
    {
        enabled_.store(false, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        workloads_.clear();
    }

  private:
    const char *schema_;
    const char *what_;
    ShapeKeyFn shapeKey_;
    AppendFn appendScheme_;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    // workload -> scheme name -> merged record; std::map so report
    // iteration order is deterministic.
    std::map<std::string, std::map<std::string, Stats>> workloads_;
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_REPORT_SESSION_HH
