/**
 * @file
 * The one text-file writer behind every report, snapshot and trace
 * output: metrics JSON, the SIZE/PROF/SCHED/CACHE/HOT/SWEEP reports,
 * the trace-event JSON and the collapsed-stack profile all go through
 * writeTextFile(), so a full disk or an unwritable path is reported
 * the same way everywhere instead of being lost silently.
 */

#ifndef TEPIC_SUPPORT_TEXT_FILE_HH
#define TEPIC_SUPPORT_TEXT_FILE_HH

#include <string>

namespace tepic::support {

/**
 * Write @p text to @p path (truncating). Checks the open, the write
 * and the close — a buffered write to a full device only fails at
 * fclose(). On any failure, warns "<what> output '<path>'" with the
 * OS reason and returns false.
 */
bool writeTextFile(const std::string &path, const std::string &text,
                   const char *what);

} // namespace tepic::support

#endif // TEPIC_SUPPORT_TEXT_FILE_HH
