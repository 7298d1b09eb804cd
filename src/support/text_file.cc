#include "support/text_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/logging.hh"

namespace tepic::support {

bool
writeTextFile(const std::string &path, const std::string &text,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        TEPIC_WARN("cannot open ", what, " output '", path,
                   "': ", std::strerror(errno));
        return false;
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        TEPIC_WARN("cannot write ", what, " output '", path,
                   "': ", std::strerror(errno));
    return ok;
}

} // namespace tepic::support
