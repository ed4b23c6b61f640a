#include "util/require.hpp"

#include <sstream>
#include <string_view>

namespace mcs {

void require_failed(const char* expr, const char* file, int line,
                    const std::string& msg) {
    // Only the file's basename: the build's absolute source path is no
    // business of whoever reads the message (a what-if client gets it as a
    // 400 body), and it would make two checkouts of one commit differ.
    std::string_view name(file);
    const std::size_t slash = name.find_last_of("/\\");
    if (slash != std::string_view::npos) {
        name.remove_prefix(slash + 1);
    }
    std::ostringstream os;
    os << "requirement failed: " << msg << " [" << expr << "] at " << name
       << ":" << line;
    throw RequireError(os.str());
}

}  // namespace mcs
