#ifndef RDMAJOIN_UTIL_FILE_H_
#define RDMAJOIN_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/statusor.h"

namespace rdmajoin {

/// Reads the whole file at `path` (binary). NotFound naming the path when it
/// cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Writes `text` to `path`, replacing the file. Internal naming the path
/// when it cannot be opened or written.
Status WriteStringToFile(const std::string& path, std::string_view text);

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_FILE_H_
