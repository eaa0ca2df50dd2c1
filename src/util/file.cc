#include "util/file.h"

#include <fstream>
#include <sstream>

namespace rdmajoin {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::Internal("read error on " + path);
  return std::move(buf).str();
}

Status WriteStringToFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

}  // namespace rdmajoin
