#include "tools/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace kcpq {

namespace {

// Parses one strict double; advances *pos past it.
Status ParseDouble(const std::string& line, int line_number, size_t* pos,
                   double* out) {
  const char* begin = line.c_str() + *pos;
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE) {
    return Status::InvalidArgument("bad number in: " + line);
  }
  if (!std::isfinite(*out)) {
    return Status::InvalidArgument("non-finite number on line " +
                                   std::to_string(line_number) + ": " + line);
  }
  *pos += static_cast<size_t>(end - begin);
  return Status::OK();
}

// Parses one strict unsigned 64-bit integer; advances *pos past it.
Status ParseId(const std::string& line, size_t* pos, uint64_t* out) {
  const char* begin = line.c_str() + *pos;
  if (*begin == '-') {
    return Status::InvalidArgument("negative id in: " + line);
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(begin, &end, 10);
  if (end == begin || errno == ERANGE) {
    return Status::InvalidArgument("bad id in: " + line);
  }
  *pos += static_cast<size_t>(end - begin);
  return Status::OK();
}

Status ExpectComma(const std::string& line, size_t* pos) {
  if (*pos >= line.size() || line[*pos] != ',') {
    return Status::InvalidArgument("expected ',' in: " + line);
  }
  ++*pos;
  return Status::OK();
}

}  // namespace

Result<std::vector<std::pair<Point, uint64_t>>> ParseCsvPoints(
    const std::string& text) {
  std::vector<std::pair<Point, uint64_t>> items;
  uint64_t next_id = 0;
  size_t line_start = 0;
  int line_number = 0;
  while (line_start <= text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Skip blanks and comments.
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      if (line_end == text.size()) break;
      continue;
    }

    size_t pos = first;
    Point p;
    KCPQ_RETURN_IF_ERROR(ParseDouble(line, line_number, &pos, &p.coord[0]));
    KCPQ_RETURN_IF_ERROR(ExpectComma(line, &pos));
    KCPQ_RETURN_IF_ERROR(ParseDouble(line, line_number, &pos, &p.coord[1]));
    uint64_t id = next_id;
    if (pos < line.size()) {
      KCPQ_RETURN_IF_ERROR(ExpectComma(line, &pos));
      KCPQ_RETURN_IF_ERROR(ParseId(line, &pos, &id));
    }
    if (pos != line.size() &&
        line.find_first_not_of(" \t", pos) != std::string::npos) {
      return Status::InvalidArgument("trailing junk on line " +
                                     std::to_string(line_number) + ": " +
                                     line);
    }
    items.emplace_back(p, id);
    next_id = id + 1;
    if (line_end == text.size()) break;
  }
  return items;
}

Result<std::vector<std::pair<Point, uint64_t>>> ReadCsvPointFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IoError("read error on " + path);
  return ParseCsvPoints(text);
}

std::string FormatCsvPoints(
    const std::vector<std::pair<Point, uint64_t>>& items) {
  std::string out;
  char line[128];
  for (const auto& [p, id] : items) {
    std::snprintf(line, sizeof(line), "%.17g,%.17g,%llu\n", p.x(), p.y(),
                  static_cast<unsigned long long>(id));
    out += line;
  }
  return out;
}

Status WriteCsvPointFile(
    const std::string& path,
    const std::vector<std::pair<Point, uint64_t>>& items) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  const std::string text = FormatCsvPoints(items);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_result = std::fclose(f);
  if (written != text.size() || close_result != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace kcpq
