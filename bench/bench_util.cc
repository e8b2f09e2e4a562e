#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include <sys/utsname.h>

#include "buffer/replacement_policy.h"
#include "storage/latency_storage.h"

namespace kcpq {
namespace bench {

double ReproScale() {
  static const double scale = [] {
    const char* env = std::getenv("REPRO_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

size_t Scaled(size_t n) {
  const double v = static_cast<double>(n) * ReproScale();
  return std::max<size_t>(16, static_cast<size_t>(v));
}

TreeStore::TreeStore(DataKind kind, size_t n, const Rect& workspace,
                     uint64_t seed, const RTreeOptions& options) {
  const std::vector<Point> points =
      kind == DataKind::kUniform ? GenerateUniform(n, workspace, seed)
                                 : GenerateSequoiaLike(n, workspace, seed);
  BufferManager build_buffer(&storage_, 0);
  auto created = RStarTree::Create(&build_buffer, options);
  KCPQ_CHECK_OK(created.status());
  auto tree = std::move(created).value();
  for (size_t i = 0; i < points.size(); ++i) {
    KCPQ_CHECK_OK(tree->Insert(points[i], i));
  }
  KCPQ_CHECK_OK(tree->Flush());
  meta_ = tree->meta_page();
  size_ = tree->size();
  height_ = tree->height();
}

TreeStore::View TreeStore::OpenView(size_t buffer_pages) {
  View view;
  view.buffer = std::make_unique<BufferManager>(&storage_, buffer_pages);
  auto opened = RStarTree::Open(view.buffer.get(), meta_);
  KCPQ_CHECK_OK(opened.status());
  view.tree = std::move(opened).value();
  return view;
}

TreeStore::View TreeStore::OpenParallelView(
    size_t buffer_pages, size_t shards,
    std::chrono::microseconds read_latency) {
  View view;
  StorageManager* storage = &storage_;
  if (read_latency.count() > 0) {
    view.slow_storage =
        std::make_unique<LatencyStorageManager>(&storage_, read_latency);
    storage = view.slow_storage.get();
  }
  view.buffer = std::make_unique<BufferManager>(
      storage, buffer_pages, shards, [] { return MakeLruPolicy(); });
  auto opened = RStarTree::Open(view.buffer.get(), meta_);
  KCPQ_CHECK_OK(opened.status());
  view.tree = std::move(opened).value();
  return view;
}

std::unique_ptr<TreeStore> MakeStore(DataKind kind, size_t n, double overlap,
                                     uint64_t seed) {
  return std::make_unique<TreeStore>(
      kind, n, ShiftedWorkspace(UnitWorkspace(), overlap), seed);
}

QueryOutcome RunCpq(TreeStore& p, TreeStore& q, const CpqOptions& options,
                    size_t buffer_pages_total) {
  TreeStore::View vp = p.OpenView(buffer_pages_total / 2);
  TreeStore::View vq = q.OpenView(buffer_pages_total / 2);
  QueryOutcome outcome;
  Timer timer;
  auto result = KClosestPairs(*vp.tree, *vq.tree, options, &outcome.stats);
  KCPQ_CHECK_OK(result.status());
  outcome.seconds = timer.ElapsedSeconds();
  if (!result.value().empty()) {
    outcome.result_distance = result.value().back().distance;
  }
  return outcome;
}

QueryOutcome RunHs(TreeStore& p, TreeStore& q, size_t k,
                   const HsOptions& options, size_t buffer_pages_total) {
  TreeStore::View vp = p.OpenView(buffer_pages_total / 2);
  TreeStore::View vq = q.OpenView(buffer_pages_total / 2);
  QueryOutcome outcome;
  Timer timer;
  auto result = HsKClosestPairs(*vp.tree, *vq.tree, k, options, &outcome.stats);
  KCPQ_CHECK_OK(result.status());
  outcome.seconds = timer.ElapsedSeconds();
  if (!result.value().empty()) {
    outcome.result_distance = result.value().back().distance;
  }
  return outcome;
}

void PrintFigureHeader(const std::string& figure,
                       const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("(Corral et al., SIGMOD 2000; REPRO_SCALE=%.3g)\n", ReproScale());
  std::printf("==============================================================\n");
}

namespace {

// Escapes a string for embedding in a JSON document.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Emits a cell as a bare JSON number when it parses fully as one (so
// downstream tooling can chart it), as null when that number is not finite
// (JSON has no inf or nan), otherwise as a quoted string.
std::string JsonCell(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0') {
      return std::isfinite(v) ? cell : "null";
    }
  }
  std::string quoted;
  quoted.push_back('"');
  quoted.append(JsonEscape(cell));
  quoted.push_back('"');
  return quoted;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

obs::MetricsSnapshot CaptureMetrics() {
  return obs::MetricsRegistry::Global().Snapshot();
}

void BenchJson::AddScalar(const std::string& key, double value) {
  scalars_.emplace_back(key, value);
}

void BenchJson::AddHistogramStats(const std::string& key,
                                  const std::string& metric_name) {
  const obs::MetricsSnapshot delta =
      obs::MetricsSnapshot::Delta(metrics_baseline_, CaptureMetrics());
  const obs::MetricsSnapshot::HistogramValue* h =
      delta.FindHistogram(metric_name);
  if (h == nullptr || h->count == 0) return;

  // Quantile from the cumulative bucket counts, linearly interpolated
  // within the winning bucket. The +inf bucket has no width; report its
  // lower edge (the last finite bound).
  const auto quantile = [h](double q) {
    const uint64_t rank = static_cast<uint64_t>(
        q * static_cast<double>(h->count - 1)) + 1;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h->bucket_counts.size(); ++i) {
      const uint64_t in_bucket = h->bucket_counts[i];
      if (cumulative + in_bucket < rank) {
        cumulative += in_bucket;
        continue;
      }
      const double lo = i == 0 ? 0.0 : h->bounds[i - 1];
      if (i >= h->bounds.size()) return lo;  // +inf bucket
      const double hi = h->bounds[i];
      const double frac = in_bucket == 0
                              ? 0.0
                              : static_cast<double>(rank - cumulative) /
                                    static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    return h->bounds.empty() ? 0.0 : h->bounds.back();
  };

  AddScalar(key + "_count", static_cast<double>(h->count));
  AddScalar(key + "_mean", h->sum / static_cast<double>(h->count));
  AddScalar(key + "_p50", quantile(0.50));
  AddScalar(key + "_p99", quantile(0.99));
}

void BenchJson::AddTable(const std::string& key, const Table& table) {
  tables_.emplace_back(key, table);
}

namespace {

/// The machine a BENCH file was measured on: cores, kernel, compiler and
/// build type, as one JSON object.
std::string HostJson() {
  utsname uts{};
  const std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
#if defined(__clang__)
  const std::string compiler = "clang-" + std::to_string(__clang_major__) +
                               "." + std::to_string(__clang_minor__) + "." +
                               std::to_string(__clang_patchlevel__);
#else
  const std::string compiler = "gcc-" + std::to_string(__GNUC__) + "." +
                               std::to_string(__GNUC_MINOR__) + "." +
                               std::to_string(__GNUC_PATCHLEVEL__);
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel\": \"" << JsonEscape(kernel) << "\", \"compiler\": \""
      << JsonEscape(compiler) << "\", \"build_type\": \""
      << JsonEscape(KCPQ_BENCH_BUILD_TYPE) << "\"}";
  return out.str();
}

}  // namespace

void BenchJson::Write() const {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << JsonEscape(name_) << "\",\n"
      << "  \"host\": " << HostJson() << ",\n"
      << "  \"repro_scale\": " << FormatDouble(ReproScale()) << ",\n"
      << "  \"scalars\": {";
  for (size_t i = 0; i < scalars_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(scalars_[i].first)
        << "\": " << FormatDouble(scalars_[i].second);
  }
  out << (scalars_.empty() ? "" : "\n  ") << "},\n  \"tables\": {";
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = tables_[t].second;
    out << (t == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(tables_[t].first)
        << "\": {\n      \"header\": [";
    for (size_t c = 0; c < table.header().size(); ++c) {
      out << (c == 0 ? "" : ", ") << "\"" << JsonEscape(table.header()[c])
          << "\"";
    }
    out << "],\n      \"rows\": [";
    for (size_t r = 0; r < table.rows().size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "        [";
      const auto& row = table.rows()[r];
      for (size_t c = 0; c < row.size(); ++c) {
        out << (c == 0 ? "" : ", ") << JsonCell(row[c]);
      }
      out << "]";
    }
    out << (table.rows().empty() ? "" : "\n      ") << "]\n    }";
  }
  out << (tables_.empty() ? "" : "\n  ") << "},\n  \"metrics\": "
      << obs::MetricsSnapshot::Delta(metrics_baseline_, CaptureMetrics())
             .ToJson()
      << "\n}\n";

  std::string dir;
  if (const char* env = std::getenv("BENCH_DIR"); env != nullptr && *env) {
    dir = std::string(env) + "/";
  }
  const std::string path = dir + "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchJson: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  const std::string body = out.str();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace kcpq
