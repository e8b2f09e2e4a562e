#include "obs/query_registry.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace kcpq {
namespace obs {

namespace {

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
  out += "\"";
  return out;
}

// NaN/Inf have no JSON literal; "no bound yet" renders as null.
std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendLiveJson(const QueryObservation& o, std::string* out) {
  std::ostringstream os;
  os << "{\"id\":" << o.id << ",\"state\":\"live\""
     << ",\"kind\":" << JsonStr(o.kind) << ",\"family\":" << JsonStr(o.family)
     << ",\"scheduler\":" << JsonStr(o.scheduler) << ",\"k\":" << o.k
     << ",\"elapsed_seconds\":" << JsonDouble(o.elapsed_seconds())
     << ",\"node_accesses\":"
     << o.node_accesses.load(std::memory_order_relaxed)
     << ",\"engine_bytes\":" << o.engine_bytes.load(std::memory_order_relaxed)
     << ",\"pages_read\":" << o.pages_read.load(std::memory_order_relaxed)
     << ",\"io_parks\":" << o.io_parks.load(std::memory_order_relaxed)
     << ",\"bound\":" << JsonDouble(o.bound()) << ",\"bound_updates\":"
     << o.bound_updates.load(std::memory_order_relaxed) << "}";
  *out += os.str();
}

}  // namespace

std::string SummaryJson(const QuerySummary& s, bool include_pruning) {
  std::ostringstream os;
  os << "{\"id\":" << s.id << ",\"state\":\"done\""
     << ",\"kind\":" << JsonStr(s.kind) << ",\"family\":" << JsonStr(s.family)
     << ",\"scheduler\":" << JsonStr(s.scheduler)
     << ",\"outcome\":" << JsonStr(s.outcome)
     << ",\"seconds\":" << JsonDouble(s.seconds) << ",\"k\":" << s.k
     << ",\"pairs\":" << s.pairs << ",\"node_accesses\":" << s.node_accesses
     << ",\"disk_accesses\":" << s.disk_accesses
     << ",\"pages_read\":" << s.pages_read << ",\"io_parks\":" << s.io_parks
     << ",\"bound\":" << JsonDouble(s.certified_bound)
     << ",\"bound_is_upper\":" << (s.bound_is_upper ? "true" : "false")
     << ",\"exact\":" << (s.exact ? "true" : "false")
     << ",\"stop_cause\":" << JsonStr(s.stop_cause)
     << ",\"admission_estimate_bytes\":" << s.admission_estimate_bytes
     << ",\"peak_memory_bytes\":" << s.peak_memory_bytes
     << ",\"has_trace\":" << (s.trace_json.empty() ? "false" : "true")
     << ",\"has_explain\":" << (s.explain_text.empty() ? "false" : "true");
  if (include_pruning && s.has_pruning) {
    os << ",\"pruning\":{\"considered\":" << s.pruning.considered
       << ",\"pruned_ineq1\":" << s.pruning.pruned_ineq1
       << ",\"pruned_order\":" << s.pruning.pruned_order
       << ",\"visited\":" << s.pruning.visited
       << ",\"deferred\":" << s.pruning.deferred << "}";
  }
  os << "}";
  return os.str();
}

QueryRegistry::QueryRegistry(size_t recorder_capacity)
    : capacity_(recorder_capacity == 0 ? 1 : recorder_capacity) {
  done_.reserve(capacity_ < 1024 ? capacity_ : 1024);
}

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* instance = new QueryRegistry();
  return *instance;
}

std::shared_ptr<QueryObservation> QueryRegistry::Register(
    const char* kind, const char* family, const char* scheduler, uint64_t k) {
  auto obs = std::make_shared<QueryObservation>();
  obs->kind = kind;
  obs->family = family;
  obs->scheduler = scheduler;
  obs->k = k;
  obs->start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  obs->id = next_id_++;
  live_.emplace(obs->id, obs);
  return obs;
}

void QueryRegistry::Complete(const std::shared_ptr<QueryObservation>& obs,
                             QuerySummary summary) {
  if (obs == nullptr) return;
  summary.id = obs->id;
  if (summary.pages_read == 0) {
    summary.pages_read = obs->pages_read.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(obs->id);
  if (done_.size() < capacity_) {
    done_.push_back(std::move(summary));
  } else {
    done_[done_next_] = std::move(summary);
    done_next_ = (done_next_ + 1) % capacity_;
  }
  ++done_total_;
}

uint64_t QueryRegistry::Record(QuerySummary summary) {
  std::lock_guard<std::mutex> lock(mu_);
  summary.id = next_id_++;
  const uint64_t id = summary.id;
  if (done_.size() < capacity_) {
    done_.push_back(std::move(summary));
  } else {
    done_[done_next_] = std::move(summary);
    done_next_ = (done_next_ + 1) % capacity_;
  }
  ++done_total_;
  return id;
}

std::string QueryRegistry::QueriesJson(const std::string& state) const {
  const bool want_live = state == "live" || state == "all" || state.empty();
  const bool want_done = state == "done" || state == "all";
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"queries\":[";
  bool first = true;
  if (want_live) {
    for (const auto& [id, obs] : live_) {
      if (!first) out += ",";
      first = false;
      AppendLiveJson(*obs, &out);
    }
  }
  if (want_done) {
    // Oldest -> newest; when the ring has wrapped, done_next_ is oldest.
    for (size_t i = 0; i < done_.size(); ++i) {
      const QuerySummary& s = done_[(done_next_ + i) % done_.size()];
      if (!first) out += ",";
      first = false;
      out += SummaryJson(s, /*include_pruning=*/false);
    }
  }
  out += "],\"live\":" + std::to_string(live_.size()) +
         ",\"done_total\":" + std::to_string(done_total_) + "}";
  return out;
}

bool QueryRegistry::FindSummary(uint64_t id, QuerySummary* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const QuerySummary& s : done_) {
    if (s.id == id) {
      if (out != nullptr) *out = s;
      return true;
    }
  }
  return false;
}

size_t QueryRegistry::live_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

size_t QueryRegistry::done_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

void QueryRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  live_.clear();
  done_.clear();
  done_next_ = 0;
  done_total_ = 0;
}

}  // namespace obs
}  // namespace kcpq
