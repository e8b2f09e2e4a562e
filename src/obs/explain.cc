#include "obs/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace kcpq {
namespace obs {

LevelPruningCounts& PruningProfile::At(int level) {
  if (level < 0) level = 0;
  if (static_cast<size_t>(level) >= levels_.size()) {
    levels_.resize(static_cast<size_t>(level) + 1);
  }
  return levels_[static_cast<size_t>(level)];
}

void PruningProfile::BoundUpdate(uint64_t node_pairs, double bound) {
  if (bound_samples_.size() >= kMaxBoundSamples) {
    // Decimate: keep every other interior sample, endpoints survive.
    std::vector<BoundSample> kept;
    kept.reserve(bound_samples_.size() / 2 + 2);
    kept.push_back(bound_samples_.front());
    for (size_t i = 1; i + 1 < bound_samples_.size(); i += 2) {
      kept.push_back(bound_samples_[i]);
    }
    kept.push_back(bound_samples_.back());
    bound_samples_ = std::move(kept);
  }
  bound_samples_.push_back({node_pairs, bound});
}

LevelPruningCounts PruningProfile::Totals() const {
  LevelPruningCounts t;
  for (const LevelPruningCounts& l : levels_) {
    t.considered += l.considered;
    t.pruned_ineq1 += l.pruned_ineq1;
    t.pruned_order += l.pruned_order;
    t.visited += l.visited;
    t.deferred += l.deferred;
  }
  return t;
}

namespace {

std::string Num(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string Sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Pad(const std::string& s, size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string Percent(uint64_t part, uint64_t whole) {
  if (whole == 0) return "n/a";
  return Fixed(100.0 * static_cast<double>(part) /
                   static_cast<double>(whole),
               1) +
         "%";
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 3) {
    v /= 1024.0;
    ++u;
  }
  return (u == 0 ? Num(bytes) : Fixed(v, 1)) + " " + units[u];
}

}  // namespace

std::string RenderExplainReport(const ExplainInputs& in,
                                const PruningProfile& profile) {
  std::ostringstream os;
  os << "EXPLAIN ANALYZE  "
     << (in.family.empty() ? "k-closest-pairs" : in.family)
     << "  algorithm=" << in.algorithm
     << "  leaf-kernel=plane-sweep  k=" << in.k << "\n";
  os << "  results: " << in.results_returned;
  if (in.result_max_distance >= 0.0) {
    os << "  (max distance " << Sci(in.result_max_distance) << ")";
  }
  if (!in.complete) {
    os << "  PARTIAL";
    if (!in.stop_cause.empty()) os << " [" << in.stop_cause << "]";
    if (in.quality_bound >= 0.0) {
      os << (in.bound_is_upper ? "  missing pairs all <= "
                               : "  missing pairs all >= ")
         << Sci(in.quality_bound);
    }
  }
  os << "\n";
  if (in.seconds >= 0.0) {
    os << "  time: " << Fixed(in.seconds * 1000.0, 3) << " ms\n";
  } else {
    os << "  time: n/a\n";
  }
  os << "\n";

  // Per-level pruning table, root first (leaves are level 0). The caption
  // names the active objective's prune rule.
  os << "Per-level pruning (" << in.prune_rule << ")\n";
  os << "  " << Pad("level", 5) << Pad("considered", 12)
     << Pad("pruned-ineq1", 14) << Pad("pruned-order", 14)
     << Pad("visited", 9) << Pad("deferred", 10) << Pad("pruned%", 9)
     << "\n";
  const auto& levels = profile.levels();
  for (size_t i = levels.size(); i-- > 0;) {
    const LevelPruningCounts& l = levels[i];
    if (l.considered == 0 && l.visited == 0 && l.pruned_ineq1 == 0 &&
        l.pruned_order == 0 && l.deferred == 0) {
      continue;
    }
    uint64_t pruned = l.pruned_ineq1 + l.pruned_order;
    os << "  " << Pad(Num(i), 5) << Pad(Num(l.considered), 12)
       << Pad(Num(l.pruned_ineq1), 14) << Pad(Num(l.pruned_order), 14)
       << Pad(Num(l.visited), 9) << Pad(Num(l.deferred), 10)
       << Pad(Percent(pruned, l.considered), 9) << "\n";
  }
  LevelPruningCounts t = profile.Totals();
  os << "  " << Pad("total", 5) << Pad(Num(t.considered), 12)
     << Pad(Num(t.pruned_ineq1), 14) << Pad(Num(t.pruned_order), 14)
     << Pad(Num(t.visited), 9) << Pad(Num(t.deferred), 10)
     << Pad(Percent(t.pruned_ineq1 + t.pruned_order, t.considered), 9)
     << "\n\n";

  os << "Engine totals\n";
  os << "  node pairs expanded:    " << Num(in.node_pairs_processed)
     << "\n";
  os << "  candidates generated:   " << Num(in.candidate_pairs_generated)
     << "\n";
  os << "  candidates pruned:      " << Num(in.candidate_pairs_pruned)
     << "\n";
  os << "  distance computations:  "
     << Num(in.point_distance_computations) << "\n";
  os << "  leaf pairs skipped:     " << Num(in.leaf_pairs_skipped)
     << " (plane-sweep early exit)\n";
  os << "  max heap size:          " << Num(in.max_heap_size) << "\n";
  os << "  node accesses:          " << Num(in.node_accesses) << "\n";
  os << "  disk accesses:          " << Num(in.disk_accesses) << "\n\n";

  os << "Buffer\n";
  uint64_t lookups = in.buffer_hits + in.buffer_misses;
  os << "  hits: " << Num(in.buffer_hits)
     << "  misses: " << Num(in.buffer_misses)
     << "  hit ratio: " << Percent(in.buffer_hits, lookups) << "\n\n";

  // Rendered only when speculation ran: default reports stay byte-stable.
  if (in.prefetch_issued > 0) {
    os << "Prefetch\n";
    os << "  issued: " << Num(in.prefetch_issued)
       << "  hits: " << Num(in.prefetch_hits)
       << "  wasted: " << Num(in.prefetch_wasted)
       << "  hit ratio: " << Percent(in.prefetch_hits, in.prefetch_issued);
    if (!in.prefetch_pop_order.empty()) {
      // "Wasted" means speculated-but-unclaimed relative to the objective's
      // own pop order — a farthest run speculating in descending MAXMAXDIST
      // is not mis-speculating just because the order isn't MINMINDIST.
      os << "  pop order: " << in.prefetch_pop_order;
    }
    if (in.prefetch_pending > 0) {
      os << "  PENDING: " << Num(in.prefetch_pending) << " (not drained)";
    }
    os << "\n\n";
  }

  // Rendered only when the query ran under the completion-driven
  // scheduler: blocking-path reports (and their goldens) stay byte-stable.
  if (!in.scheduler.empty()) {
    os << "Scheduler\n";
    os << "  mode: " << in.scheduler << "  io parks: " << Num(in.io_parks)
       << "  parked: " << Fixed(in.io_parked_seconds * 1e3, 1) << " ms\n\n";
  }

  // Rendered only when the native uring completion loop served the query:
  // pool-backed reports (and every pre-uring golden) stay byte-stable.
  if (in.io_backend == "uring") {
    os << "IO\n";
    os << "  backend: uring  buffers: "
       << (in.uring_fixed_buffers ? "fixed" : "copied") << "\n";
    // Where the reads went: page-cache-resident misses are copied inline
    // (StorageManager::TryReadPageNow); only the rest ride the ring.
    os << "  inline reads: " << Num(in.inline_reads)
       << "  ring reads: " << Num(in.uring_reads) << "\n";
    os << "  batches: " << Num(in.uring_batches)
       << "  cqe wakes: " << Num(in.uring_cqe_wakes)
       << "  sq-full stalls: " << Num(in.uring_sq_full_stalls) << "\n\n";
  } else if (!in.io_backend.empty() && !in.io_fallback_reason.empty()) {
    os << "IO\n";
    os << "  backend: " << in.io_backend
       << "  (fallback: " << in.io_fallback_reason << ")\n\n";
  }

  // Rendered only for a mirrored stack (>= 2 replicas): single-replica
  // reports — and their goldens — stay byte-stable.
  if (in.replicas > 1) {
    os << "Replication\n";
    os << "  replicas: " << Num(in.replicas) << "  hedging: "
       << (in.hedge_mode.empty() ? "off" : in.hedge_mode) << "\n";
    os << "  failover reads: " << Num(in.failover_reads)
       << "  read repairs: " << Num(in.read_repairs) << "\n";
    os << "  hedged reads: " << Num(in.hedged_reads)
       << "  hedge wins: " << Num(in.hedge_wins) << "  win ratio: "
       << Percent(in.hedge_wins, in.hedged_reads) << "\n\n";
  }

  os << "Memory\n";
  os << "  measured peak:          " << HumanBytes(in.measured_peak_bytes)
     << "\n";
  if (in.admission_estimate_bytes > 0) {
    os << "  admission estimate:     "
       << HumanBytes(in.admission_estimate_bytes);
    if (in.measured_peak_bytes > 0) {
      os << "  (x"
         << Fixed(static_cast<double>(in.admission_estimate_bytes) /
                      static_cast<double>(in.measured_peak_bytes),
                  2)
         << " of measured)";
    }
    os << "\n";
  } else {
    os << "  admission estimate:     n/a\n";
  }
  if (in.admission_correction > 0.0) {
    os << "  feedback correction:    x" << Fixed(in.admission_correction, 3)
       << "\n";
  }
  os << "\n";

  const auto& samples = profile.bound_samples();
  os << "Bound progression (T after each improvement";
  if (samples.size() >= PruningProfile::kMaxBoundSamples) {
    os << ", decimated";
  }
  os << ")\n";
  if (samples.empty()) {
    os << "  (bound never tightened below its initial value)\n";
  } else {
    for (const BoundSample& s : samples) {
      os << "  after " << Pad(Num(s.node_pairs), 8)
         << " node pairs: T = " << Sci(s.bound) << "\n";
    }
  }
  return os.str();
}

}  // namespace obs
}  // namespace kcpq
