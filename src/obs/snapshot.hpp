// Immutable metric snapshots: the read side of the live telemetry plane.
//
// The registry (metrics_registry.hpp) is deliberately not thread-safe: the
// simulation updates it with plain writes on its own thread. To observe it
// live without perturbing that hot path, the *owning* thread captures an
// immutable MetricsSnapshot at a quiescent point (between RunUntil chunks,
// while every shard's workers are parked at the barrier) and publishes it
// through a SnapshotBoard, an RcuCell (common/rcu_cell.hpp, which holds the
// memory-ordering argument; DESIGN.md §12). Readers (the HTTP
// observability server) copy one shared_ptr and then walk a structure
// nobody mutates, so scrapes never take a lock and never touch live
// registry storage.
//
// PromTextFromSnapshot renders the exact same text-exposition bytes as the
// offline Prometheus dump — WritePrometheusText is implemented on top of
// it — so a live `/metrics` scrape at end of run equals the `.metrics.prom`
// artifact byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rcu_cell.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"

namespace topfull::obs {

/// Per-shard engine/scheduler state captured alongside the metric families
/// (rendered by `/runs`, not by `/metrics`).
struct ShardRunState {
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t pending_events = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t mailbox_depth_hwm = 0;
  double busy_s = 0.0;
  double blocked_s = 0.0;
};

/// Run-level progress captured at publish time.
struct RunState {
  std::string label;
  bool finished = false;
  double sim_time_s = 0.0;
  double duration_s = 0.0;
  /// Window rounds completed (sharded runs; 0 for the unsharded engine).
  std::uint64_t rounds = 0;
  std::uint64_t slo_events = 0;
  /// SLO start/onset events without a matching end/clear yet.
  std::uint64_t active_slo_events = 0;
  std::vector<std::string> active_slo_subjects;
  std::vector<ShardRunState> shards;
};

/// Immutable flattened copy of one or more registries. Families are sorted
/// by name, cells by canonical label key — the same deterministic order the
/// registry itself iterates in.
struct MetricsSnapshot {
  struct Cell {
    Labels labels;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    std::optional<Histogram> histogram;  // kHistogram families only
  };

  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Cell> cells;
  };

  std::uint64_t version = 0;
  RunState run;
  std::vector<Family> families;

  const Family* FindFamily(const std::string& name) const;
  const Cell* FindCell(const std::string& name, const Labels& labels) const;
};

/// Accumulates cells from registries and ad-hoc values, then freezes them
/// into a sorted immutable snapshot. Single-use: Finish() moves the state
/// out. Adding the same (family, label set) twice overwrites the cell —
/// callers keep cells distinct (sharded captures add a shard="k" label).
class SnapshotBuilder {
 public:
  /// Copies every family/cell of `registry`, appending `extra` labels to
  /// each cell (e.g. {{"shard", "2"}}; pass {} for none).
  void AddRegistry(const MetricsRegistry& registry, const Labels& extra = {});

  void AddCounter(const std::string& name, const std::string& help,
                  Labels labels, std::uint64_t value);
  void AddGauge(const std::string& name, const std::string& help,
                Labels labels, double value);
  void AddHistogram(const std::string& name, const std::string& help,
                    Labels labels, const Histogram& histogram);

  std::shared_ptr<const MetricsSnapshot> Finish(RunState run = {},
                                                std::uint64_t version = 0);

 private:
  struct FamilyBuild {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::map<std::string, MetricsSnapshot::Cell> cells;  // by canonical key
  };

  MetricsSnapshot::Cell* GetCell(const std::string& name,
                                 const std::string& help, MetricType type,
                                 Labels labels);

  std::map<std::string, FamilyBuild> families_;
};

/// Publish/read exchange between the snapshot producer (the sim-owning
/// thread — exactly one publisher) and any number of reader threads: an
/// RcuCell that starts holding an empty snapshot, so readers never observe
/// null.
class SnapshotBoard : public RcuCell<MetricsSnapshot> {
 public:
  SnapshotBoard() : RcuCell(std::make_shared<const MetricsSnapshot>()) {}
};

/// Renders a snapshot in Prometheus text exposition format: families in
/// name order, a # HELP/# TYPE pair per family, histogram families as
/// cumulative `_bucket{le=...}` series (empty buckets elided) plus `_sum`
/// and `_count`.
std::string PromTextFromSnapshot(const MetricsSnapshot& snapshot);

/// Registry convenience wrapper around PromTextFromSnapshot (the offline
/// export path and tests use this).
std::string PromTextFromRegistry(const MetricsRegistry& registry);

/// `/snapshot.json`: every family/cell as a JSON document (histograms as
/// count/sum/min/max/mean/p50/p90/p99 summaries).
std::string SnapshotJson(const MetricsSnapshot& snapshot);

/// `/runs`: run-state JSON (label, progress, SLO events, per-shard stats).
std::string RunStateJson(const MetricsSnapshot& snapshot);

/// Prometheus label-value escaping (backslash, double-quote, newline).
std::string PromEscapeLabel(const std::string& s);
/// Prometheus HELP-text escaping (backslash, newline).
std::string PromEscapeHelp(const std::string& s);
/// Deterministic, locale-independent number formatting ("%.10g"), the one
/// shared by every text and JSON writer. Non-finite values print as C does
/// ("inf", "nan"); writers that need another spelling wrap this.
std::string Num(double v);
/// Decimal rendering of an unsigned count.
std::string U64(std::uint64_t v);
/// JSON string escaping (exposed for tests).
std::string JsonEscape(const std::string& s);

}  // namespace topfull::obs
