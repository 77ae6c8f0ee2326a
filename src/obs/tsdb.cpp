#include "obs/tsdb.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/histogram.hpp"
#include "obs/prom_parser.hpp"
#include "obs/snapshot.hpp"

namespace topfull::obs {

namespace {

/// Round-trip-exact formatting for stored sample values: 17 significant
/// digits reconstruct any finite double bit-exactly, which the
/// live-vs-replay equality contract depends on. JSON has no literal for
/// non-finite values, so those become strings ("inf"/"-inf"/"nan") that
/// TsdbFromJson maps back.
std::string NumExact(double v) {
  if (!std::isfinite(v)) {
    if (std::isnan(v)) return "\"nan\"";
    return v > 0 ? "\"inf\"" : "\"-inf\"";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool IsCumulative(MetricType type) { return type == MetricType::kCounter; }

}  // namespace

Tsdb::Tsdb(TsdbOptions options) : options_(options) {
  if (options_.retention == 0) options_.retention = 1;
  if (options_.step_s <= 0.0) options_.step_s = 1.0;
}

Tsdb::Series& Tsdb::GetSeries(const std::string& name, const Labels& labels,
                              MetricType type) {
  const auto key = std::make_pair(name, MetricsRegistry::LabelKey(labels));
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series{}).first;
    it->second.labels = labels;
    it->second.type = type;
    it->second.ring.reserve(options_.retention);
  }
  return it->second;
}

bool Tsdb::AppendLocked(Series& series, double t_s, double value) {
  if (series.size > 0) {
    const std::size_t tail =
        (series.head + series.size - 1) % options_.retention;
    const TsdbSample& last = series.ring[tail];
    if (t_s <= last.t_s) {
      ++out_of_order_;
      return false;
    }
    if (IsCumulative(series.type) && value < last.value) ++series.resets;
  }
  const TsdbSample sample{t_s, value};
  if (series.ring.size() < options_.retention) {
    series.ring.push_back(sample);
    ++series.size;
  } else if (series.size < options_.retention) {
    // The ring is at capacity but logically not full (cannot happen with
    // append-only growth, kept for safety).
    series.ring[(series.head + series.size) % options_.retention] = sample;
    ++series.size;
  } else {
    series.ring[series.head] = sample;  // overwrite the oldest
    series.head = (series.head + 1) % options_.retention;
    ++evicted_;
  }
  ++appended_;
  return true;
}

bool Tsdb::Append(const std::string& name, const Labels& labels,
                  MetricType type, double t_s, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(GetSeries(name, labels, type), t_s, value);
}

void Tsdb::AppendSnapshot(const MetricsSnapshot& snapshot, double t_s) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const MetricsSnapshot::Family& family : snapshot.families) {
    for (const MetricsSnapshot::Cell& cell : family.cells) {
      switch (family.type) {
        case MetricType::kCounter:
          AppendLocked(GetSeries(family.name, cell.labels, MetricType::kCounter),
                       t_s, static_cast<double>(cell.counter));
          break;
        case MetricType::kGauge:
          AppendLocked(GetSeries(family.name, cell.labels, MetricType::kGauge),
                       t_s, cell.gauge);
          break;
        case MetricType::kHistogram: {
          if (!cell.histogram.has_value()) break;
          const Histogram& h = *cell.histogram;
          // Mirror the text exposition exactly: cumulative buckets with
          // empty ones elided, `+Inf` always present, then _sum/_count.
          // All derived series are cumulative, hence stored as counters.
          std::uint64_t cumulative = 0;
          Labels bucket_labels = cell.labels;
          bucket_labels.emplace_back("le", "");
          for (int b = 0; b + 1 < h.NumBuckets(); ++b) {
            const std::uint64_t in_bucket = h.BucketCount(b);
            cumulative += in_bucket;
            if (in_bucket == 0) continue;
            bucket_labels.back().second = Num(h.UpperBound(b));
            AppendLocked(GetSeries(family.name + "_bucket", bucket_labels,
                                   MetricType::kCounter),
                         t_s, static_cast<double>(cumulative));
          }
          bucket_labels.back().second = "+Inf";
          AppendLocked(GetSeries(family.name + "_bucket", bucket_labels,
                                 MetricType::kCounter),
                       t_s, static_cast<double>(h.count()));
          AppendLocked(GetSeries(family.name + "_sum", cell.labels,
                                 MetricType::kCounter),
                       t_s, h.sum());
          AppendLocked(GetSeries(family.name + "_count", cell.labels,
                                 MetricType::kCounter),
                       t_s, static_cast<double>(h.count()));
          break;
        }
      }
    }
  }
}

void Tsdb::AppendScrape(const PromScrape& scrape, double t_s) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PromFamily& family : scrape.families) {
    for (const PromSample& sample : family.samples) {
      // Histogram families arrive pre-flattened; their suffixed series
      // (_bucket/_sum/_count) are cumulative and behave as counters.
      const MetricType type = family.type == MetricType::kGauge
                                  ? MetricType::kGauge
                                  : MetricType::kCounter;
      AppendLocked(GetSeries(sample.name, sample.labels, type), t_s,
                   sample.value);
    }
  }
}

SeriesSnapshot Tsdb::CopyOut(const std::pair<std::string, std::string>& key,
                             const Series& series) const {
  SeriesSnapshot out;
  out.name = key.first;
  out.label_key = key.second;
  out.labels = series.labels;
  out.type = series.type;
  out.samples.reserve(series.size);
  for (std::size_t i = 0; i < series.size; ++i) {
    out.samples.push_back(series.ring[(series.head + i) % options_.retention]);
  }
  return out;
}

std::vector<SeriesSnapshot> Tsdb::Match(
    const std::string& name,
    const std::function<bool(const Labels&)>& pred) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesSnapshot> out;
  // Series sharing a name are contiguous in the sorted map.
  for (auto it = series_.lower_bound({name, std::string()});
       it != series_.end() && it->first.first == name; ++it) {
    if (pred && !pred(it->second.labels)) continue;
    out.push_back(CopyOut(it->first, it->second));
  }
  return out;
}

std::vector<SeriesSnapshot> Tsdb::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) out.push_back(CopyOut(key, series));
  return out;
}

double Tsdb::LatestTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  double latest = 0.0;
  for (const auto& [key, series] : series_) {
    if (series.size == 0) continue;
    const std::size_t tail =
        (series.head + series.size - 1) % options_.retention;
    latest = std::max(latest, series.ring[tail].t_s);
  }
  return latest;
}

TsdbStats Tsdb::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TsdbStats stats;
  stats.series = series_.size();
  stats.appended = appended_;
  stats.evicted = evicted_;
  stats.out_of_order = out_of_order_;
  for (const auto& [key, series] : series_) stats.counter_resets += series.resets;
  return stats;
}

std::string TsdbJson(const Tsdb& tsdb) {
  const TsdbStats stats = tsdb.stats();
  std::string out = "{\"schema\":\"topfull.tsdb.v1\",\"step_s\":" +
                    Num(tsdb.options().step_s) + ",\"retention\":" +
                    std::to_string(tsdb.options().retention) +
                    ",\"stats\":{\"series\":" + std::to_string(stats.series) +
                    ",\"appended\":" + std::to_string(stats.appended) +
                    ",\"evicted\":" + std::to_string(stats.evicted) +
                    ",\"out_of_order\":" + std::to_string(stats.out_of_order) +
                    ",\"counter_resets\":" + std::to_string(stats.counter_resets) +
                    "},\"series\":[";
  bool first_series = true;
  for (const SeriesSnapshot& series : tsdb.All()) {
    if (!first_series) out += ",";
    first_series = false;
    out += "\n{\"name\":\"";
    out += JsonEscape(series.name);
    out += "\",\"type\":\"";
    out += MetricTypeName(series.type);
    out += "\",\"labels\":{";
    for (std::size_t i = 0; i < series.labels.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      out += JsonEscape(series.labels[i].first);
      out += "\":\"";
      out += JsonEscape(series.labels[i].second);
      out += "\"";
    }
    out += "},\"samples\":[";
    for (std::size_t i = 0; i < series.samples.size(); ++i) {
      if (i > 0) out += ",";
      out += "[";
      out += NumExact(series.samples[i].t_s);
      out += ",";
      out += NumExact(series.samples[i].value);
      out += "]";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace topfull::obs
