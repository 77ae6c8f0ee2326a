#include "obs/tsdb_plane.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "obs/json.hpp"
#include "obs/query.hpp"
#include "obs/snapshot.hpp"
#include "sim/app.hpp"

namespace topfull::obs {

/// Chained window observer: forwards to the previously installed observer
/// first (SloMonitor events precede same-timestamp TSDB activity), then
/// appends the window to the store. Registry families only: the live-only
/// wall-clock families (profiler, sharded scheduler) never enter the
/// store, so its contents depend on simulation state alone.
struct TsdbPlane::Feeder : sim::WindowObserver {
  Tsdb* tsdb = nullptr;
  const MetricsRegistry* registry = nullptr;
  sim::WindowObserver* next = nullptr;
  Labels extra;

  void OnWindow(const sim::Snapshot& snapshot) override {
    if (next != nullptr) next->OnWindow(snapshot);
    SnapshotBuilder builder;
    builder.AddRegistry(*registry, extra);
    tsdb->AppendSnapshot(*builder.Finish(), snapshot.t_end_s);
  }
};

TsdbPlane::TsdbPlane(TsdbOptions options)
    : tsdb_(options), rules_(&tsdb_) {}

TsdbPlane::~TsdbPlane() = default;

void TsdbPlane::Attach(sim::Application& app, int shard, int num_shards) {
  auto feeder = std::make_unique<Feeder>();
  feeder->tsdb = &tsdb_;
  feeder->registry = &app.metrics_registry();
  feeder->next = app.metrics().window_observer();
  if (num_shards > 1) {
    feeder->extra.emplace_back("shard", std::to_string(shard));
  }
  app.metrics().SetWindowObserver(feeder.get());
  feeders_.push_back(std::move(feeder));
}

void TsdbPlane::EvaluateRulesUpTo(double t_s) {
  EvaluateBoundaries(t_s, /*inclusive=*/false);
}

void TsdbPlane::FinishRules(double t_s) {
  EvaluateBoundaries(t_s, /*inclusive=*/true);
}

void TsdbPlane::EvaluateBoundaries(double limit_s, bool inclusive) {
  const double step = tsdb_.options().step_s;
  if (step <= 0.0) return;
  const double eps = step * 1e-9;
  while (true) {
    const double boundary = static_cast<double>(next_boundary_) * step;
    if (inclusive ? boundary > limit_s + eps : boundary >= limit_s - eps) {
      break;
    }
    rules_.Evaluate(boundary);
    ++next_boundary_;
  }
}

namespace {

bool WriteTextFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

}  // namespace

bool WriteTsdbJson(const Tsdb& tsdb, const std::string& path) {
  return WriteTextFile(path, TsdbJson(tsdb));
}

bool WriteAlertsJson(const RuleEngine& rules, const std::string& path) {
  return WriteTextFile(path, rules.AlertsJson());
}

std::unique_ptr<Tsdb> TsdbFromJson(const std::string& text,
                                   std::string* error) {
  const auto fail = [error](const std::string& why) -> std::unique_ptr<Tsdb> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  JsonValue doc;
  if (!ParseJson(text, &doc, error)) return nullptr;
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != "topfull.tsdb.v1") {
    return fail("not a topfull.tsdb.v1 document");
  }
  TsdbOptions options;
  if (const JsonValue* step = doc.Find("step_s");
      step != nullptr && step->IsNumber()) {
    options.step_s = step->number;
  }
  if (const JsonValue* retention = doc.Find("retention");
      retention != nullptr && retention->IsNumber()) {
    options.retention = static_cast<std::size_t>(retention->number);
  }
  auto tsdb = std::make_unique<Tsdb>(options);

  const JsonValue* series_list = doc.Find("series");
  if (series_list == nullptr || !series_list->IsArray()) {
    return fail("missing series array");
  }
  for (const JsonValue& series : series_list->array) {
    const JsonValue* name = series.Find("name");
    const JsonValue* type_name = series.Find("type");
    const JsonValue* labels_obj = series.Find("labels");
    const JsonValue* samples = series.Find("samples");
    if (name == nullptr || !name->IsString() || type_name == nullptr ||
        !type_name->IsString() || labels_obj == nullptr ||
        !labels_obj->IsObject() || samples == nullptr ||
        !samples->IsArray()) {
      return fail("malformed series entry");
    }
    MetricType type = MetricType::kGauge;
    if (type_name->string == "counter") {
      type = MetricType::kCounter;
    } else if (type_name->string == "gauge") {
      type = MetricType::kGauge;
    } else if (type_name->string == "histogram") {
      type = MetricType::kHistogram;
    } else {
      return fail("unknown series type '" + type_name->string + "'");
    }
    Labels labels;
    for (const auto& [key, value] : labels_obj->object) {
      if (!value.IsString()) return fail("non-string label value");
      labels.emplace_back(key, value.string);
    }
    for (const JsonValue& sample : samples->array) {
      if (!sample.IsArray() || sample.array.size() != 2 ||
          !sample.array[0].IsNumber()) {
        return fail("malformed sample (want [t, v])");
      }
      // Non-finite values round-trip as strings (JSON has no inf/nan).
      double value = 0.0;
      if (sample.array[1].IsNumber()) {
        value = sample.array[1].number;
      } else if (sample.array[1].IsString() && sample.array[1].string == "inf") {
        value = std::numeric_limits<double>::infinity();
      } else if (sample.array[1].IsString() &&
                 sample.array[1].string == "-inf") {
        value = -std::numeric_limits<double>::infinity();
      } else if (sample.array[1].IsString() && sample.array[1].string == "nan") {
        value = std::numeric_limits<double>::quiet_NaN();
      } else {
        return fail("malformed sample (want [t, v])");
      }
      tsdb->Append(name->string, labels, type, sample.array[0].number, value);
    }
  }
  return tsdb;
}

namespace {

HttpResponse QueryError(int status, const std::string& message) {
  QueryResult result;
  result.ok = false;
  result.error = message;
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = QueryResultJson(result);
  return response;
}

/// Full-token strtod; false on partial or empty input.
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

}  // namespace

HttpResponse HandleQueryRequest(const HttpRequest& request, const Tsdb& tsdb) {
  std::string expr;
  std::string time_text, start_text, end_text, step_text;
  for (const auto& [key, value] : ParseQueryParams(request.target)) {
    if (key == "expr" || key == "query") expr = value;
    if (key == "time") time_text = value;
    if (key == "start") start_text = value;
    if (key == "end") end_text = value;
    if (key == "step") step_text = value;
  }
  if (expr.empty()) return QueryError(400, "missing expr parameter");

  QueryResult result;
  const bool range = !start_text.empty() || !end_text.empty() ||
                     !step_text.empty();
  if (range) {
    double start = 0.0, end = 0.0, step = 0.0;
    if (!ParseDouble(start_text, &start) || !ParseDouble(end_text, &end) ||
        !ParseDouble(step_text, &step)) {
      return QueryError(400, "range query needs numeric start, end and step");
    }
    if (step <= 0.0) return QueryError(400, "step must be positive");
    if (end < start) return QueryError(400, "end precedes start");
    result = EvalRange(tsdb, expr, start, end, step);
  } else {
    double t = tsdb.LatestTime();
    if (!time_text.empty() && !ParseDouble(time_text, &t)) {
      return QueryError(400, "bad time parameter");
    }
    result = EvalInstant(tsdb, expr, t);
  }

  HttpResponse response;
  response.status = result.ok ? 200 : 400;
  response.content_type = "application/json";
  response.body = QueryResultJson(result);
  return response;
}

}  // namespace topfull::obs
