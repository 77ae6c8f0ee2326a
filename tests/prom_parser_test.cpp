// Tests for the strict Prometheus text parser: emitter round trips, label
// unescaping, value-lexeme preservation, and the malformed-line corpus
// with line-numbered rejections.
#include "obs/prom_parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "obs/snapshot.hpp"

namespace topfull {
namespace {

std::string ReadDataFile(const std::string& name) {
  const std::string path = std::string(TOPFULL_PROM_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The emitter and the parser are inverses: any exposition the registry
// produces must survive parse + re-render byte for byte. This is the
// contract the out-of-process TSDB feed rests on.
TEST(PromParserTest, RegistryExpositionRoundTripsByteExactly) {
  obs::MetricsRegistry registry;
  registry.GetCounter("rt_req_total", "Requests \"served\".", {{"api", "a"}})
      ->Inc(3);
  registry.GetCounter("rt_req_total", "Requests \"served\".", {{"api", "b"}})
      ->Inc(7);
  registry.GetGauge("rt_depth", "Queue\ndepth.", {{"svc", "front"}})->Set(2.5);
  // Label values exercising every escape the emitter produces.
  registry.GetGauge("rt_odd", "Odd labels.", {{"q", "a\\b\"c\nd"}})->Set(1.0);
  auto* histogram =
      registry.GetHistogram("rt_latency_ms", "Latency.", {{"api", "a"}},
                            obs::HistogramConfig{0.1, 1e4, 8});
  histogram->Record(0.5);
  histogram->Record(12.0);
  histogram->Record(12.0);
  histogram->Record(9e9);

  const std::string text = obs::PromTextFromRegistry(registry);
  obs::PromScrape scrape;
  std::string error;
  ASSERT_TRUE(obs::ParsePromText(text, &scrape, &error)) << error;
  EXPECT_EQ(obs::PromTextFromScrape(scrape), text);
}

TEST(PromParserTest, ParsesStructureAndUnescapesLabels) {
  const std::string text =
      "# HELP req_total Total \\\"requests\\\" seen\\nso far.\n"
      "# TYPE req_total counter\n"
      "req_total{api=\"checkout\",q=\"a\\\\b\\\"c\\nd\"} 41 1700000000123\n"
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"0.5\"} 1\n"
      "lat_bucket{le=\"+Inf\"} 2\n"
      "lat_sum 3.5\n"
      "lat_count 2\n";
  obs::PromScrape scrape;
  std::string error;
  ASSERT_TRUE(obs::ParsePromText(text, &scrape, &error)) << error;
  ASSERT_EQ(scrape.families.size(), 2u);

  const obs::PromFamily* req = scrape.FindFamily("req_total");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->type, obs::MetricType::kCounter);
  EXPECT_TRUE(req->has_help);
  EXPECT_EQ(req->help, "Total \\\"requests\\\" seen\nso far.");
  ASSERT_EQ(req->samples.size(), 1u);
  const obs::PromSample& sample = req->samples[0];
  ASSERT_EQ(sample.labels.size(), 2u);
  EXPECT_EQ(sample.labels[0].second, "checkout");
  EXPECT_EQ(sample.labels[1].second, "a\\b\"c\nd");
  EXPECT_EQ(sample.value, 41.0);
  ASSERT_TRUE(sample.has_timestamp);
  EXPECT_EQ(sample.timestamp_ms, 1700000000123);

  // Histogram suffix resolution: all four samples land in one family.
  const obs::PromFamily* lat = scrape.FindFamily("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->type, obs::MetricType::kHistogram);
  EXPECT_EQ(lat->samples.size(), 4u);
  EXPECT_EQ(lat->samples[0].name, "lat_bucket");
  EXPECT_EQ(lat->samples[3].name, "lat_count");
}

TEST(PromParserTest, PreservesValueLexemesAndNonFiniteForms) {
  const std::string text =
      "# TYPE v gauge\n"
      "v{k=\"a\"} 1e-09\n"
      "v{k=\"b\"} NaN\n"
      "v{k=\"c\"} +Inf\n"
      "v{k=\"d\"} -Inf\n";
  obs::PromScrape scrape;
  std::string error;
  ASSERT_TRUE(obs::ParsePromText(text, &scrape, &error)) << error;
  const obs::PromFamily* family = scrape.FindFamily("v");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->samples.size(), 4u);
  EXPECT_EQ(family->samples[0].value_text, "1e-09");
  EXPECT_EQ(family->samples[0].value, 1e-09);
  EXPECT_TRUE(std::isnan(family->samples[1].value));
  EXPECT_TRUE(std::isinf(family->samples[2].value));
  EXPECT_GT(family->samples[2].value, 0.0);
  EXPECT_TRUE(std::isinf(family->samples[3].value));
  EXPECT_LT(family->samples[3].value, 0.0);
  // Re-rendering uses the preserved lexemes, not a reformatted double.
  EXPECT_EQ(obs::PromTextFromScrape(scrape), text);
}

// Every decimal spelling the format allows still parses, to the value
// strtod gives it.
TEST(PromParserTest, AcceptsEveryDecimalSpelling) {
  const std::pair<const char*, double> cases[] = {
      {"5", 5.0},       {"-5", -5.0},     {"+5", 5.0},   {"0.25", 0.25},
      {"5.", 5.0},      {".5", 0.5},      {"1E3", 1e3},  {"-2.5e-3", -2.5e-3},
      {"1e+18", 1e18},
  };
  for (const auto& [lexeme, want] : cases) {
    obs::PromScrape scrape;
    std::string error;
    ASSERT_TRUE(obs::ParsePromText(
        std::string("# TYPE v gauge\nv ") + lexeme + "\n", &scrape, &error))
        << lexeme << ": " << error;
    EXPECT_EQ(scrape.FindFamily("v")->samples[0].value, want) << lexeme;
  }
  for (const char* bad : {".", "-", "1e", "e5", "1.2.3", "Inf", "+NaN"}) {
    obs::PromScrape scrape;
    std::string error;
    EXPECT_FALSE(obs::ParsePromText(
        std::string("# TYPE v gauge\nv ") + bad + "\n", &scrape, &error))
        << bad;
  }
}

struct CorpusCase {
  const char* file;
  const char* expected;  ///< substring the error must contain
};

// Every malformed exposition is rejected with the offending line number:
// a lenient parser would silently ingest emitter drift.
TEST(PromParserTest, MalformedCorpusIsRejectedWithLineNumbers) {
  const CorpusCase cases[] = {
      {"no_type.prom", "line 1: sample before # TYPE for 'x_total'"},
      {"bad_value.prom", "line 2: bad sample value 'one'"},
      // strtod would take all four; the format allows only decimal numbers
      // and the spelled NaN/+Inf/-Inf.
      {"hex_value.prom", "line 2: bad sample value '0x1p3'"},
      {"lowercase_inf.prom", "line 2: bad sample value 'inf'"},
      {"lowercase_nan.prom", "line 2: bad sample value 'nan'"},
      {"tab_before_value.prom", "line 2: bad sample value '\t5'"},
      {"unterminated_label.prom", "line 2: unterminated label value"},
      {"duplicate_type.prom", "line 2: duplicate # TYPE for 'x_total'"},
      {"type_after_samples.prom", "line 3: # TYPE after samples for 'x_total'"},
      {"unknown_directive.prom", "line 3: unknown comment directive"},
      {"bucket_without_le.prom", "line 2: _bucket sample without an le label"},
      {"blank_line.prom", "line 2: blank line"},
      {"bad_escape.prom", "line 2: unknown escape"},
      {"bad_timestamp.prom", "line 2: bad timestamp '12a3'"},
      {"signed_timestamp.prom", "line 2: bad timestamp '+5'"},
      {"bare_histogram_sample.prom",
       "line 2: histogram samples need a _bucket/_sum/_count suffix"},
      {"unknown_type.prom", "line 1: unknown metric type 'watermelon'"},
  };
  for (const CorpusCase& c : cases) {
    const std::string text = ReadDataFile(c.file);
    ASSERT_FALSE(text.empty()) << c.file;
    obs::PromScrape scrape;
    std::string error;
    EXPECT_FALSE(obs::ParsePromText(text, &scrape, &error)) << c.file;
    EXPECT_NE(error.find(c.expected), std::string::npos)
        << c.file << ": got '" << error << "'";
  }
}

// A rejection never leaves partial state behind that a later successful
// parse would inherit.
TEST(PromParserTest, RejectionClearsTheOutputScrape) {
  obs::PromScrape scrape;
  std::string error;
  ASSERT_TRUE(obs::ParsePromText("# TYPE ok_total counter\nok_total 1\n",
                                 &scrape, &error))
      << error;
  ASSERT_EQ(scrape.families.size(), 1u);
  EXPECT_FALSE(obs::ParsePromText(ReadDataFile("bad_value.prom"), &scrape,
                                  &error));
  // The failed parse starts from a clean slate: nothing from the previous
  // contents survives into the partial result.
  EXPECT_EQ(scrape.FindFamily("ok_total"), nullptr);
}

}  // namespace
}  // namespace topfull
