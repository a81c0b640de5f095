#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace natto::obs {

void Histogram::Record(double v) {
  int b = 0;
  if (v >= 1.0) {
    b = 1 + static_cast<int>(std::log2(v));
    if (b >= kNumBuckets) b = kNumBuckets - 1;
  }
  ++buckets_[b];
  ++count_;
  sum_ += v;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) {
    HistogramData& mine = histograms[name];
    if (mine.buckets.empty()) {
      mine = h;
      continue;
    }
    if (mine.buckets.size() < h.buckets.size()) {
      mine.buckets.resize(h.buckets.size(), 0);
    }
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
  runs += other.runs;
}

int64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"runs\":" + std::to_string(runs) + ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendDouble(&out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(h.count) + ",\"sum\":";
    AppendDouble(&out, h.sum);
    out += ",\"buckets\":[";
    // Trailing zero buckets are elided so the rendering is compact but still
    // canonical (the layout is fixed, so the elision is reversible).
    size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (size_t i = 0; i < last; ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_storage_.emplace_back();
  return counters_[name] = &counter_storage_.back();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  gauge_storage_.emplace_back();
  return gauges_[name] = &gauge_storage_.back();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  histogram_storage_.emplace_back();
  return histograms_[name] = &histogram_storage_.back();
}

void MetricsRegistry::AddSource(Source source) {
  sources_.push_back(std::move(source));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramData d;
    d.buckets.assign(h->buckets(), h->buckets() + Histogram::kNumBuckets);
    d.count = h->count();
    d.sum = h->sum();
    snap.histograms[name] = d;
  }
  for (const Source& source : sources_) source(&snap);
  return snap;
}

}  // namespace natto::obs
