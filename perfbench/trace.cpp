#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

namespace rwc::perfbench {

namespace {

thread_local std::vector<std::int64_t> open_spans;

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::begin(const char* name) {
  if (!enabled()) return -1;
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? ambient_.load(std::memory_order_relaxed)
                                   : open_spans.back();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    span.start = now_seconds();
    spans_.push_back(span);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const double at = now_seconds();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = at;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

SpanScope::SpanScope(const char* name, bool ambient)
    : id_(Tracer::instance().begin(name)), ambient_(ambient && id_ >= 0) {
  if (ambient_) Tracer::instance().set_ambient(id_);
}

SpanScope::~SpanScope() {
  if (ambient_) Tracer::instance().set_ambient(-1);
  Tracer::instance().end(id_);
}

std::map<std::string, SpanStats> summarize(const std::vector<Span>& spans) {
  // Children per parent, as (start, end) intervals.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.end < 0.0 || span.parent < 0) continue;
    children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                 span.end);
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end < 0.0) continue;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, span.end));
    }
    SpanStats& stats = out[span.name];
    const double duration = span.end - span.start;
    stats.durations.push_back(duration);
    stats.child_cover.push_back(covered);
    stats.self.push_back(std::max(0.0, duration - covered));
  }
  return out;
}

bool write_spans_csv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id,name,start_s,end_s,parent\n");
  for (std::size_t i = 0; i < spans.size(); ++i)
    std::fprintf(file, "%zu,%s,%.9f,%.9f,%lld\n", i, spans[i].name,
                 spans[i].start, spans[i].end,
                 static_cast<long long>(spans[i].parent));
  return std::fclose(file) == 0;
}

}  // namespace rwc::perfbench
