#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "support/rss.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double iqr(const std::vector<double>& values) {
  return quantile(values, 0.75) - quantile(values, 0.25);
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double geomean_of_group_medians(const std::vector<double>& values,
                                const std::vector<std::size_t>& group) {
  std::map<std::size_t, std::vector<double>> by_group;
  for (std::size_t i = 0; i < values.size(); ++i) by_group[group[i]].push_back(values[i]);
  double log_sum = 0;
  for (const auto& [g, mine] : by_group) log_sum += std::log(median(mine));
  return std::exp(log_sum / static_cast<double>(by_group.size()));
}

int Histogram::bucket_of(std::uint64_t ns) noexcept {
  if (ns < kSub) return static_cast<int>(ns);
  const int e = 63 - std::countl_zero(ns);
  const int shift = e - kSubBits;
  return (shift + 1) * kSub + static_cast<int>((ns >> shift) & (kSub - 1));
}

double Histogram::bucket_low(int b) noexcept {
  if (b < kSub) return b;
  const int octave = b / kSub;
  const int sub = b % kSub;
  return static_cast<double>(static_cast<std::uint64_t>(kSub + sub) << (octave - 1));
}

void Histogram::record(std::uint64_t ns) noexcept {
  ++buckets_[static_cast<std::size_t>(bucket_of(ns))];
  ++count_;
  sum_ns_ += static_cast<double>(ns);
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = buckets_[static_cast<std::size_t>(b)];
    if (c == 0) continue;
    if (rank < static_cast<double>(before + c)) {
      const double width = b < kSub ? 1.0 : bucket_low(b + 1) - bucket_low(b);
      const double frac = (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return bucket_low(b) + width * frac;
    }
    before += c;
  }
  return bucket_low(kBuckets - 1);
}

std::int64_t SpanLog::begin(std::string_view name, std::int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::string(name), now_ns(), 0, parent});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::end(std::int64_t id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_ns();
}

void SpanLog::add(std::string_view name, std::uint64_t start, std::uint64_t end,
                  std::int64_t parent) {
  if (enabled_) spans_.push_back(Span{std::string(name), start, end, parent});
}

void SpanLog::add_histogram(std::string_view name, const Histogram& histogram) {
  if (enabled_) histograms_.push_back(NamedHistogram{std::string(name), histogram});
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
        << ", \"parent\": " << s.parent << "}";
  }
  out << "],\n\"histograms\": [";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const Histogram& h = histograms_[i].histogram;
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << histograms_[i].name
        << "\", \"count\": " << h.count() << ", \"sum_ns\": " << h.sum_ns()
        << ", \"p50_ns\": " << h.percentile(0.5) << ", \"p99_ns\": " << h.percentile(0.99)
        << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Report::check(bool ok, std::string_view what) {
  tally(1, ok ? 0 : 1, what);
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed, std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::printf("CHECK FAILED: %.*s (%llu of %llu)\n", static_cast<int>(what.size()),
                what.data(), static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  }
}

void Report::metric(std::string_view name, double value, std::string_view unit,
                    std::string_view note) {
  if (!std::isfinite(value)) {
    check(false, std::string(name) + " is not a finite number");
    value = 0;
  }
  metrics_.push_back(Metric{std::string(name), value, std::string(unit)});
  info(name, value, unit, note);
}

void Report::info(std::string_view name, double value, std::string_view unit,
                  std::string_view note) {
  std::printf("  %-28.*s %14.6g %-6.*s %.*s\n", static_cast<int>(name.size()), name.data(),
              value, static_cast<int>(unit.size()), unit.data(),
              static_cast<int>(note.size()), note.data());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr LayerMetric kLayerMetrics[] = {
    {"runtime.malloc_ns.p50", "ns"},     {"runtime.malloc_ns.p99", "ns"},
    {"runtime.free_ns.p50", "ns"},       {"runtime.free_ns.p99", "ns"},
    {"runtime.realloc_ns.p50", "ns"},    {"runtime.calloc_ns.p50", "ns"},
    {"runtime.call_share", "ratio"},     {"runtime.ladder.forward_ns", "ns"},
    {"runtime.ladder.metadata_ns", "ns"}, {"runtime.ladder.lookup_ns", "ns"},
    {"runtime.ladder.enhance_ns", "ns"}, {"patch.lookup_ns", "ns"},
    {"patch.cache_hit_ratio", "ratio"},  {"patch.reload_ms.p50", "ms"},
    {"patch.reload_ms.max", "ms"},       {"runtime.enhanced_frac", "ratio"},
    {"runtime.guard_pages", "count"},    {"runtime.zero_fills", "count"},
    {"runtime.quarantined_frees", "count"}, {"runtime.quarantine_bytes", "bytes"},
    {"runtime.shard_skew", "ratio"},     {"workload.kernel_s", "s"},
    {"workload.handler_us.p50", "us"},   {"cce.plan_ms", "ms"},
    {"progmodel.interp_s", "s"},         {"shadow.replay_self_s", "s"},
    {"analysis.corpus_ms", "ms"},        {"analysis.htlint_ms", "ms"},
    {"analysis.patches", "count"},       {"trace.overhead_frac", "ratio"},
};

}  // namespace

void emit_layer_metrics(Report& report, const LayerValues& values) {
  std::size_t known = 0;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    known += it != values.end();
    report.metric(m.name, it != values.end() ? it->second : 0.0, m.unit,
                  it != values.end() ? "" : "(not exercised)");
  }
  report.check(known == values.size(), "every layer value has a defined metric");
}

double peak_rss_mb() {
  return static_cast<double>(ht::support::peak_rss_kib()) / 1024.0;
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set) && cpus.size() < 6) cpus.push_back(cpu);
    }
  }
  return cpus;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

SetupSampler::SetupSampler() : cpus_(allowed_cpus()) {
  if (cpus_.empty()) cpus_.push_back(-1);  // affinity unknown: sample unpinned
  samples_.resize(cpus_.size());
}

void SetupSampler::sample(const std::function<double()>& build) {
  cpu_set_t saved;
  const bool pin = cpus_.front() >= 0 && sched_getaffinity(0, sizeof(saved), &saved) == 0;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (pin) pin_to_cpu(cpus_[i]);
    samples_[i].push_back(build());
  }
  if (pin) sched_setaffinity(0, sizeof(saved), &saved);
}

double SetupSampler::value() const {
  std::vector<double> per_cpu;
  for (const auto& s : samples_) {
    if (!s.empty()) per_cpu.push_back(median(s));
  }
  return median(per_cpu);
}

std::size_t SetupSampler::count() const {
  std::size_t n = 0;
  for (const auto& s : samples_) n += s.size();
  return n;
}

}  // namespace perfbench
