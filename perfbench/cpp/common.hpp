// Shared pieces of the benchmark program: options, clocks, order
// statistics, a latency histogram, the span log of traced runs, and the
// result report whose JSON line ends every run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< traced runs write their spans here
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Quantile with linear interpolation between order statistics (q in [0,1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Distance between the first and third quartile.
[[nodiscard]] double iqr(const std::vector<double>& values);
[[nodiscard]] double sum(const std::vector<double>& values);
/// Geometric mean over groups of the median of each group's values
/// (group[i] is the group of values[i]), so that every group weighs the
/// same whatever its count.
[[nodiscard]] double geomean_of_group_medians(const std::vector<double>& values,
                                              const std::vector<std::size_t>& group);

/// Log-linear histogram of nanosecond durations: 32 sub-buckets per power
/// of two (about 3% resolution). Percentiles interpolate by rank inside
/// the bucket they fall in.
class Histogram {
 public:
  void record(std::uint64_t ns) noexcept;
  void merge(const Histogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum_ns() const noexcept { return sum_ns_; }
  [[nodiscard]] double percentile(double q) const noexcept;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = 64 * kSub;
  [[nodiscard]] static int bucket_of(std::uint64_t ns) noexcept;
  [[nodiscard]] static double bucket_low(int b) noexcept;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
  double sum_ns_ = 0;
};

/// Spans of a traced run: name, start, end and parent for each call the
/// benchmark makes into a layer, kept in memory and written out at exit.
/// Calls that run into the millions are kept as per-name histograms
/// instead. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// Opens a span; returns its id, or -1 when disabled.
  std::int64_t begin(std::string_view name, std::int64_t parent = -1);
  void end(std::int64_t id);
  /// Records a span whose times were taken by the caller.
  void add(std::string_view name, std::uint64_t start, std::uint64_t end,
           std::int64_t parent = -1);
  void add_histogram(std::string_view name, const Histogram& histogram);
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int64_t parent = -1;
  };
  struct NamedHistogram {
    std::string name;
    Histogram histogram;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<NamedHistogram> histograms_;
};

/// One run's verdict and metrics. Every checked operation counts as
/// attempted; every failed check counts as failed and is printed.
class Report {
 public:
  void check(bool ok, std::string_view what);
  /// Bulk form: `attempted` operations of which `failed` went wrong.
  void tally(std::uint64_t attempted, std::uint64_t failed, std::string_view what);
  /// A metric for the JSON line (also printed).
  void metric(std::string_view name, double value, std::string_view unit,
              std::string_view note = {});
  /// A figure for the human-readable report only.
  static void info(std::string_view name, double value, std::string_view unit,
                   std::string_view note = {});
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Per-layer metric values of a traced run, by name.
using LayerValues = std::map<std::string, double>;

/// Emits every per-layer metric the benchmark defines, in a fixed order;
/// layers this workload does not exercise report 0. A name outside the
/// defined set is a failed check.
void emit_layer_metrics(Report& report, const LayerValues& values);

/// The CPUs the benchmark spreads its work over: the first six this
/// process may run on, in ascending order; empty when the affinity cannot
/// be read. The CPUs of a shared host differ in speed for minutes at a
/// time, and a thread tends to stay where it started, so work pinned in
/// turn to each CPU makes every run see the same mix of CPUs.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pins the calling thread to one CPU; returns false if that fails.
bool pin_to_cpu(int cpu);

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Set-up times, sampled on every CPU this process may run on. A build
/// takes milliseconds, and the host's CPUs differ in speed by up to 1.5x
/// for minutes at a time (a busy hyperthread sibling). A process tends to
/// stay on one CPU, so unpinned samples would make setup_s depend on
/// where the process landed. Pinned samples make every process see the
/// same mix of CPUs.
class SetupSampler {
 public:
  SetupSampler();
  /// Runs `build` once on each CPU, with this thread pinned there, and
  /// records the seconds it returns. Restores the thread's affinity.
  void sample(const std::function<double()>& build);
  /// The median over CPUs of each CPU's median sample.
  [[nodiscard]] double value() const;
  [[nodiscard]] std::size_t count() const;

 private:
  std::vector<int> cpus_;
  std::vector<std::vector<double>> samples_;  ///< per CPU
};

/// FNV-style fold used to print a digest of each run's generated inputs,
/// so two seeds can be shown to produce different inputs.
[[nodiscard]] inline std::uint64_t fold(std::uint64_t digest, std::uint64_t v) {
  return (digest ^ v) * 0x100000001b3ULL;
}

// Workloads. Each fills the report with every end-to-end metric (untraced
// run) or every per-layer metric (traced run).
void run_spec_replay(const Options& options, Report& report, SpanLog& spans);
void run_service_mix(const Options& options, Report& report, SpanLog& spans);
void run_offline_replay(const Options& options, Report& report, SpanLog& spans);

}  // namespace perfbench
