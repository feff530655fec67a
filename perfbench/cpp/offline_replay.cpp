// offline-replay: one thread runs the offline analysis pipeline. A pass
// replays the benign inputs of the 12 SPEC-shaped programs and the attack
// inputs of the 34 attack programs (Table II 7, SAMATE 23, extended 4)
// under SimHeap with the Incremental plan (analyze_attack), then runs the
// static analyzer (analyze_program, htlint) over the same programs. Benign
// runs must produce no patch; attack runs must produce their expected
// masks. The baseline interprets the same programs and inputs over
// NullBackend, each job right next to its analyses, so norm_time is the
// cost of the analyses over plain execution. The inputs are fixed
// corpora; the seed does not change them.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/patch_generator.hpp"
#include "analysis/static_analyzer.hpp"
#include "cce/encoders.hpp"
#include "cce/strategies.hpp"
#include "common.hpp"
#include "corpus/extended_corpus.hpp"
#include "corpus/vulnerable_programs.hpp"
#include "progmodel/interpreter.hpp"
#include "progmodel/null_backend.hpp"
#include "support/hash.hpp"
#include "workload/spec_profiles.hpp"

namespace perfbench {
namespace {

/// Builds timed for cce.plan_ms in the traced run.
constexpr int kPlanRepeats = 25;
/// Set-up samples per CPU taken at start-up and after each round; a build
/// takes under 1 ms and the rounds are few.
constexpr int kSetupSamplesPerRound = 5;
/// The NullBackend baseline is ~40x cheaper than shadow replay; repeating
/// it keeps its timing well above scheduler noise.
constexpr int kBaselineRepeats = 8;

struct Job {
  std::string name;
  const ht::progmodel::Program* program = nullptr;
  ht::progmodel::Input input;
  bool attack = false;
  std::uint8_t expected_mask = 0;
  std::unique_ptr<ht::cce::PccEncoder> encoder;
};

/// Everything a pass reads: programs, inputs, plans and encoders.
struct Inputs {
  std::vector<ht::progmodel::Program> spec;
  std::vector<ht::corpus::VulnerableProgram> attacks;
  std::vector<Job> jobs;
};

std::unique_ptr<Inputs> build_inputs(SpanLog& spans, double& plan_s) {
  auto in = std::make_unique<Inputs>();
  for (const auto& profile : ht::workload::spec_profiles()) {
    in->spec.push_back(ht::workload::make_spec_program(profile));
  }
  for (auto* factory : {ht::corpus::make_table2_corpus, ht::corpus::make_samate_suite,
                        ht::corpus::make_extended_corpus}) {
    for (auto& v : factory()) in->attacks.push_back(std::move(v));
  }
  const auto& profiles = ht::workload::spec_profiles();
  for (std::size_t i = 0; i < in->spec.size(); ++i) {
    Job job;
    job.name = profiles[i].name;
    job.program = &in->spec[i];
    in->jobs.push_back(std::move(job));
  }
  for (const auto& v : in->attacks) {
    Job job;
    job.name = v.name;
    job.program = &v.program;
    job.input = v.attack;
    job.attack = true;
    job.expected_mask = v.expected_mask;
    in->jobs.push_back(std::move(job));
  }
  plan_s = 0;
  for (Job& job : in->jobs) {
    const std::uint64_t t0 = now_ns();
    auto plan = ht::cce::compute_plan(job.program->graph(), job.program->alloc_targets(),
                                      ht::cce::Strategy::kIncremental);
    const std::uint64_t t1 = now_ns();
    spans.add("cce.compute_plan", t0, t1);
    plan_s += static_cast<double>(t1 - t0) / 1e9;
    job.encoder = std::make_unique<ht::cce::PccEncoder>(std::move(plan));
  }
  return in;
}

struct PassTimes {
  double total_s = 0;       ///< replay_s + htlint_s
  double replay_s = 0;      ///< analyze_attack, every job
  double corpus_s = 0;      ///< analyze_attack, attack jobs
  double htlint_s = 0;      ///< analyze_program, every job
  std::uint64_t patches = 0;
};

class OfflineReplay {
 public:
  OfflineReplay(const Options& options, Report& report, SpanLog& spans)
      : options_(options), report_(report), spans_(spans) {}

  void run() {
    set_up();
    if (!options_.trace) sample_setup();
    // The corpora are fixed programs with fixed inputs, visited in a fixed
    // order, so every run replays the same cache history; the seed does not
    // change them.
    std::uint64_t digest = 0;
    for (const Job& job : inputs_->jobs) digest = fold(digest, ht::support::fnv1a64(job.name));
    std::printf("inputs digest %016llx (%zu programs)\n",
                static_cast<unsigned long long>(digest), inputs_->jobs.size());

    // Warm-up: page in code and inputs, and let the heap settle.
    round(0, false);
    std::vector<PassTimes> passes, traced;
    std::vector<double> baseline, ratios, p99_ratios, latency_us;
    const std::uint64_t start = now_ns();
    for (int index = 0; index < 2 || seconds_since(start) < options_.seconds; ++index) {
      const Round r = round(index, options_.trace);
      passes.push_back(r.pass);
      baseline.push_back(r.baseline_s);
      ratios.push_back(r.pass.total_s / r.baseline_s);
      p99_ratios.push_back(quantile(r.latency_us, 0.99) / quantile(r.baseline_us, 0.99));
      latency_us.insert(latency_us.end(), r.latency_us.begin(), r.latency_us.end());
      std::printf("pass %d: %.4f s (replay %.4f s, htlint %.4f s), baseline %.4f s\n", index,
                  r.pass.total_s, r.pass.replay_s, r.pass.htlint_s, r.baseline_s);
      if (options_.trace) {
        traced.push_back(traced_pass());
      } else {
        sample_setup();
      }
    }
    if (options_.trace) {
      report_layers(passes, traced, baseline);
      return;
    }
    std::vector<double> total;
    for (const PassTimes& p : passes) total.push_back(p.total_s);
    report_.metric("norm_time", median(ratios), "ratio",
                   "analyses / NullBackend interpretation, median of rounds");
    const double p99 = quantile(latency_us, 0.99);
    char note[96];
    std::snprintf(note, sizeof(note), "p99 per-program time, median of %zu round ratios",
                  p99_ratios.size());
    report_.metric("lat_p99_ratio", median(p99_ratios), "ratio", note);
    std::snprintf(note, sizeof(note), "%zu builds of programs, plans and encoders",
                  setup_.count());
    report_.metric("setup_s", setup_.value(), "s", note);
    report_.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::snprintf(note, sizeof(note), "median analyses per pass, %zu passes", passes.size());
    Report::info("offline_s", median(total), "s", note);
    Report::info("lat_p50_us", quantile(latency_us, 0.5), "us", "per analyze_attack call");
    Report::info("lat_p99_us", p99, "us", "per analyze_attack call");
    Report::info("baseline_pass_s", median(baseline), "s");
  }

 private:
  /// Builds the run's inputs. The traced run builds them several times
  /// for cce.plan_ms; only the kept build records its spans.
  void set_up() {
    SpanLog untraced(false);
    double plan_s = 0;
    inputs_ = build_inputs(untraced, plan_s);  // warm-up
    for (int i = 0; options_.trace && i < kPlanRepeats; ++i) {
      inputs_.reset();
      inputs_ = build_inputs(i + 1 == kPlanRepeats ? spans_ : untraced, plan_s);
      plan_ms_.push_back(plan_s * 1e3);
    }
  }

  /// Set-up samples: throwaway builds on every CPU, taken at start-up and
  /// after every round, so set-up is sampled across the whole run.
  void sample_setup() {
    for (int i = 0; i < kSetupSamplesPerRound; ++i) {
      setup_.sample([] {
        SpanLog untraced(false);
        double unused = 0;
        const std::uint64_t t0 = now_ns();
        const auto inputs = build_inputs(untraced, unused);
        return seconds_since(t0);
      });
    }
  }

  /// analyze_attack, then htlint, on one job; adds their times to `p`.
  void analyze(const Job& job, SpanLog& spans, std::int64_t parent, PassTimes& p,
               std::vector<double>* latency_us) {
    std::uint64_t t0 = now_ns();
    const auto report = ht::analysis::analyze_attack(*job.program, job.encoder.get(), job.input);
    std::uint64_t t1 = now_ns();
    spans.add("analysis.analyze_attack", t0, t1, parent);
    const double s = static_cast<double>(t1 - t0) / 1e9;
    p.replay_s += s;
    if (latency_us != nullptr) latency_us->push_back(s * 1e6);
    std::uint8_t mask = 0;
    for (const auto& patch : report.patches) mask |= patch.vuln_mask;
    p.patches += report.patches.size();
    if (job.attack) {
      p.corpus_s += s;
      report_.check((mask & job.expected_mask) == job.expected_mask,
                    "offline-replay: expected patch mask on " + job.name);
    } else {
      report_.check(report.patches.empty() && report.run.completed,
                    "offline-replay: no patch on benign " + job.name);
    }
    t0 = now_ns();
    const auto result = ht::analysis::analyze_program(*job.program, job.encoder.get());
    t1 = now_ns();
    spans.add("analysis.analyze_program", t0, t1, parent);
    p.htlint_s += static_cast<double>(t1 - t0) / 1e9;
    p.total_s = p.replay_s + p.htlint_s;
    report_.check(!result.contexts.empty(), "offline-replay: htlint walked " + job.name);
  }

  /// One job interpreted over NullBackend, kBaselineRepeats times; returns
  /// the time of one repetition and adds each run's time to `latency_us`.
  double interpret(const Job& job, SpanLog& spans, std::int64_t parent,
                   std::vector<double>& latency_us) {
    double total = 0;
    for (int r = 0; r < kBaselineRepeats; ++r) {
      ht::progmodel::NullBackend backend;
      ht::progmodel::Interpreter interp(*job.program, job.encoder.get(), backend);
      const std::uint64_t t0 = now_ns();
      const auto result = interp.run(job.input);
      const std::uint64_t t1 = now_ns();
      spans.add("progmodel.interpreter.run", t0, t1, parent);
      latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      total += static_cast<double>(t1 - t0) / 1e9;
      report_.check(result.completed, "offline-replay: interpretation completed " + job.name);
    }
    return total / kBaselineRepeats;
  }

  struct Round {
    PassTimes pass;
    double baseline_s = 0;
    std::vector<double> latency_us, baseline_us;  ///< per call
  };

  /// One round: each job's analyses and its NullBackend baseline run back
  /// to back, in an order that alternates by round, so a change in host
  /// speed hits both arms alike. With `traced_baseline`, the baseline's
  /// interpretations are recorded as spans.
  Round round(int index, bool traced_baseline) {
    SpanLog untraced(false);
    SpanLog& spans = traced_baseline ? spans_ : untraced;
    const std::int64_t round_span = spans.begin("offline.round");
    Round r;
    for (const Job& job : inputs_->jobs) {
      if (index % 2 == 0) r.baseline_s += interpret(job, spans, round_span, r.baseline_us);
      analyze(job, untraced, -1, r.pass, &r.latency_us);
      if (index % 2 == 1) r.baseline_s += interpret(job, spans, round_span, r.baseline_us);
    }
    spans.end(round_span);
    return r;
  }

  /// The analyses alone over every job, recorded as spans.
  PassTimes traced_pass() {
    PassTimes p;
    const std::int64_t pass_span = spans_.begin("offline.pass");
    for (const Job& job : inputs_->jobs) analyze(job, spans_, pass_span, p, nullptr);
    spans_.end(pass_span);
    return p;
  }

  void report_layers(const std::vector<PassTimes>& passes, const std::vector<PassTimes>& traced,
                     const std::vector<double>& baseline) {
    std::vector<double> self, corpus_ms, htlint_ms, untraced_total, traced_total;
    const double interp_s = median(baseline);
    for (const PassTimes& p : passes) {
      self.push_back(p.replay_s - interp_s);
      corpus_ms.push_back(p.corpus_s * 1e3);
      htlint_ms.push_back(p.htlint_s * 1e3);
      untraced_total.push_back(p.total_s);
    }
    for (const PassTimes& p : traced) traced_total.push_back(p.total_s);
    LayerValues v;
    v["cce.plan_ms"] = median(plan_ms_);
    v["progmodel.interp_s"] = interp_s;
    v["shadow.replay_self_s"] = median(self);
    v["analysis.corpus_ms"] = median(corpus_ms);
    v["analysis.htlint_ms"] = median(htlint_ms);
    v["analysis.patches"] = static_cast<double>(passes.back().patches);
    v["trace.overhead_frac"] = median(traced_total) / median(untraced_total) - 1;
    emit_layer_metrics(report_, v);
  }

  const Options& options_;
  Report& report_;
  SpanLog& spans_;
  std::unique_ptr<Inputs> inputs_;
  std::vector<double> plan_ms_;
  SetupSampler setup_;
};

}  // namespace

void run_offline_replay(const Options& options, Report& report, SpanLog& spans) {
  OfflineReplay(options, report, spans).run();
}

}  // namespace perfbench
