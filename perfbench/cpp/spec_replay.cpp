// spec-replay: the four allocation-dense Fig. 8 traces replayed by one
// thread through one ShardedAllocator (the allocator the preload shim
// ships, with its default config and the paper's 5-median-patch OVERFLOW
// table), with native passes interleaved as the baseline.
//
// The traced run replays the layer ladder instead: native, forward_only,
// no table, a 15-entry table naming CCIDs absent from the traces, and the
// 5 median patches, each built from existing constructor and config
// options. Consecutive rungs differ by one layer, so per-op deltas between
// them attribute the protected - native pass time to layers.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "patch/decision_cache.hpp"
#include "patch/patch_table.hpp"
#include "runtime/sharded_allocator.hpp"
#include "support/hash.hpp"
#include "support/stats.hpp"
#include "workload/alloc_trace.hpp"
#include "workload/spec_profiles.hpp"

namespace perfbench {
namespace {

using ht::patch::Patch;
using ht::patch::PatchTable;
using ht::progmodel::AllocFn;
using ht::runtime::ShardedAllocator;
using ht::workload::Trace;
using ht::workload::TraceOp;

constexpr const char* kProfiles[] = {"400.perlbench", "403.gcc", "471.omnetpp",
                                     "483.xalancbmk"};
constexpr std::size_t kTraces = std::size(kProfiles);
constexpr std::size_t kPatchedContexts = 5;
/// Latency samples are the replay time of consecutive slices of this many
/// trace ops (the clock is read once per slice).
constexpr std::size_t kSliceOps = 4096;
/// Each profile's trace is this many segments, each made by make_trace
/// from its own sub-seed with 1/kSegments of the profile's allocations.
/// The seed decides which sizes the hottest sites get, and with one
/// segment that moved norm_time by 10% between seeds; four segments
/// average four draws within one run.
constexpr std::uint64_t kSegments = 4;

struct NativeHeap {
  void* malloc(std::uint64_t n, std::uint64_t) { return std::malloc(n); }
  void* calloc(std::uint64_t n, std::uint64_t) { return std::calloc(1, n); }
  void* realloc(void* p, std::uint64_t n, std::uint64_t) { return std::realloc(p, n); }
  void free(void* p) { std::free(p); }
};

struct ShardedHeap {
  ShardedAllocator& a;
  void* malloc(std::uint64_t n, std::uint64_t ccid) { return a.malloc(n, ccid); }
  void* calloc(std::uint64_t n, std::uint64_t ccid) { return a.calloc(1, n, ccid); }
  void* realloc(void* p, std::uint64_t n, std::uint64_t ccid) {
    return a.realloc(p, n, ccid);
  }
  void free(void* p) { a.free(p); }
};

/// Stands in for allocation in the kernel-only control pass: every op
/// gets the same scratch buffer (as large as the traces' largest op), so
/// only the benchmark's own compute runs. It is also the tag check's
/// positive control: every block aliases every other, so tags must clash.
struct ScratchHeap {
  char* scratch;
  void* malloc(std::uint64_t, std::uint64_t) { return scratch; }
  void* calloc(std::uint64_t, std::uint64_t) { return scratch; }
  void* realloc(void*, std::uint64_t, std::uint64_t) { return scratch; }
  void free(void*) {}
};

struct CallTimes {
  Histogram malloc, calloc, realloc, free;
  double call_ns = 0;
};

struct Replay {
  double seconds = 0;
  std::uint64_t checksum = 0;
  std::uint64_t nulls = 0;
  std::uint64_t alloc_calls = 0;
  std::uint64_t tag_checks = 0;
  std::uint64_t tag_errors = 0;
};

/// A live-buffer slot: its block, and the tag byte written at the block's
/// first and last byte when it was allocated. A tag that does not read
/// back at free or realloc means the block overlapped another live block
/// or lost its contents.
struct Slot {
  char* block = nullptr;
  std::uint32_t size = 0;
  char tag = 0;
};

// The trace executor's per-op work, as in workload::run_trace: a compute
// kernel that touches the buffer, and the simulated encoding update.
inline std::uint64_t compute_kernel(char* buffer, std::uint32_t size, std::uint32_t work,
                                    std::uint64_t checksum) noexcept {
  if (buffer != nullptr && size > 0) {
    const std::uint32_t touch = std::min<std::uint32_t>(size, 512);
    std::memset(buffer, static_cast<int>(checksum & 0xff), touch);
    checksum += static_cast<unsigned char>(buffer[touch / 2]);
  }
  for (std::uint32_t i = 0; i < work; ++i) {
    checksum = checksum * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return checksum;
}

inline std::uint64_t encoding_kernel(std::uint64_t v, std::uint64_t ccid) noexcept {
  for (std::uint32_t i = 0; i < 3; ++i) v = 3 * v + (ccid ^ i);
  return v;
}

template <bool kTimed, class Call>
inline auto timed_call(Histogram& h, double& total, Call&& call) {
  if constexpr (kTimed) {
    const std::uint64_t t0 = now_ns();
    auto result = call();
    const std::uint64_t dt = now_ns() - t0;
    h.record(dt);
    total += static_cast<double>(dt);
    return result;
  } else {
    (void)h;
    (void)total;
    return call();
  }
}

inline bool tag_intact(const Slot& slot) noexcept {
  return slot.block[0] == slot.tag && slot.block[slot.size - 1] == slot.tag;
}

/// Replays one trace. `slots` is scratch sized to the trace's slot count.
/// With kTimed, every allocator call is timed into `times`. When `slices`
/// is set, the replay time of every kSliceOps ops is recorded into it.
/// Every arm does the same tag work: a tag is written into each allocated
/// block and checked at free and before and after each realloc, and each
/// calloc'd block must read zero.
template <bool kTimed, class Heap>
Replay replay(const Trace& trace, Heap& heap, std::vector<Slot>& slots,
              CallTimes* times, Histogram* slices = nullptr) {
  CallTimes unused;
  CallTimes& t = times != nullptr ? *times : unused;
  std::fill(slots.begin(), slots.end(), Slot{});
  Replay r;
  char next_tag = 0;
  std::uint64_t checksum = 0;
  std::uint64_t ccid_register = 0;
  const std::uint32_t work = trace.work_per_op;
  const std::uint64_t start = now_ns();
  std::uint64_t slice_start = start;
  std::size_t slice_left = kSliceOps;
  for (const TraceOp& op : trace.ops) {
    if (slices != nullptr && --slice_left == 0) {
      const std::uint64_t now = now_ns();
      slices->record(now - slice_start);
      slice_start = now;
      slice_left = kSliceOps;
    }
    Slot& slot = slots[op.slot];
    switch (op.kind) {
      case TraceOp::Kind::kMalloc:
      case TraceOp::Kind::kCalloc:
      case TraceOp::Kind::kRealloc: {
        ccid_register = encoding_kernel(ccid_register, op.ccid);
        const bool moves = op.kind == TraceOp::Kind::kRealloc && slot.block != nullptr;
        if (moves) {
          ++r.tag_checks;
          r.tag_errors += !tag_intact(slot);
        }
        char* p;
        if (op.kind == TraceOp::Kind::kMalloc) {
          p = timed_call<kTimed>(t.malloc, t.call_ns, [&] {
            return static_cast<char*>(heap.malloc(op.size, op.ccid));
          });
        } else if (op.kind == TraceOp::Kind::kCalloc) {
          p = timed_call<kTimed>(t.calloc, t.call_ns, [&] {
            return static_cast<char*>(heap.calloc(op.size, op.ccid));
          });
        } else {
          p = timed_call<kTimed>(t.realloc, t.call_ns, [&] {
            return static_cast<char*>(heap.realloc(slot.block, op.size, op.ccid));
          });
        }
        r.nulls += p == nullptr;
        ++r.alloc_calls;
        if (p != nullptr && op.kind == TraceOp::Kind::kCalloc) {
          ++r.tag_checks;
          r.tag_errors += p[0] != 0 || p[op.size - 1] != 0;
        }
        if (p != nullptr && moves) {
          ++r.tag_checks;  // realloc keeps the old block's first byte
          r.tag_errors += p[0] != slot.tag;
        }
        checksum = compute_kernel(p, op.size, work, checksum);
        slot = p != nullptr ? Slot{p, op.size, ++next_tag} : Slot{};
        if (p != nullptr) p[0] = p[op.size - 1] = slot.tag;
        break;
      }
      case TraceOp::Kind::kFree:
        if (slot.block != nullptr) {
          ++r.tag_checks;
          r.tag_errors += !tag_intact(slot);
        }
        timed_call<kTimed>(t.free, t.call_ns, [&] {
          heap.free(slot.block);
          return 0;
        });
        slot = Slot{};
        checksum = compute_kernel(nullptr, 0, work, checksum);
        break;
    }
  }
  r.seconds = static_cast<double>(now_ns() - start) / 1e9;
  r.checksum = checksum ^ ccid_register;
  return r;
}

/// A profile's trace from kSegments segments of sub-seeds seed * kSegments
/// + k. Every segment frees its slots at its end, so they concatenate. The
/// compute per op is set so the whole trace does one segment's total work,
/// as a one-segment trace of the profile would.
Trace make_segmented_trace(const ht::workload::SpecProfile& profile, std::uint64_t seed) {
  Trace out;
  double work = 0;
  for (std::uint64_t k = 0; k < kSegments; ++k) {
    const auto share = [k](std::uint64_t n) {
      return n * (k + 1) / kSegments - n * k / kSegments;
    };
    ht::workload::SpecProfile part = profile;
    part.mallocs = share(profile.mallocs);
    part.callocs = share(profile.callocs);
    part.reallocs = share(profile.reallocs);
    Trace segment = ht::workload::make_trace(part, seed * kSegments + k);
    work += static_cast<double>(segment.work_per_op) * static_cast<double>(segment.ops.size());
    out.slot_count = std::max(out.slot_count, segment.slot_count);
    out.ops.insert(out.ops.end(), segment.ops.begin(), segment.ops.end());
    // The segments' sites are distinct contexts; the union is kept in
    // segment order (each segment's most frequent first).
    out.ccids_by_frequency.insert(out.ccids_by_frequency.end(),
                                  segment.ccids_by_frequency.begin(),
                                  segment.ccids_by_frequency.end());
  }
  out.work_per_op = static_cast<std::uint32_t>(std::lround(
      work / static_cast<double>(kSegments) / static_cast<double>(out.ops.size())));
  return out;
}

PatchTable overflow_table(const std::vector<std::uint64_t>& ccids) {
  std::vector<Patch> patches;
  for (std::uint64_t ccid : ccids) {
    // A trace site may allocate through any of the three APIs.
    for (AllocFn fn : {AllocFn::kMalloc, AllocFn::kCalloc, AllocFn::kRealloc}) {
      patches.push_back(Patch{fn, ccid, ht::patch::kOverflow});
    }
  }
  return PatchTable(patches, /*freeze=*/true);
}

/// The paper's §VIII-B2 protocol over the four traces together: the
/// contexts of median allocation frequency.
std::vector<std::uint64_t> median_contexts(const std::vector<Trace>& traces) {
  ht::support::FrequencyTable freq;
  for (const Trace& trace : traces) {
    for (const TraceOp& op : trace.ops) {
      if (op.kind != TraceOp::Kind::kFree) freq.add(op.ccid);
    }
  }
  return freq.median_frequency_keys(kPatchedContexts);
}

/// Contexts no trace allocates from, drawn from the seed.
std::vector<std::uint64_t> absent_contexts(const std::vector<Trace>& traces,
                                           std::uint64_t seed) {
  std::unordered_set<std::uint64_t> present;
  for (const Trace& trace : traces) {
    present.insert(trace.ccids_by_frequency.begin(), trace.ccids_by_frequency.end());
  }
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1; out.size() < kPatchedContexts; ++k) {
    const std::uint64_t ccid = ht::support::mix64(seed * 0x9e3779b97f4a7c15ULL + k);
    if (present.count(ccid) == 0) out.push_back(ccid);
  }
  return out;
}

double stats_skew(const ShardedAllocator& a) {
  double max = 0;
  double total = 0;
  for (std::uint32_t s = 0; s < a.shard_count(); ++s) {
    const auto n = static_cast<double>(a.shard_stats(s).interceptions);
    max = std::max(max, n);
    total += n;
  }
  return total > 0 ? max / (total / a.shard_count()) : 0;
}

class SpecReplay {
 public:
  SpecReplay(const Options& options, Report& report, SpanLog& spans)
      : options_(options), report_(report), spans_(spans) {}

  void run() {
    make_inputs();
    // Every pass runs on the CPU the run started on. Moved between CPUs,
    // by the scheduler or by pinning in turn, the protected arm slowed by
    // up to 20% and the native arm by less, so norm_time rose by whatever
    // share of the run had moved. Set-up samples still visit every CPU.
    if (const int cpu = sched_getcpu(); cpu >= 0) pin_to_cpu(cpu);
    set_up();
    if (!options_.trace) sample_setup();
    // Warm-up: page in code, traces and both heaps' arenas; the native
    // pass also fixes the reference checksum of each trace.
    for (std::size_t i = 0; i < kTraces; ++i) {
      NativeHeap native;
      const Replay r = replay<false>(traces_[i], native, slots_[i], nullptr);
      account(r);
      reference_[i] = r.checksum;
    }
    pass(Arm::kProtected);
    if (options_.trace) {
      run_traced();
    } else {
      run_untraced();
    }
  }

 private:
  enum class Arm { kNative, kForward, kNoTable, kAbsentTable, kProtected };
  static constexpr std::array<Arm, 5> kLadder = {Arm::kNative, Arm::kForward, Arm::kNoTable,
                                                 Arm::kAbsentTable, Arm::kProtected};
  static constexpr const char* kRungNames[] = {"native", "forward_only", "no table",
                                               "absent 15-entry table", "5 median patches"};

  void make_inputs() {
    std::uint64_t digest = 0;
    for (const char* name : kProfiles) {
      traces_.push_back(make_segmented_trace(ht::workload::spec_profile(name), options_.seed));
      const Trace& trace = traces_.back();
      slots_.emplace_back(trace.slot_count);
      for (const TraceOp& op : trace.ops) {
        digest = fold(digest, op.ccid ^ (std::uint64_t{op.size} << 32) ^ op.slot);
        max_size_ = std::max(max_size_, op.size);
        ops_ += 1;
      }
    }
    std::printf("inputs digest %016llx (%zu traces, %llu ops)\n",
                static_cast<unsigned long long>(digest), traces_.size(),
                static_cast<unsigned long long>(ops_));
  }

  /// Ranks the contexts, builds and freezes the protected table and builds
  /// the allocator over it; returns the seconds taken.
  static double build(const std::vector<Trace>& traces, std::unique_ptr<PatchTable>& table,
                      std::unique_ptr<ShardedAllocator>& allocator) {
    allocator.reset();
    const std::uint64_t t0 = now_ns();
    table = std::make_unique<PatchTable>(overflow_table(median_contexts(traces)));
    allocator = std::make_unique<ShardedAllocator>(table.get());
    return seconds_since(t0);
  }

  /// Set-up samples: throwaway builds on every CPU, taken at start-up and
  /// after every round, so set-up is sampled across the whole run.
  void sample_setup() {
    setup_.sample([this] {
      std::unique_ptr<PatchTable> table;
      std::unique_ptr<ShardedAllocator> allocator;
      return build(traces_, table, allocator);
    });
  }

  /// Builds the run's patch tables and allocators.
  void set_up() {
    build(traces_, protected_table_, protected_);
    if (options_.trace) {
      ht::runtime::GuardedAllocatorConfig forward;
      forward.forward_only = true;
      forward_ = std::make_unique<ShardedAllocator>(nullptr, forward);
      no_table_ = std::make_unique<ShardedAllocator>(nullptr);
      absent_table_ =
          std::make_unique<PatchTable>(overflow_table(absent_contexts(traces_, options_.seed)));
      absent_ = std::make_unique<ShardedAllocator>(absent_table_.get());
    }
  }

  /// Counts a replay's allocations and tag checks toward fail_frac.
  void account(const Replay& r) {
    report_.tally(r.alloc_calls, r.nulls, "spec-replay: allocation returned null");
    report_.tally(r.tag_checks, r.tag_errors,
                  "spec-replay: block tag lost (overlap, lost realloc contents or nonzero "
                  "calloc)");
  }

  /// One pass over the four traces on one arm; returns per-trace times.
  /// Checks the checksum against the native reference and counts nulls.
  std::array<double, kTraces> pass(Arm arm, CallTimes* times = nullptr,
                                   Histogram* slices = nullptr) {
    std::array<double, kTraces> seconds{};
    for (std::size_t i = 0; i < kTraces; ++i) {
      Replay r;
      if (arm == Arm::kNative) {
        NativeHeap heap;
        r = replay<false>(traces_[i], heap, slots_[i], nullptr, slices);
      } else {
        ShardedHeap heap{allocator(arm)};
        r = times != nullptr ? replay<true>(traces_[i], heap, slots_[i], times)
                             : replay<false>(traces_[i], heap, slots_[i], nullptr, slices);
      }
      account(r);
      report_.check(r.checksum == reference_[i],
                    std::string("spec-replay: checksum differs from native on ") +
                        kProfiles[i]);
      seconds[i] = r.seconds;
    }
    return seconds;
  }

  ShardedAllocator& allocator(Arm arm) {
    switch (arm) {
      case Arm::kForward: return *forward_;
      case Arm::kNoTable: return *no_table_;
      case Arm::kAbsentTable: return *absent_;
      default: return *protected_;
    }
  }

  bool time_left(std::uint64_t start, int rounds) const {
    return rounds < 3 || seconds_since(start) < options_.seconds;
  }

  void run_untraced() {
    std::array<std::vector<double>, kTraces> native_t;
    std::array<std::vector<double>, kTraces> protected_t;
    std::vector<double> protected_pass;
    std::vector<double> native_pass;
    // Slice latency for both arms, so both pay the same clock reads.
    Histogram native_slices;
    Histogram protected_slices;
    const std::uint64_t start = now_ns();
    int rounds = 0;
    for (; time_left(start, rounds); ++rounds) {
      // Alternate which arm goes first so neither always follows the other.
      for (int k = 0; k < 2; ++k) {
        const bool native_turn = (k == 0) == (rounds % 2 == 0);
        const auto t = pass(native_turn ? Arm::kNative : Arm::kProtected, nullptr,
                            native_turn ? &native_slices : &protected_slices);
        for (std::size_t i = 0; i < kTraces; ++i) {
          (native_turn ? native_t : protected_t)[i].push_back(t[i]);
        }
        (native_turn ? native_pass : protected_pass)
            .push_back(t[0] + t[1] + t[2] + t[3]);
      }
      sample_setup();
    }
    double log_sum = 0;
    for (std::size_t i = 0; i < kTraces; ++i) {
      // Each round's protected pass against the same round's native pass,
      // so host drift over the run cancels.
      std::vector<double> round_ratios;
      for (std::size_t r = 0; r < protected_t[i].size(); ++r) {
        round_ratios.push_back(protected_t[i][r] / native_t[i][r]);
      }
      const double ratio = median(round_ratios);
      log_sum += std::log(ratio);
      char note[64];
      std::snprintf(note, sizeof(note), "protected/native %s", kProfiles[i]);
      Report::info("trace_ratio", ratio, "ratio", note);
    }
    const double replay_s = median(protected_pass);
    report_.metric("norm_time", std::exp(log_sum / kTraces), "ratio",
                   "geomean over traces of median round protected/native (Fig. 8)");
    const double p99 = protected_slices.percentile(0.99);
    const double native_p99 = native_slices.percentile(0.99);
    char note[96];
    std::snprintf(note, sizeof(note), "p99 replay time of %zu-op slices, n=%llu per arm",
                  kSliceOps, static_cast<unsigned long long>(protected_slices.count()));
    report_.metric("lat_p99_ratio", p99 / native_p99, "ratio", note);
    char setup_note[64];
    std::snprintf(setup_note, sizeof(setup_note), "%zu table + allocator builds",
                  setup_.count());
    report_.metric("setup_s", setup_.value(), "s", setup_note);
    report_.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::snprintf(note, sizeof(note), "median protected pass, %d rounds", rounds);
    Report::info("replay_s", replay_s, "s", note);
    Report::info("lat_p50_us", protected_slices.percentile(0.5) / 1e3, "us", "protected slice");
    Report::info("lat_p99_us", p99 / 1e3, "us", "protected slice");
    Report::info("native_lat_p99_us", native_p99 / 1e3, "us", "native slice");
    Report::info("native_pass_s", median(native_pass), "s");
    Report::info("ops_per_s", static_cast<double>(ops_) / replay_s, "1/s",
                 "trace ops replayed per second, protected");
  }

  void run_traced() {
    const std::size_t rungs = kLadder.size();
    std::vector<std::vector<double>> rung_ns(rungs);  // per-op ns, per round
    std::vector<double> timed_pass;
    std::vector<double> kernel_pass;
    std::vector<double> lookup_ns;
    CallTimes times;
    std::vector<double> pair_total;  // separately timed protected - native
    std::vector<char> scratch(max_size_);
    auto& cache = ht::patch::DecisionCache::for_current_thread();
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;

    // PatchTable::lookup alone, on the traces' allocation key stream.
    std::vector<std::pair<AllocFn, std::uint64_t>> keys;
    for (const Trace& trace : traces_) {
      for (const TraceOp& op : trace.ops) {
        if (op.kind == TraceOp::Kind::kFree) continue;
        keys.emplace_back(op.kind == TraceOp::Kind::kMalloc   ? AllocFn::kMalloc
                          : op.kind == TraceOp::Kind::kCalloc ? AllocFn::kCalloc
                                                              : AllocFn::kRealloc,
                          op.ccid);
      }
    }

    const std::uint64_t start = now_ns();
    int rounds = 0;
    for (; time_left(start, rounds); ++rounds) {
      const std::int64_t round_span = spans_.begin("spec.round");
      for (std::size_t k = 0; k < rungs; ++k) {
        const Arm arm = kLadder[(k + static_cast<std::size_t>(rounds)) % rungs];
        const std::uint64_t h0 = cache.hits();
        const std::uint64_t m0 = cache.misses();
        const std::uint64_t t0 = now_ns();
        const auto t = pass(arm);
        spans_.add(std::string("runtime.pass.") + kRungNames[static_cast<int>(arm)], t0,
                   now_ns(), round_span);
        if (arm == Arm::kProtected) {
          hits += cache.hits() - h0;
          lookups += cache.hits() - h0 + cache.misses() - m0;
        }
        rung_ns[static_cast<std::size_t>(arm)].push_back((t[0] + t[1] + t[2] + t[3]) * 1e9 /
                                                         static_cast<double>(ops_));
      }
      // The protected rung once more with every allocator call timed.
      std::uint64_t t0 = now_ns();
      const auto timed = pass(Arm::kProtected, &times);
      spans_.add("runtime.pass.timed", t0, now_ns(), round_span);
      timed_pass.push_back(timed[0] + timed[1] + timed[2] + timed[3]);
      // Kernel-only control: the benchmark's own compute, no allocator.
      t0 = now_ns();
      double kernel_s = 0;
      for (std::size_t i = 0; i < kTraces; ++i) {
        ScratchHeap heap{scratch.data()};
        const Replay r = replay<false>(traces_[i], heap, slots_[i], nullptr);
        report_.check(r.checksum == reference_[i], "spec-replay: kernel-only checksum");
        report_.check(r.tag_errors > 0, "spec-replay: tag check catches the shared buffer");
        kernel_s += r.seconds;
      }
      spans_.add("workload.kernel", t0, now_ns(), round_span);
      kernel_pass.push_back(kernel_s);
      // PatchTable::lookup on the key stream.
      t0 = now_ns();
      std::uint64_t acc = 0;
      for (const auto& [fn, ccid] : keys) acc += protected_table_->lookup(fn, ccid);
      const std::uint64_t t1 = now_ns();
      spans_.add("patch.lookup", t0, t1, round_span);
      report_.check(acc == expected_lookup_mass(keys), "spec-replay: table lookups");
      lookup_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(keys.size()));
      // Native and protected once more, apart from the ladder, in
      // alternating order: the ladder check compares against these.
      double pair[2] = {0, 0};
      for (int k = 0; k < 2; ++k) {
        const bool native_turn = (k == 0) == (rounds % 2 == 0);
        t0 = now_ns();
        const auto t = pass(native_turn ? Arm::kNative : Arm::kProtected);
        spans_.add(native_turn ? "runtime.pass.pair_native" : "runtime.pass.pair_protected", t0,
                   now_ns(), round_span);
        pair[native_turn ? 0 : 1] = t[0] + t[1] + t[2] + t[3];
      }
      pair_total.push_back((pair[1] - pair[0]) * 1e9 / static_cast<double>(ops_));
      spans_.end(round_span);
    }

    // Ladder: print each rung, then per-op deltas between consecutive rungs.
    std::printf("layer ladder (ns per trace op, %d rounds):\n", rounds);
    for (std::size_t r = 0; r < rungs; ++r) {
      char note[96];
      std::snprintf(note, sizeof(note), "%s, iqr %.3f", kRungNames[r], iqr(rung_ns[r]));
      Report::info("rung", median(rung_ns[r]), "ns", note);
    }
    std::array<std::vector<double>, 4> deltas;
    for (std::size_t i = 0; i < rung_ns[0].size(); ++i) {
      for (std::size_t d = 0; d < 4; ++d) {
        deltas[d].push_back(rung_ns[d + 1][i] - rung_ns[d][i]);
      }
    }
    LayerValues values;
    const char* kDeltaNames[] = {"runtime.ladder.forward_ns", "runtime.ladder.metadata_ns",
                                 "runtime.ladder.lookup_ns", "runtime.ladder.enhance_ns"};
    double delta_sum = 0;
    double delta_spread = 0;
    for (std::size_t d = 0; d < 4; ++d) {
      values[kDeltaNames[d]] = median(deltas[d]);
      delta_sum += median(deltas[d]);
      delta_spread += iqr(deltas[d]);
      char note[64];
      std::snprintf(note, sizeof(note), "iqr %.3f", iqr(deltas[d]));
      Report::info(kDeltaNames[d], median(deltas[d]), "ns", note);
    }
    // The deltas must add up to the separately timed protected - native
    // difference within the run's own spread (the quartile distances of the
    // deltas and of that difference).
    const double tolerance = delta_spread + iqr(pair_total);
    char note[128];
    std::snprintf(note, sizeof(note), "sum of ladder deltas %.3f, tolerance %.3f", delta_sum,
                  tolerance);
    Report::info("pair.total_ns", median(pair_total), "ns", note);
    report_.check(std::fabs(delta_sum - median(pair_total)) <= tolerance,
                  "spec-replay: ladder deltas sum to protected - native");

    values["runtime.malloc_ns.p50"] = times.malloc.percentile(0.5);
    values["runtime.malloc_ns.p99"] = times.malloc.percentile(0.99);
    values["runtime.free_ns.p50"] = times.free.percentile(0.5);
    values["runtime.free_ns.p99"] = times.free.percentile(0.99);
    values["runtime.realloc_ns.p50"] = times.realloc.percentile(0.5);
    values["runtime.calloc_ns.p50"] = times.calloc.percentile(0.5);
    values["runtime.call_share"] = times.call_ns / 1e9 / sum(timed_pass);
    values["patch.lookup_ns"] = median(lookup_ns);
    values["patch.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
    const auto stats = protected_->stats_snapshot();
    values["runtime.enhanced_frac"] =
        static_cast<double>(stats.enhanced) / static_cast<double>(stats.interceptions);
    values["runtime.guard_pages"] = static_cast<double>(stats.guard_pages);
    values["runtime.zero_fills"] = static_cast<double>(stats.zero_fills);
    values["runtime.quarantined_frees"] = static_cast<double>(stats.quarantined_frees);
    values["runtime.quarantine_bytes"] = static_cast<double>(protected_->quarantined_bytes());
    values["runtime.shard_skew"] = stats_skew(*protected_);
    values["workload.kernel_s"] = median(kernel_pass);
    values["trace.overhead_frac"] =
        median(timed_pass) / (median(rung_ns[4]) * static_cast<double>(ops_) / 1e9) - 1;
    spans_.add_histogram("runtime.malloc", times.malloc);
    spans_.add_histogram("runtime.calloc", times.calloc);
    spans_.add_histogram("runtime.realloc", times.realloc);
    spans_.add_histogram("runtime.free", times.free);
    emit_layer_metrics(report_, values);
  }

  /// Sum of masks the protected table must return over the key stream.
  std::uint64_t expected_lookup_mass(
      const std::vector<std::pair<AllocFn, std::uint64_t>>& keys) {
    if (expected_mass_ == 0) {
      const auto patched = median_contexts(traces_);
      const std::unordered_set<std::uint64_t> set(patched.begin(), patched.end());
      for (const auto& key : keys) {
        if (set.count(key.second) != 0) expected_mass_ += ht::patch::kOverflow;
      }
    }
    return expected_mass_;
  }

  const Options& options_;
  Report& report_;
  SpanLog& spans_;
  std::vector<Trace> traces_;
  std::vector<std::vector<Slot>> slots_;
  std::array<std::uint64_t, kTraces> reference_{};
  std::uint64_t ops_ = 0;
  std::uint32_t max_size_ = 0;
  SetupSampler setup_;
  std::uint64_t expected_mass_ = 0;
  std::unique_ptr<PatchTable> protected_table_;
  std::unique_ptr<PatchTable> absent_table_;
  // Allocators after the tables they read.
  std::unique_ptr<ShardedAllocator> protected_;
  std::unique_ptr<ShardedAllocator> forward_;
  std::unique_ptr<ShardedAllocator> no_table_;
  std::unique_ptr<ShardedAllocator> absent_;
};

}  // namespace

void run_spec_replay(const Options& options, Report& report, SpanLog& spans) {
  SpecReplay(options, report, spans).run();
}

}  // namespace perfbench
