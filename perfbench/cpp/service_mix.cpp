// service-mix: a closed loop of two workers on one shared
// ShardedAllocator built over a PatchTableSwap (the preload shim's
// HEAPTHERAPY_RELOAD=1 constructor). Each worker mixes nginx-like and
// mysql-like requests from its own seeded RNG; mysql-like connections
// reopen every few requests. One of two 10,000-entry fleet patch files is
// committed about every 100 ms. Both files patch the service's
// contexts: request bodies UAF (quarantine), responses UNINIT (zero-fill),
// per-connection state OVERFLOW (guard pages on a minority of requests).
// The driving thread commits the reloads while the workers run, so the run
// uses three threads and leaves one CPU of four spare.
//
// Work runs in batches of a fixed request count per worker; protected and
// native (std::malloc) batches alternate, so norm_time is a paired ratio.
// Each round pins the workers to the next pair of CPUs, so every run
// spends the same share of rounds on every pair.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "patch/config_file.hpp"
#include "patch/decision_cache.hpp"
#include "patch/hot_swap.hpp"
#include "patch/patch_table.hpp"
#include "runtime/sharded_allocator.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using ht::patch::Patch;
using ht::progmodel::AllocFn;
using ht::runtime::ShardedAllocator;

// Two workers: with three on a four-CPU host, the protected arm's cost was
// mostly shard-lock waits, and two CPUs kept busy by other load more than
// doubled its p99. Two workers still share every shard lock.
constexpr std::uint32_t kWorkers = 2;
constexpr std::uint64_t kRequestsPerBatch = 20000;  // per worker
constexpr std::size_t kFleetEntries = 10000;
constexpr auto kReloadPeriod = std::chrono::milliseconds(100);
constexpr int kWarmupBatches = 3;

/// The service's allocation contexts, drawn from the seed.
struct Contexts {
  std::uint64_t header, body, response, conn_state, query, row;
};

Contexts make_contexts(std::uint64_t seed) {
  const auto ccid = [seed](std::uint64_t i) {
    return ht::support::mix64(seed * 0x100000001b3ULL + i);
  };
  return Contexts{ccid(1), ccid(2), ccid(3), ccid(4), ccid(5), ccid(6)};
}

/// One fleet patch file: the service's three patched contexts plus
/// unrelated entries drawn from the seed (different in each variant).
std::string make_fleet_file(const Contexts& c, std::uint64_t seed, std::uint64_t variant) {
  std::vector<Patch> patches = {
      Patch{AllocFn::kMalloc, c.body, ht::patch::kUseAfterFree},
      Patch{AllocFn::kMalloc, c.response, ht::patch::kUninitRead},
      Patch{AllocFn::kMalloc, c.conn_state, ht::patch::kOverflow},
  };
  ht::support::Rng rng(seed * 7919 + variant);
  const AllocFn fns[] = {AllocFn::kMalloc, AllocFn::kCalloc, AllocFn::kRealloc};
  while (patches.size() < kFleetEntries) {
    patches.push_back(Patch{fns[rng.below(3)], rng.next(),
                            static_cast<std::uint8_t>(1 + rng.below(7))});
  }
  return ht::patch::serialize_config(patches);
}

/// Per-worker state. Cache-line aligned: workers write their own counters.
struct alignas(64) Worker {
  Worker(std::uint32_t index, std::uint64_t seed) : index(index), rng(seed) {}
  const std::uint32_t index;
  int cpu = -1;  ///< the CPU this worker is pinned to, or -1
  ht::support::Rng rng;
  std::uint64_t acc = 0;
  // mysql-like connection
  void* conn_state = nullptr;
  void* query = nullptr;
  std::size_t query_capacity = 0;
  std::uint64_t conn_requests_left = 0;
  // protected-arm accounting
  std::uint64_t alloc_calls = 0;
  std::uint64_t nulls = 0;
  std::uint64_t dirty_responses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  double batch_s = 0;  ///< this worker's time for its share of the last batch
  Histogram latency;
  // traced protected arm
  Histogram malloc_ns, calloc_ns, realloc_ns, free_ns, handler_ns;
  double call_ns = 0;
  double request_call_ns = 0;
};

struct NativeHeap {
  Worker& w;
  static constexpr bool kProtected = false;
  void* malloc(std::size_t n, std::uint64_t) { return std::malloc(n); }
  void* calloc(std::size_t n, std::uint64_t) { return std::calloc(1, n); }
  void* realloc(void* p, std::size_t n, std::uint64_t) { return std::realloc(p, n); }
  void free(void* p) { std::free(p); }
};

/// The shared allocator; with kTimed every call is timed into the worker.
template <bool kTimed>
struct SharedHeap {
  Worker& w;
  ShardedAllocator& a;
  static constexpr bool kProtected = true;

  template <class Call>
  auto timed(Histogram& h, Call&& call) {
    if constexpr (kTimed) {
      const std::uint64_t t0 = now_ns();
      auto r = call();
      const std::uint64_t dt = now_ns() - t0;
      h.record(dt);
      w.request_call_ns += static_cast<double>(dt);
      return r;
    } else {
      (void)h;
      return call();
    }
  }
  void* malloc(std::size_t n, std::uint64_t ccid) {
    ++w.alloc_calls;
    return timed(w.malloc_ns, [&] { return a.malloc(n, ccid); });
  }
  void* calloc(std::size_t n, std::uint64_t ccid) {
    ++w.alloc_calls;
    return timed(w.calloc_ns, [&] { return a.calloc(1, n, ccid); });
  }
  void* realloc(void* p, std::size_t n, std::uint64_t ccid) {
    ++w.alloc_calls;
    return timed(w.realloc_ns, [&] { return a.realloc(p, n, ccid); });
  }
  void free(void* p) {
    timed(w.free_ns, [&] {
      a.free(p);
      return 0;
    });
  }
};

std::uint64_t touch(void* p, std::size_t n, std::uint64_t acc) {
  auto* bytes = static_cast<unsigned char*>(p);
  const std::size_t step = n > 256 ? n / 128 : 1;
  for (std::size_t i = 0; i < n; i += step) {
    bytes[i] = static_cast<unsigned char>(acc + i);
    acc = acc * 31 + bytes[i];
  }
  return acc;
}

/// Nginx-like request: header, body and response buffers, all freed at
/// the end of the request.
template <class Heap>
void nginx_request(Heap& heap, Worker& w, const Contexts& c) {
  const std::size_t body_size = 256 + w.rng.below(4096);
  void* headers = heap.malloc(1024, c.header);
  void* body = heap.malloc(body_size, c.body);
  void* response = heap.malloc(body_size + 512, c.response);
  if (headers == nullptr || body == nullptr || response == nullptr) {
    ++w.nulls;
  } else {
    // The response context is UNINIT-patched: its tail must read zero.
    if (Heap::kProtected) {
      w.dirty_responses += static_cast<unsigned char*>(response)[body_size + 511] != 0;
    }
    w.acc = touch(headers, 1024, w.acc);
    w.acc = touch(body, body_size, w.acc);
    for (int i = 0; i < 300; ++i) w.acc = w.acc * 6364136223846793005ULL + 1;
    std::memcpy(response, body, body_size);
    w.acc = touch(response, body_size + 512, w.acc);
  }
  heap.free(headers);
  heap.free(body);
  heap.free(response);
}

template <class Heap>
void close_connection(Heap& heap, Worker& w) {
  heap.free(w.conn_state);
  heap.free(w.query);
  w.conn_state = nullptr;
  w.query = nullptr;
  w.query_capacity = 0;
  w.conn_requests_left = 0;
}

/// MySQL-like request on the worker's connection: connection state
/// (opened on the first request), a query buffer grown with realloc, and a
/// few zeroed result rows.
template <class Heap>
void mysql_request(Heap& heap, Worker& w, const Contexts& c) {
  if (w.conn_state == nullptr) {
    w.conn_state = heap.malloc(4096, c.conn_state);
    w.conn_requests_left = 4 + w.rng.below(13);
    if (w.conn_state == nullptr) {
      ++w.nulls;
      return;
    }
  }
  w.acc = touch(w.conn_state, 4096, w.acc);
  const std::size_t query_len = 64 + w.rng.below(2048);
  if (query_len > w.query_capacity) {
    void* grown = heap.realloc(w.query, query_len, c.query);
    if (grown == nullptr) {
      ++w.nulls;
      return;
    }
    w.query = grown;
    w.query_capacity = query_len;
  }
  w.acc = touch(w.query, query_len, w.acc);
  for (int i = 0; i < 500; ++i) w.acc = w.acc * 2862933555777941757ULL + 3037000493ULL;
  const std::uint64_t rows = 1 + w.rng.below(8);
  for (std::uint64_t r = 0; r < rows; ++r) {
    void* row = heap.calloc(128 + w.rng.below(256), c.row);
    if (row == nullptr) {
      ++w.nulls;
      continue;
    }
    w.acc = touch(row, 128, w.acc);
    heap.free(row);
  }
  if (--w.conn_requests_left == 0) close_connection(heap, w);
}

template <class Heap>
void run_batch(Heap heap, Worker& w, const Contexts& c, bool traced) {
  auto& cache = ht::patch::DecisionCache::for_current_thread();
  const std::uint64_t h0 = cache.hits();
  const std::uint64_t m0 = cache.misses();
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0; i < kRequestsPerBatch; ++i) {
    w.request_call_ns = 0;
    const std::uint64_t t0 = now_ns();
    if (w.rng.chance(0.5)) {
      nginx_request(heap, w, c);
    } else {
      mysql_request(heap, w, c);
    }
    const std::uint64_t dt = now_ns() - t0;
    if (traced) {
      w.handler_ns.record(
          dt - std::min<std::uint64_t>(dt, static_cast<std::uint64_t>(w.request_call_ns)));
      w.call_ns += w.request_call_ns;
    } else {
      w.latency.record(dt);
    }
  }
  // Connections do not outlive a batch, so no block crosses arms.
  close_connection(heap, w);
  w.batch_s = seconds_since(start);
  if (Heap::kProtected) {
    w.cache_hits += cache.hits() - h0;
    w.cache_lookups += cache.hits() - h0 + cache.misses() - m0;
  }
}

enum class Arm { kNative, kProtected, kTimed, kStop };

class ServiceMix {
 public:
  ServiceMix(const Options& options, Report& report, SpanLog& spans)
      : options_(options), report_(report), spans_(spans),
        contexts_(make_contexts(options.seed)), placements_(make_placements()) {}

  void run() {
    files_[0] = make_fleet_file(contexts_, options_.seed, 0);
    files_[1] = make_fleet_file(contexts_, options_.seed, 1);
    std::uint64_t digest = 0;
    for (const std::string& f : files_) {
      digest = fold(digest, ht::support::fnv1a64(f));
    }
    digest = fold(digest, contexts_.body);
    std::printf("inputs digest %016llx (2 fleet files x %zu patches)\n",
                static_cast<unsigned long long>(digest), kFleetEntries);
    build(swap_, allocator_);
    if (!options_.trace) sample_setup();

    for (std::uint32_t t = 0; t < kWorkers; ++t) {
      workers_.push_back(std::make_unique<Worker>(t, options_.seed * 1000 + t));
    }
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kWorkers; ++t) {
      threads.emplace_back([this, t] { worker_loop(*workers_[t]); });
    }
    Batches b;
    try {
      b = measure();
    } catch (...) {
      stop_workers(threads);
      throw;
    }
    stop_workers(threads);
    check_outputs();
    if (options_.trace) {
      report_layers(b.protected_s, b.timed_s);
    } else {
      report_end_to_end(b);
    }
  }

 private:
  struct Batches {
    std::vector<double> protected_s, timed_s;
    std::vector<double> ratios;         ///< protected / native, per round
    std::vector<std::size_t> placement;  ///< index into placements_, per round
  };

  /// Warm-up, then rounds of alternating batches until the run's time is
  /// up. While workers run a batch, this thread commits the fleet files.
  Batches measure() {
    Batches b;
    next_reload_ = std::chrono::steady_clock::now() + kReloadPeriod;
    // Warm-up: a few batches per arm (the quarantine fills, caches and
    // arenas settle), then reset the accounting so only measured batches
    // count toward the metrics.
    for (int i = 0; i < kWarmupBatches; ++i) {
      placement_ = static_cast<std::size_t>(i) % placements_.size();
      batch(Arm::kNative);
      batch(Arm::kProtected);
    }
    for (auto& w : workers_) {
      w->cache_hits = w->cache_lookups = 0;
    }
    protected_lat_ = BatchLatency();
    native_lat_ = BatchLatency();
    const std::uint64_t start = now_ns();
    const auto min_rounds = static_cast<int>(std::max<std::size_t>(3, placements_.size()));
    for (int round = 0; round < min_rounds || seconds_since(start) < options_.seconds;
         ++round) {
      placement_ = static_cast<std::size_t>(round) % placements_.size();
      b.placement.push_back(placement_);
      // Rotate arm order each round so no arm always follows another.
      std::vector<Arm> arms = {Arm::kNative, Arm::kProtected};
      if (options_.trace) arms.push_back(Arm::kTimed);
      std::rotate(arms.begin(), arms.begin() + round % arms.size(), arms.end());
      double native = 0;
      double protected_time = 0;
      for (Arm arm : arms) {
        const double s = batch(arm);
        if (arm == Arm::kNative) native = s;
        if (arm == Arm::kProtected) b.protected_s.push_back(protected_time = s);
        if (arm == Arm::kTimed) b.timed_s.push_back(s);
      }
      b.ratios.push_back(protected_time / native);
      if (!options_.trace) sample_setup();
    }
    report_.check(!reload_ms_.empty(), "service-mix: reloads ran");
    return b;
  }

  /// Commits the next fleet file (the two alternate) and records the
  /// reload's duration and outcome.
  void reload() {
    const std::uint64_t t0 = now_ns();
    const ht::patch::ReloadResult result =
        swap_->reload_from_text(files_[reload_ms_.size() % 2]);
    const std::uint64_t t1 = now_ns();
    spans_.add("patch.reload_from_text", t0, t1);
    reload_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
    report_.check(result.applied && result.patch_count == kFleetEntries,
                  "service-mix: reload applied");
  }

  /// Releases the workers from their barrier with the stop arm and joins them.
  void stop_workers(std::vector<std::thread>& threads) {
    batch(Arm::kStop);
    for (std::thread& th : threads) th.join();
  }

  /// Parses the fleet file, freezes its table, and builds the allocator
  /// over a PatchTableSwap; returns the seconds taken.
  double build(std::unique_ptr<ht::patch::PatchTableSwap>& swap,
               std::unique_ptr<ShardedAllocator>& allocator) {
    allocator.reset();
    swap.reset();
    const std::uint64_t t0 = now_ns();
    const ht::patch::ParseResult parsed = ht::patch::parse_config(files_[0]);
    swap = std::make_unique<ht::patch::PatchTableSwap>(
        ht::patch::PatchTable(parsed.patches, /*freeze=*/true));
    allocator = std::make_unique<ShardedAllocator>(*swap);
    const double s = seconds_since(t0);
    report_.check(parsed.ok() && parsed.patches.size() == kFleetEntries,
                  "service-mix: fleet file parses");
    return s;
  }

  /// Set-up samples: throwaway builds on every CPU, taken at start-up and
  /// while the workers wait between rounds, so set-up is sampled across
  /// the whole run.
  void sample_setup() {
    setup_.sample([this] {
      std::unique_ptr<ht::patch::PatchTableSwap> swap;
      std::unique_ptr<ShardedAllocator> allocator;
      return build(swap, allocator);
    });
  }

  /// Runs one batch on every worker. Returns the median worker's time to
  /// serve its share: the batch's wall time is the slowest worker's, which
  /// a single descheduled CPU can stretch.
  double batch(Arm arm) {
    arm_ = arm;
    const std::uint64_t t0 = now_ns();
    start_.arrive_and_wait();
    if (arm == Arm::kStop) return 0;
    {
      // Wait for the workers, committing a fleet file whenever one is due.
      std::unique_lock<std::mutex> lock(done_mutex_);
      while (!done_cv_.wait_until(lock, next_reload_,
                                  [this] { return done_count_ == kWorkers; })) {
        lock.unlock();
        reload();
        next_reload_ = std::max(next_reload_ + kReloadPeriod,
                                std::chrono::steady_clock::now());
        lock.lock();
      }
      done_count_ = 0;
    }
    const std::uint64_t t1 = now_ns();
    if (arm != Arm::kTimed) {
      // Latency percentiles per batch; the run reports their medians, so
      // a transient stall moves a few batches, not the result.
      Histogram latency;
      for (auto& w : workers_) {
        latency.merge(w->latency);
        w->latency = Histogram();
      }
      BatchLatency& to = arm == Arm::kProtected ? protected_lat_ : native_lat_;
      to.p50_us.push_back(latency.percentile(0.5) / 1e3);
      to.p99_us.push_back(latency.percentile(0.99) / 1e3);
      to.samples += latency.count();
    }
    static constexpr const char* kNames[] = {"service.batch.native", "service.batch.protected",
                                             "service.batch.timed"};
    spans_.add(kNames[static_cast<int>(arm)], t0, t1);
    std::vector<double> worker_s;
    for (const auto& w : workers_) worker_s.push_back(w->batch_s);
    return median(worker_s);
  }

  void worker_loop(Worker& w) {
    for (;;) {
      start_.arrive_and_wait();
      const Arm arm = arm_;
      if (arm == Arm::kStop) return;
      const std::vector<int>& cpus = placements_[placement_];
      if (!cpus.empty() && cpus[w.index] != w.cpu && pin_to_cpu(cpus[w.index])) {
        w.cpu = cpus[w.index];
      }
      if (arm == Arm::kNative) {
        run_batch(NativeHeap{w}, w, contexts_, false);
      } else if (arm == Arm::kProtected) {
        run_batch(SharedHeap<false>{w, *allocator_}, w, contexts_, false);
      } else {
        run_batch(SharedHeap<true>{w, *allocator_}, w, contexts_, true);
      }
      const std::lock_guard<std::mutex> lock(done_mutex_);
      if (++done_count_ == kWorkers) done_cv_.notify_one();
    }
  }

  void check_outputs() {
    const auto stats = allocator_->stats_snapshot();
    std::uint64_t calls = 0;
    std::uint64_t nulls = 0;
    std::uint64_t dirty = 0;
    for (const auto& w : workers_) {
      calls += w->alloc_calls;
      nulls += w->nulls;
      dirty += w->dirty_responses;
    }
    report_.tally(calls, nulls, "service-mix: allocation returned null");
    report_.check(calls == stats.interceptions,
                  "service-mix: allocator calls equal stats_snapshot().interceptions");
    report_.tally(calls, dirty, "service-mix: UNINIT-patched response not zero-filled");
    report_.check(stats.guard_pages > 0 && stats.zero_fills > 0 &&
                      stats.quarantined_frees > 0,
                  "service-mix: every patched context was enhanced");
  }

  void report_end_to_end(const Batches& b) {
    const std::vector<double>& protected_s = b.protected_s;
    const double requests = static_cast<double>(protected_s.size()) * kWorkers *
                            static_cast<double>(kRequestsPerBatch);
    char note[96];
    std::snprintf(note, sizeof(note), "protected/native worker time, %zu rounds on %zu placements",
                  b.ratios.size(), placements_.size());
    report_.metric("norm_time", geomean_of_group_medians(b.ratios, b.placement), "ratio", note);
    const double p99 = median(protected_lat_.p99_us);
    std::snprintf(note, sizeof(note), "protected p99 / native p50 request latency, n=%llu",
                  static_cast<unsigned long long>(protected_lat_.samples));
    // Each round's protected p99 against its native neighbour's median
    // request, so that host drift over the run cancels. The native p99 is
    // glibc's own tail and moved by 10-20% between processes; its median
    // request did not.
    std::vector<double> p99_ratios;
    for (std::size_t i = 0; i < protected_lat_.p99_us.size(); ++i) {
      p99_ratios.push_back(protected_lat_.p99_us[i] / native_lat_.p50_us[i]);
    }
    report_.metric("lat_p99_ratio", geomean_of_group_medians(p99_ratios, b.placement), "ratio",
                   note);
    char setup_note[64];
    std::snprintf(setup_note, sizeof(setup_note), "%zu parse + freeze + builds",
                  setup_.count());
    report_.metric("setup_s", setup_.value(), "s", setup_note);
    report_.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::snprintf(note, sizeof(note), "median worker time for %llu requests",
                  static_cast<unsigned long long>(kRequestsPerBatch));
    Report::info("pass_s", median(protected_s), "s", note);
    Report::info("lat_p50_us", median(protected_lat_.p50_us), "us", "protected requests");
    Report::info("lat_p99_us", p99, "us", "protected requests");
    Report::info("native_lat_p50_us", median(native_lat_.p50_us), "us", "native requests");
    Report::info("native_lat_p99_us", median(native_lat_.p99_us), "us", "native requests");
    Report::info("rps", requests / sum(protected_s), "1/s", "protected batches");
    Report::info("reloads", static_cast<double>(reload_ms_.size()), "count");
  }

  void report_layers(const std::vector<double>& protected_s,
                     const std::vector<double>& timed_s) {
    Histogram malloc_ns, calloc_ns, realloc_ns, free_ns, handler_ns;
    double call_ns = 0;
    double worker_s = 0;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const auto& w : workers_) {
      malloc_ns.merge(w->malloc_ns);
      calloc_ns.merge(w->calloc_ns);
      realloc_ns.merge(w->realloc_ns);
      free_ns.merge(w->free_ns);
      handler_ns.merge(w->handler_ns);
      call_ns += w->call_ns;
      hits += w->cache_hits;
      lookups += w->cache_lookups;
    }
    worker_s = sum(timed_s) * kWorkers;
    const auto stats = allocator_->stats_snapshot();
    double max_shard = 0;
    for (std::uint32_t s = 0; s < allocator_->shard_count(); ++s) {
      max_shard = std::max(max_shard,
                           static_cast<double>(allocator_->shard_stats(s).interceptions));
    }
    LayerValues v;
    v["runtime.malloc_ns.p50"] = malloc_ns.percentile(0.5);
    v["runtime.malloc_ns.p99"] = malloc_ns.percentile(0.99);
    v["runtime.free_ns.p50"] = free_ns.percentile(0.5);
    v["runtime.free_ns.p99"] = free_ns.percentile(0.99);
    v["runtime.realloc_ns.p50"] = realloc_ns.percentile(0.5);
    v["runtime.calloc_ns.p50"] = calloc_ns.percentile(0.5);
    v["runtime.call_share"] = call_ns / 1e9 / worker_s;
    v["patch.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
    v["patch.reload_ms.p50"] = quantile(reload_ms_, 0.5);
    v["patch.reload_ms.max"] = quantile(reload_ms_, 1.0);
    v["runtime.enhanced_frac"] =
        static_cast<double>(stats.enhanced) / static_cast<double>(stats.interceptions);
    v["runtime.guard_pages"] = static_cast<double>(stats.guard_pages);
    v["runtime.zero_fills"] = static_cast<double>(stats.zero_fills);
    v["runtime.quarantined_frees"] = static_cast<double>(stats.quarantined_frees);
    v["runtime.quarantine_bytes"] = static_cast<double>(allocator_->quarantined_bytes());
    v["runtime.shard_skew"] = max_shard / (static_cast<double>(stats.interceptions) /
                                           allocator_->shard_count());
    v["workload.handler_us.p50"] = handler_ns.percentile(0.5) / 1e3;
    v["trace.overhead_frac"] = median(timed_s) / median(protected_s) - 1;
    spans_.add_histogram("runtime.malloc", malloc_ns);
    spans_.add_histogram("runtime.calloc", calloc_ns);
    spans_.add_histogram("runtime.realloc", realloc_ns);
    spans_.add_histogram("runtime.free", free_ns);
    spans_.add_histogram("workload.handler", handler_ns);
    emit_layer_metrics(report_, v);
  }

  /// Every way to put the workers on distinct CPUs of allowed_cpus() (six
  /// pairs on a four-CPU host). With too few CPUs the one placement is
  /// unpinned.
  static std::vector<std::vector<int>> make_placements() {
    const std::vector<int> cpus = allowed_cpus();
    std::vector<std::vector<int>> placements;
    if (cpus.size() < kWorkers) return {{}};
    static_assert(kWorkers == 2, "placements are CPU pairs");
    for (std::size_t a = 0; a < cpus.size(); ++a) {
      for (std::size_t b = a + 1; b < cpus.size(); ++b) {
        placements.push_back({cpus[a], cpus[b]});
      }
    }
    return placements;
  }

  const Options& options_;
  Report& report_;
  SpanLog& spans_;
  const Contexts contexts_;
  const std::vector<std::vector<int>> placements_;
  std::size_t placement_ = 0;  // written before start_, read after it
  std::string files_[2];
  std::unique_ptr<ht::patch::PatchTableSwap> swap_;
  std::unique_ptr<ShardedAllocator> allocator_;  // after the swap it reads
  SetupSampler setup_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<double> reload_ms_;
  struct BatchLatency {
    std::vector<double> p50_us, p99_us;  ///< per batch
    std::uint64_t samples = 0;
  };
  BatchLatency protected_lat_;
  BatchLatency native_lat_;
  std::chrono::steady_clock::time_point next_reload_;
  Arm arm_ = Arm::kNative;  // written before start_, read after it
  std::barrier<> start_{kWorkers + 1};
  std::mutex done_mutex_;  ///< guards done_count_
  std::condition_variable done_cv_;
  std::uint32_t done_count_ = 0;  ///< workers finished with the batch
};

}  // namespace

void run_service_mix(const Options& options, Report& report, SpanLog& spans) {
  ServiceMix(options, report, spans).run();
}

}  // namespace perfbench
