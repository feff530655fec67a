// htperf: the repository benchmark program.
//
//   htperf --workload <spec-replay|service-mix|offline-replay> --seed <n>
//          --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints a human-readable report and, as its last line, one JSON object
// with `correct`, `attempted`, `failed` and `metrics`. The untraced run
// reports the end-to-end metrics; the traced run (--trace 1) reports the
// per-layer metrics and writes its spans to <trace-dir>. Exits nonzero
// when any output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: htperf --workload <spec-replay|service-mix|offline-replay> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && parse_u64(value, n)) {
      options.seed = n;
    } else if (arg == "--seconds" && parse_u64(value, n) && n > 0) {
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_u64(value, n) && n <= 1) {
      options.trace = n == 1;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage();
    }
  }
  using RunFn = void (*)(const perfbench::Options&, perfbench::Report&, perfbench::SpanLog&);
  RunFn run = nullptr;
  if (options.workload == "spec-replay") run = perfbench::run_spec_replay;
  if (options.workload == "service-mix") run = perfbench::run_service_mix;
  if (options.workload == "offline-replay") run = perfbench::run_offline_replay;
  if (run == nullptr) return usage();

  std::printf("== htperf %s seed %llu seconds %.0f trace %d ==\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  perfbench::Report report;
  perfbench::SpanLog spans(options.trace);
  try {
    run(options, report, spans);
  } catch (const std::exception& e) {
    std::printf("ERROR: %s\n", e.what());
    return 1;
  }
  if (options.trace && !options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    report.check(spans.write_json(path), "write spans to " + path);
  }
  std::printf("attempted %llu failed %llu fail_frac %.6g\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              report.attempted() ? static_cast<double>(report.failed()) /
                                       static_cast<double>(report.attempted())
                                 : 1.0);
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
