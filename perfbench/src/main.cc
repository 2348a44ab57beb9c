// Edge-path benchmark binary (`edgebench`).
//
//   edgebench --workload stream|learn --seed N --seconds S
//                    --trace 0|1 [--tiny] [--inject CHECK] [--out-dir DIR]
//
// --trace 0 measures the workload end to end and prints the end-to-end
// metrics. --trace 1 runs the traced layer profile of the stream, learn and
// gateway paths (the named workload's for S seconds, the others briefly)
// and prints the per-layer metrics. The last stdout line is the result
// object; the full report (host stamp, details) and the Chrome trace go to
// --out-dir.
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad usage or a non-Release build, 3 when set-up could not run.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common.h"
#include "tracer.h"

namespace {

using namespace perfbench;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: edgebench --workload "
               "stream|learn --seed N --seconds S --trace 0|1 [--tiny] "
               "[--inject stream_fingerprint|fleet_predictions|provisioning|"
               "learn_bundle] [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n",
               message);
  return 2;
}

bool ParseInject(const std::string& v, Check* out) {
  if (v == "stream_fingerprint") *out = Check::kStreamFingerprint;
  else if (v == "fleet_predictions") *out = Check::kFleetPredictions;
  else if (v == "provisioning") *out = Check::kProvisioning;
  else if (v == "learn_bundle") *out = Check::kLearnBundle;
  else return false;
  return true;
}

/// Traced runs give the named workload's path the full run length and the
/// other paths this much, so every per-layer metric is present in every
/// traced run.
constexpr double kOtherPathSeconds = 2.0;

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        return Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--inject") {
      if (!ParseInject(value, &args.inject)) return Usage("unknown --inject");
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "stream" && args.workload != "learn") {
    return Usage("--workload must be stream or learn");
  }
  if (!have_trace) return Usage("--trace is required");
  if (!IsReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  const Scale scale = MakeScale(args.tiny);
  Report report;
  const size_t pool_threads =
      args.workload == "learn" ? kLearnPoolThreads : kStreamPoolThreads;
  const size_t serve_threads = args.trace ? kFleetServeThreads : 0;
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");

  if (!args.trace) {
    if (args.workload == "stream") {
      RunStream(args, scale, args.seconds, nullptr, &report);
    } else {
      RunLearn(args, scale, args.seconds, nullptr, &report);
    }
  } else {
    Tracer tracer;
    auto share = [&](const char* w) {
      return args.workload == w ? args.seconds
                                : std::min(args.seconds, kOtherPathSeconds);
    };
    RunStream(args, scale, share("stream"), &tracer, &report);
    RunLearn(args, scale, share("learn"), &tracer, &report);
    RunFleet(args, scale, std::min(args.seconds, kOtherPathSeconds), &tracer,
             &report);
    const std::string trace_path = stem + ".trace.json";
    if (!tracer.WriteChromeTrace(trace_path, 40000)) {
      report.Fail("trace_file", "cannot write " + trace_path);
    }
    report.DetailText("trace_file", trace_path);
    report.Detail("trace.spans", static_cast<double>(tracer.num_spans()));
  }

  const std::string stamp = HostStampJson(args, pool_threads, serve_threads);
  std::printf("perfbench-stamp %s\n", stamp.c_str());
  for (const auto& [name, value] : report.metrics()) {
    std::printf("%-44s %16.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  const std::string report_path = stem + ".report.json";
  std::FILE* f = std::fopen(report_path.c_str(), "w");
  if (f != nullptr) {
    std::fputs(report.ToJson(stamp).c_str(), f);
    std::fclose(f);
  }
  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
