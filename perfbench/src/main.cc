// datacell_bench: one workload of the DataCell end-to-end benchmark.
//
//   datacell_bench --workload <ingest_durable|shared_windows|open_loop_mixed>
//                  --seed N --seconds S --trace 0|1
//                  [--scale X] [--work-dir DIR] [--deadline S]
//
// Prints a human summary, COUNTS/DIGEST lines for the stability checks,
// and as its last line the JSON result: {"correct", "attempted",
// "failed", "metrics"}. perfbench/run.py builds and runs it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "util/logging.h"

namespace {

int Usage(const char* msg) {
  fprintf(stderr,
          "datacell_bench: %s\nusage: datacell_bench --workload W --seed N "
          "--seconds S --trace 0|1 [--scale X] [--work-dir DIR] "
          "[--deadline S]\n",
          msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dc::perfbench;
  Options opt;
  opt.work_dir = ".bench_build/perfbench/run";
  double deadline = 170;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else if (key == "--scale") {
      opt.scale = std::atof(val);
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else if (key == "--deadline") {
      deadline = std::atof(val);
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (opt.seconds <= 0 || opt.scale <= 0) return Usage("bad --seconds/--scale");
  RunResult (*run)(const Options&, Tally&) = nullptr;
  if (opt.workload == "shared_windows") run = RunSharedWindows;
  if (opt.workload == "ingest_durable") run = RunIngestDurable;
  if (opt.workload == "open_loop_mixed") run = RunOpenLoopMixed;
  if (run == nullptr) return Usage("unknown --workload");

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return Usage(("cannot create " + opt.work_dir).c_str());
  // Engine warnings (e.g. a failed periodic checkpoint) go to stderr.
  dc::SetLogLevel(dc::LogLevel::kWarn);

  Tally tally;
  StartWatchdog(deadline, &tally);
  const RunResult result = run(opt, tally);
  StopWatchdog();
  PrintResult(result, tally);
  std::filesystem::remove_all(opt.work_dir, ec);
  return 0;
}
