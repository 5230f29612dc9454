// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir>
//   perfbench --self-test --data-dir <dir>
//   perfbench --list-metrics
//
// Prints host facts and workload sizes as JSON lines, then one result line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see workloads.cpp). perfbench/run.py builds and runs it.
#include <sys/statfs.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <string>
#include <thread>

#include "kit.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
int self_test(const std::string& data_dir);  // selftest.cpp
}

namespace {

using namespace perfbench;

std::string fs_name(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x5346544E: return "ntfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

/// Ask the async file storage which read path it runs, as CI's probe does.
std::string async_read_path(const std::string& dir) {
  const std::string path = dir + "/io_uring_probe.bin";
  std::string mode;
  {
    AsyncFileBlockStorage probe(path, 1, 4096);
    mode = probe.io_uring_active() ? "io_uring" : "thread-pool preads";
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return mode;
}

void print_list(const char* key, const MetricList& list) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < list.size(); ++i) {
    std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", list[i].first.c_str(),
                list[i].second.c_str());
  }
  std::printf("]");
}

/// The workload and metric names as JSON, for cross-checking BENCHMARK.json.
void print_metric_lists() {
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", workload_names()[i].c_str());
  }
  std::printf("], ");
  print_list("end_to_end", end_to_end_metrics());
  std::printf(", ");
  print_list("per_layer", per_layer_metrics());
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --data-dir <dir>\n"
               "       perfbench --self-test --data-dir <dir>\n"
               "       perfbench --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self = false, list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = next();
      else if (a == "--seed") opt.seed = std::stoull(next());
      else if (a == "--seconds") opt.seconds = std::stoi(next());
      else if (a == "--trace") opt.trace = std::stoi(next()) != 0;
      else if (a == "--data-dir") opt.data_dir = next();
      else if (a == "--self-test") self = true;
      else if (a == "--list-metrics") list = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build (Release "
                 "required)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (list) {
    print_metric_lists();
    return 0;
  }
  if (opt.data_dir.empty()) return usage();
  std::filesystem::create_directories(opt.data_dir);
  if (self) return self_test(opt.data_dir);
  if (opt.workload.empty() || opt.seconds < 1) return usage();

  std::printf(
      "{\"host\": {\"nproc\": %u, \"async_read_path\": \"%s\", "
      "\"build_type\": \"%s\", \"block_file_fs\": \"%s\"}}\n",
      std::thread::hardware_concurrency(), async_read_path(opt.data_dir).c_str(),
      PERFBENCH_BUILD_TYPE, fs_name(opt.data_dir).c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    out = run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("{\"info\": %s}\n", out.info.c_str());
  if (!out.valid) {
    std::fprintf(stderr,
                 "perfbench: run invalid: the open-loop generator fell behind "
                 "its schedule\n");
    return 4;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.json().c_str());
  return 0;
}
