// mbts_bench: the C++ half of the end-to-end benchmark (benchmark/README.md).
// benchmark/run.py builds it and drives every workload through it:
//
//   mbts_bench info            build type, compiler and core count (JSON)
//   mbts_bench exec            run a program, report wall time and peak RSS
//   mbts_bench serve           a serve workload against the real mbts_serve
//   mbts_bench serve-replay    traced replay of a serve run
//   mbts_bench market          market_wide, gated or --traced
//   mbts_bench fig6            fig6_batch set-up, bid latency, --traced
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace bench {

int serve_main(int argc, const char* const* argv);
int serve_replay_main(int argc, const char* const* argv);
int market_main(int argc, const char* const* argv);
int fig6_main(int argc, const char* const* argv);

namespace {

/// How this harness (and so the whole tree built beside it) was compiled;
/// run.py refuses anything but "release" (tools/bench_serve.sh's guard).
const char* build_type() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return "release";
#elif defined(__OPTIMIZE__)
  return "optimized-with-asserts";
#else
  return "debug";
#endif
}

int info_main() {
  JsonObject json;
  json.add("build_type", build_type());
  json.add("cmake_build_type", MBTS_BENCH_BUILD_TYPE);
  json.add("compiler", std::string("g++ ") + __VERSION__);
  json.add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  std::cout << json.str() << '\n';
  return 0;
}

/// Runs argv[2..] with stdout discarded and prints its wall time, exit
/// code and peak RSS. The peak comes from wait4(): a child Python spawns
/// directly would report the Python process's own RSS when that is larger,
/// because the peak is carried across exec from the memory the child
/// started in; this process is small, so the peak is the program's own.
int timed_exec_main(int argc, char** argv) {
  MBTS_CHECK_MSG(argc > 2, "usage: mbts_bench exec PROGRAM [ARGS...]");
  const Clock::time_point start = Clock::now();
  const pid_t pid = ::fork();
  MBTS_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) ::dup2(null, STDOUT_FILENO);
    ::execv(argv[2], argv + 2);
    std::perror(argv[2]);
    ::_exit(127);
  }
  int status = 0;
  rusage usage{};
  MBTS_CHECK_MSG(::wait4(pid, &status, 0, &usage) == pid, "wait4() failed");
  JsonObject json;
  json.add("wall_s", seconds_between(start, Clock::now()));
  json.add("code", WIFEXITED(status) ? WEXITSTATUS(status) : 128.0);
  json.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::cout << json.str() << '\n';
  return 0;
}

int run(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  // Each subcommand parses its own flags; argv[1] stands in for argv[0].
  if (command == "info") return info_main();
  if (command == "exec") return timed_exec_main(argc, argv);
  if (command == "serve") return serve_main(argc - 1, argv + 1);
  if (command == "serve-replay") return serve_replay_main(argc - 1, argv + 1);
  if (command == "market") return market_main(argc - 1, argv + 1);
  if (command == "fig6") return fig6_main(argc - 1, argv + 1);
  std::cerr << "usage: mbts_bench "
               "info|exec|serve|serve-replay|market|fig6 "
               "[flags]\n";
  return 2;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  try {
    return bench::run(argc, argv);
  } catch (const mbts::CheckError& e) {
    std::cerr << "mbts_bench: " << e.what() << '\n';
    return 1;
  }
}
