// perfbench: wall-clock benchmark of the clMPI simulator.
//
//   perfbench --workload himeno|nanopowder|msg_rate --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--git SHA]
//
// Prints a stamped report; the last line is the result JSON. See README.md.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  // One malloc arena, set before any thread starts. With glibc's default of
  // an arena per thread, which arena each Cluster::run's new threads attach
  // to depends on thread timing, and peak RSS landed on one of several
  // levels from process to process (himeno: 250 or 358 MB).
  mallopt(M_ARENA_MAX, 1);
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--spans-out") {
      o.spans_out = value;
    } else if (arg == "--git") {
      o.git = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || !(o.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload himeno|nanopowder|msg_rate --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE] [--git SHA]\n");
    return 2;
  }
  return perfbench::run(o);
}
