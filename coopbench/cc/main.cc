// coopbench: the Cooper benchmark program.
//
//   coopbench --workload <kitti_pair|tj_lot4_lossy|edge_fleet64> --seed N
//             [--seconds S] [--trace 0|1] [--trace-out FILE] [--frames N]
//             [--setups N] [--part N] [--tiny]
//
// Prints one JSON record of raw measurements (samples, counters, output
// digests) on stdout; coopbench/run.py turns it into the benchmark's result
// line and checks the digests against the stored references.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  coopbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (arg == "--frames" && has_value) {
      opts.frames = std::atoi(argv[++i]);
    } else if (arg == "--setups" && has_value) {
      opts.setups = std::atoi(argv[++i]);
    } else if (arg == "--part" && has_value) {
      opts.part = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "coopbench: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.workload == "kitti_pair" || opts.workload == "tj_lot4_lossy") {
    return coopbench::RunVehicleWorkload(opts);
  }
  if (opts.workload == "edge_fleet64") return coopbench::RunEdgeWorkload(opts);
  std::fprintf(stderr, "coopbench: unknown workload '%s'\n",
               opts.workload.c_str());
  return 2;
}
