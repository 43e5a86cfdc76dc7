// perfbench_driver <command> [--flag value]...
//
// Commands: prep, load, replay (served workloads); dup-gen, dup,
// dup-replay (dup_replay). See perfbench/README.md.
#include <cstdlib>
#include <sstream>

#include "perfbench/driver/driver.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver {prep|load|replay|dup-gen|dup|"
               "dup-replay} [--workload w] [--seed n] [--port p]\n"
               "       [--seconds s] [--phases a,b] [--spans file] "
               "[--store dir] [--work dir]\n"
               "       [--trace file] [--requests n] [--query-ratio r]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  perfbench::Args args;
  for (int a = 2; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const char* value = argv[a + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--port") args.port = std::atoi(value);
    else if (flag == "--seconds") args.seconds = std::atof(value);
    else if (flag == "--spans") args.spans = value;
    else if (flag == "--store") args.store = value;
    else if (flag == "--work") args.work = value;
    else if (flag == "--trace") args.trace = value;
    else if (flag == "--requests") {
      args.requests = std::strtoull(value, nullptr, 10);
    } else if (flag == "--query-ratio") {
      args.query_ratio = std::atof(value);
    } else if (flag == "--phases") {
      std::stringstream list(value);
      for (std::string p; std::getline(list, p, ',');) args.phases.push_back(p);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 0) return Usage();
  const std::string command = argv[1];
  if (command == "prep") return perfbench::CmdPrep(args);
  if (command == "load") return perfbench::CmdLoad(args);
  if (command == "replay") return perfbench::CmdReplay(args);
  if (command == "dup-gen") return perfbench::CmdDupGen(args);
  if (command == "dup") return perfbench::CmdDup(args);
  if (command == "dup-replay") return perfbench::CmdDupReplay(args);
  return Usage();
}
