// perfbench_driver subcommands. run.py launches each one and turns what
// it prints into the benchmark's metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/driver/workload.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int port = 0;
  double seconds = 10;
  std::vector<std::string> phases;  // load: measured phase names
  std::string spans;                // where to write the span log
  std::string store;                // golden store directory (replay)
  std::string work;                 // scratch directory (replay)
  std::string trace;                // dup_replay letter trace file
  uint64_t requests = 0;            // replay: ingest requests to replay
  double query_ratio = 0;           // replay: queries per ingest request
};

int CmdPrep(const Args& args);       // served: create tenants, prep ingest
int CmdLoad(const Args& args);       // served: warm-up, phases, checks
int CmdReplay(const Args& args);     // served: traced in-process layers
int CmdDupGen(const Args& args);     // dup_replay: write the letter trace
int CmdDup(const Args& args);        // dup_replay: the measured batch job
int CmdDupReplay(const Args& args);  // dup_replay: traced layers

}  // namespace perfbench
