// The command line route_loadgen and fleet_loadgen share: `run
// [options]` over fleet::run_loadgen, the outcome report, the optional
// BENCH document and the exit verdict.
//
// Exit status: 0 when every covered pair of a certified epoch vended a
// route (failed_requests == 0) and the queues fully drained; 1 on a
// guarantee violation; 2 on usage errors.
#pragma once

#include <string>
#include <vector>

#include "fleet/loadgen.hpp"
#include "io/cli_args.hpp"

namespace lamb::tools {

struct LoadgenTool {
  const char* name;
  // The usage lines of the tool's own options and of the shared ones
  // whose meaning differs between the tools; the rest are appended.
  const char* usage;
  fleet::LoadgenConfig defaults;
  std::vector<std::string> flags;  // the tool's own options
  // Reads the tool's own options into `config`; returns a usage error
  // or nullptr.
  const char* (*configure)(const io::CliArgs& args,
                           fleet::LoadgenConfig* config);
};

int loadgen_main(int argc, char** argv, const LoadgenTool& tool);

}  // namespace lamb::tools
