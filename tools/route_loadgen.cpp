// route_loadgen — seeded request-stream replay against one
// RouteService: thousands of simulated clients ask for survivor routes
// while a fault storm strikes the machine and new epochs publish
// underneath them. The CI serve-soak lane diffs the `digest:` line
// across LAMBMESH_THREADS=1/4/16 (the determinism contract is in
// src/fleet/loadgen.hpp; exit statuses in tools/loadgen_cli.hpp). With
// --json the run writes the BENCH_serve.json document that
// tools/check_bench_gates.py asserts on.
//
// Examples:
//   route_loadgen run
//   route_loadgen run --mesh 16x16 --clients 2000 --ticks 400
//   route_loadgen run --rate 4 --queue-depth 8        # force shedding
//   route_loadgen run --deadline 24 --hedge --json BENCH_serve.json
#include "loadgen_cli.hpp"

using namespace lamb;

namespace {

constexpr char kUsage[] =
    "  --mesh WxH..      geometry (16x16), 't' suffix for torus\n"
    "  --clients N       simulated concurrent clients (512)\n"
    "  --ticks T         issue horizon in virtual ticks (240)\n"
    "  --initial-faults F  static faults before epoch 1 (4)\n"
    "  --node-kills K    storm node kills over the horizon (6)\n"
    "  --link-kills L    storm link kills over the horizon (2)\n"
    "  --reconfigure-ticks W  reconfigure window width: ticks\n"
    "                    from begin_reconfigure to publish (4)\n"
    "  --shards N        admission shards (4)\n"
    "  --rate R          token-bucket refill per shard-tick (16)\n"
    "  --burst B         token-bucket capacity (32)\n"
    "  --hedge           re-submit a first shed to the next shard\n";

const char* configure(const io::CliArgs& args, fleet::LoadgenConfig* config) {
  serve::AdmissionOptions& admission = config->service.admission;
  admission.shards = args.get_int("shards", admission.shards);
  admission.bucket_capacity =
      args.get_double("burst", admission.bucket_capacity);
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::loadgen_main(
      argc, argv,
      {"route_loadgen", kUsage, {}, {"shards", "burst"}, configure});
}
