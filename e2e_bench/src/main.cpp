// rrmp_e2e_bench: end-to-end protocol benchmark.
//
//   rrmp_e2e_bench --workload <udp-flood|udp-lossy|sim-budget-tree>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the same untraced pass, then a traced pass that times the
// calls into each layer from the benchmark's side, then one more untraced
// pass; it prints the per-layer table and the tracing
// overhead, and reports the per-layer metrics.
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status is 0 when every output check passed, 1 when one failed, 2 on
// bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "stats.h"
#include "workload.h"

namespace {

using e2e::Metric;
using e2e::Outcome;

void usage() {
  std::cerr << "usage: rrmp_e2e_bench --workload "
               "<udp-flood|udp-lossy|sim-budget-tree> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  std::printf("  %-36s %16s  %-6s %s\n", "metric", "value", "unit", "basis");
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.basis.c_str());
  }
}

void print_table(const Outcome& traced) {
  std::printf("\nper-layer wall accounting (traced window, thread-seconds)\n");
  std::printf("  %-46s %12s %8s\n", "layer", "seconds", "share");
  double sum = 0;
  for (const e2e::TableRow& r : traced.table) {
    sum += r.seconds;
    std::printf("  %-46s %12.6f %7.2f%%\n", r.layer.c_str(), r.seconds,
                100.0 * r.seconds / traced.table_capacity_s);
  }
  std::printf("  %-46s %12.6f %7.2f%%  (measured capacity %.6f s)\n",
              "sum of rows", sum, 100.0 * sum / traced.table_capacity_s,
              traced.table_capacity_s);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  bool have_workload = false;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val.c_str());
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !have_workload || opt.seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }
  Outcome (*run)(const e2e::Options&) = nullptr;
  if (opt.workload == "udp-flood") run = e2e::run_udp_flood;
  if (opt.workload == "udp-lossy") run = e2e::run_udp_lossy;
  if (opt.workload == "sim-budget-tree") run = e2e::run_sim_budget_tree;
  if (run == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    usage();
    return 2;
  }
  rrmp::log::set_level(rrmp::log::Level::kWarn);

  std::printf("# rrmp_e2e_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace);
  Outcome base = run(opt);
  for (const std::string& note : base.notes) std::printf("# %s\n", note.c_str());
  print_metrics("end-to-end metrics (untraced)", base.end_to_end);
  print_metrics("per-layer metrics measured untraced", base.untraced_layers);

  std::vector<Metric> report;  // what the JSON line carries
  std::vector<std::string> failures = base.failures;
  std::uint64_t attempted = base.attempted, failed = base.failed;
  if (trace == 0) {
    report = base.end_to_end;
  } else {
    e2e::Options traced_opt = opt;
    traced_opt.traced = true;
    Outcome traced = run(traced_opt);
    for (const std::string& note : traced.notes) {
      std::printf("# traced: %s\n", note.c_str());
    }
    print_table(traced);
    report = base.untraced_layers;
    report.insert(report.end(), traced.per_layer.begin(), traced.per_layer.end());
    // Untraced passes before and after the traced one (A-B-A), so drift
    // over the run and warm-process effects cancel in the comparison.
    Outcome after = run(opt);
    const double untraced =
        (base.cpu_us_per_delivery + after.cpu_us_per_delivery) / 2;
    double overhead =
        e2e::ratio(traced.cpu_us_per_delivery - untraced, untraced);
    std::ostringstream basis;
    basis << "traced " << traced.cpu_us_per_delivery << " vs untraced "
          << base.cpu_us_per_delivery << " before and "
          << after.cpu_us_per_delivery << " after, cpu_us_per_delivery";
    report.push_back({"trace.overhead_share", overhead, "ratio", basis.str()});
    print_metrics("per-layer metrics (traced pass; repair_*, undelivered_share, "
                  "sim_wall_s and generator lag from the untraced pass)",
                  report);
    for (const Outcome* o : {&traced, &after}) {
      failures.insert(failures.end(), o->failures.begin(), o->failures.end());
      attempted += o->attempted;
      failed += o->failed;
    }
  }

  for (Metric& m : report) {
    if (!std::isfinite(m.value)) {
      failures.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  std::printf("\noutput checks: %s\n", failures.empty() ? "all passed" : "FAILED");
  for (const std::string& f : failures) std::printf("  FAILED: %s\n", f.c_str());
  std::printf("pairs attempted=%llu undelivered after the final drain=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  std::ostringstream js;
  js << "{\"correct\": " << (failures.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    if (i) js << ", ";
    js << '"' << report[i].name << "\": {\"value\": "
       << json_number(report[i].value) << ", \"unit\": \"" << report[i].unit
       << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return failures.empty() ? 0 : 1;
}
