// Figure 11 — the UMass campus YouTube request trace (synthetic
// reconstruction) and its three representative patterns:
//   1. burst 20 -> 300 at T710,
//   2. steady afternoon decline T800 -> T1200,
//   3. evening rise T1200 -> T1400.
#include <iostream>

#include "common.hpp"
#include "core/stats.hpp"
#include "workload/trace.hpp"

using namespace hotc;

int main() {
  bench::print_header(
      "Figure 11: campus YouTube request trace (synthetic shape)",
      "Per-minute request counts over a day; the three patterns the paper\n"
      "studies are called out.");

  const auto trace = workload::umass_youtube_trace();

  Table hourly({"hour", "mean req/min", "min", "max"});
  for (int h = 0; h < 24; ++h) {
    RunningStats s;
    for (int m = 0; m < 60; ++m) s.add(trace[h * 60 + m]);
    hourly.add_row({std::to_string(h), Table::num(s.mean(), 1),
                    Table::num(s.min(), 0), Table::num(s.max(), 0)});
  }
  std::cout << hourly.to_string() << "\n";

  Table landmarks({"pattern", "index range", "values"});
  landmarks.add_row(
      {"1. burst", "T709 -> T710",
       Table::num(trace[workload::kBurstIndex - 1], 0) + " -> " +
           Table::num(trace[workload::kBurstIndex], 0) + " req"});
  landmarks.add_row(
      {"2. afternoon decline", "T800 -> T1200",
       Table::num(trace[workload::kDeclineStart], 0) + " -> " +
           Table::num(trace[workload::kDeclineEnd - 1], 0) + " req"});
  landmarks.add_row(
      {"3. evening rise", "T1200 -> T1400",
       Table::num(trace[workload::kDeclineEnd], 0) + " -> " +
           Table::num(trace[workload::kEveningRiseEnd - 1], 0) + " req"});
  std::cout << landmarks.to_string();
  return 0;
}
