// Figure 9: robustness to dislocated events — the first m events of every
// trace are removed from one log of a 100-event synthetic pair; accuracy
// of every method as m grows (the paper's protocol, Section 5.2).
#include "bench_common.h"

using namespace ems;
using namespace ems::bench;

int main(int argc, char** argv) {
  Init(argc, argv);
  PrintHeader("Figure 9", "handling dislocated events (vary m)");
  int pairs_per_m = EnvNumber("EMS_BENCH_PAIRS_PER_SIZE", 5);
  if (pairs_per_m <= 0) pairs_per_m = 5;

  HarnessOptions options;

  TextTable table({"m", "EMS", "EMS+es", "GED", "BHV", "SimRank"});
  for (int m = 0; m <= 8; m += 2) {
    std::vector<LogPair> storage;
    for (int i = 0; i < pairs_per_m; ++i) {
      storage.push_back(
          MakeDislocationPair(100, m, 9100 + static_cast<uint64_t>(i)));
    }
    std::vector<const LogPair*> pairs = Pointers(storage);
    std::vector<std::string> row = {std::to_string(m)};
    for (Method method : {Method::kEms, Method::kEmsEstimated, Method::kGed,
                          Method::kBhv, Method::kSimRank}) {
      GroupResult r = RunGroup(method, pairs, options);
      row.push_back(FCell(r));
    }
    table.AddRow(row);
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
