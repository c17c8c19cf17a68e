// Lint fixture: seeded cackle-metric-prefix violation (a literal spelling a
// reserved exec.morsel.* metric name outside metric_names.h) plus a
// suppressed one.
#include <string>

namespace fixture {

std::string MorselTaskMetric() { return "exec.morsel.tasks"; }

std::string SuppressedMorselMetric() {
  // NOLINTNEXTLINE(cackle-metric-prefix): fixture-local spelling for a doc example.
  return "exec.morsel.operators";
}

}  // namespace fixture
