// The untraced binary: no spans are recorded.
#include "trace.h"

namespace perfbench::trace {

bool Enabled() { return false; }
void BeginWindow() {}
void EndWindow() {}
double TopLevelSeconds() { return 0.0; }
std::vector<Row> Rows() { return {}; }
void Reset() {}
std::uint64_t WriteChromeTrace(const std::string&, std::uint64_t& dropped) {
  dropped = 0;
  return 0;
}

}  // namespace perfbench::trace
