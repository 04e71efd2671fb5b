// Span tracing for the traced replay binary. The untraced binary links
// trace_off.cc (every call a no-op); the traced binary links trace_on.cc and
// wrap.cc, whose link-time wrappers open a span around each call between
// the simulator's libraries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Totals of one span name: `s` is wall time inside the calls, `self_s`
/// that time minus the time of spans nested inside them.
struct Row {
  std::string name;
  std::uint64_t calls = 0;
  double s = 0.0;
  double self_s = 0.0;
};

/// True in the traced binary.
bool Enabled();

/// Brackets one timed replay (a RunSimulation call). Top-level spans that
/// close inside a window count toward TopLevelSeconds.
void BeginWindow();
void EndWindow();

/// Sum of top-level span time inside all windows so far.
double TopLevelSeconds();

/// Totals of every span name seen so far, sorted by name.
std::vector<Row> Rows();

/// Zero every total and drop the retained spans.
void Reset();

/// Write the retained spans as Chrome trace-event JSON. Returns the number
/// of spans written and sets `dropped` to the spans not retained.
std::uint64_t WriteChromeTrace(const std::string& path,
                               std::uint64_t& dropped);

}  // namespace perfbench::trace
