// The span recorder of the traced binary. Every span updates its name's
// exact totals (calls, total and self time); the first kRetainedSpans spans
// are also kept in memory with their start, end and parent and written out
// as a Chrome trace at the end. A YEAR replay opens tens of millions of
// spans (mostly Machine::Release inside the scheduler pass), which would not
// fit in memory, so later spans only feed the totals.
//
// Timestamps are TSC ticks on x86-64 (about half the cost of a steady_clock
// read on a virtualized host), converted to seconds with a rate calibrated
// against steady_clock over the whole run.
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "span.h"
#include "trace.h"

namespace perfbench::trace {
namespace {

constexpr std::size_t kRetainedSpans = std::size_t{1} << 16;

// Durations and timestamps below are in ticks (see Ticks()).
struct Totals {
  std::uint64_t calls = 0;
  std::int64_t total = 0;
  std::int64_t child = 0;  // time of spans nested directly inside
};

struct Frame {
  int name = 0;
  std::int64_t start = 0;
  std::int64_t child = 0;
  std::int64_t record = -1;  // index into g_records, -1 when not retained
};

struct Record {
  int name = 0;
  std::int64_t parent = -1;
  std::int64_t start = 0;
  std::int64_t end = -1;
};

using Clock = std::chrono::steady_clock;

std::int64_t Ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return Clock::now().time_since_epoch().count();
#endif
}

const Clock::time_point g_epoch = Clock::now();
const std::int64_t g_epoch_ticks = Ticks();

std::vector<std::string> g_names;
std::vector<Totals> g_totals;
std::vector<Frame> g_stack;
std::vector<Record> g_records;
std::uint64_t g_dropped = 0;
bool g_in_window = false;
std::int64_t g_top_ticks = 0;

/// Seconds per tick, measured from the recorder's start to now.
double SecondsPerTick() {
  const double seconds =
      std::chrono::duration<double>(Clock::now() - g_epoch).count();
  const std::int64_t ticks = Ticks() - g_epoch_ticks;
  return ticks > 0 ? seconds / static_cast<double>(ticks) : 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int RegisterName(const char* name) {
  g_names.emplace_back(name);
  g_totals.emplace_back();
  return static_cast<int>(g_names.size()) - 1;
}

Scope::Scope(int name) {
  Frame frame;
  frame.name = name;
  if (g_records.size() < kRetainedSpans) {
    if (g_records.capacity() == 0) g_records.reserve(kRetainedSpans);
    frame.record = static_cast<std::int64_t>(g_records.size());
    Record record;
    record.name = name;
    record.parent = g_stack.empty() ? -1 : g_stack.back().record;
    g_records.push_back(record);
  } else {
    ++g_dropped;
  }
  frame.start = Ticks();
  if (frame.record >= 0) g_records[frame.record].start = frame.start;
  g_stack.push_back(frame);
}

Scope::~Scope() {
  const std::int64_t end = Ticks();
  const Frame frame = g_stack.back();
  g_stack.pop_back();
  const std::int64_t duration = end - frame.start;
  Totals& totals = g_totals[frame.name];
  ++totals.calls;
  totals.total += duration;
  totals.child += frame.child;
  if (!g_stack.empty()) {
    g_stack.back().child += duration;
  } else if (g_in_window) {
    g_top_ticks += duration;
  }
  if (frame.record >= 0) g_records[frame.record].end = end;
}

bool Enabled() { return true; }
void BeginWindow() { g_in_window = true; }
void EndWindow() { g_in_window = false; }
double TopLevelSeconds() {
  return static_cast<double>(g_top_ticks) * SecondsPerTick();
}

std::vector<Row> Rows() {
  const double scale = SecondsPerTick();
  std::vector<Row> rows;
  for (std::size_t i = 0; i < g_names.size(); ++i) {
    // Several wrappers can feed one name (e.g. SetRate and SetRateAtSlot).
    Row* row = nullptr;
    for (Row& existing : rows) {
      if (existing.name == g_names[i]) row = &existing;
    }
    if (row == nullptr) {
      rows.push_back(Row{g_names[i]});
      row = &rows.back();
    }
    row->calls += g_totals[i].calls;
    row->s += static_cast<double>(g_totals[i].total) * scale;
    row->self_s +=
        static_cast<double>(g_totals[i].total - g_totals[i].child) * scale;
  }
  return rows;
}

void Reset() {
  if (!g_stack.empty()) throw std::logic_error("trace::Reset inside a span");
  for (Totals& totals : g_totals) totals = Totals{};
  g_records.clear();
  g_dropped = 0;
  g_top_ticks = 0;
}

std::uint64_t WriteChromeTrace(const std::string& path,
                               std::uint64_t& dropped) {
  const double us_per_tick = SecondsPerTick() * 1e6;
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::uint64_t written = 0;
  char line[512];
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    if (r.end < 0) continue;
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %lld}}",
                  written == 0 ? "" : ",\n",
                  JsonEscape(g_names[r.name]).c_str(),
                  static_cast<double>(r.start - g_epoch_ticks) * us_per_tick,
                  static_cast<double>(r.end - r.start) * us_per_tick, i,
                  static_cast<long long>(r.parent));
    out << line;
    ++written;
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  dropped = g_dropped;
  return written;
}

}  // namespace perfbench::trace
