// Span scopes used by the link-time wrappers in wrap.cc (traced binary
// only). One thread: the replay runner is single-threaded by design.
#pragma once

namespace perfbench::trace {

/// Id of a span name; call once per wrapper and keep the result.
int RegisterName(const char* name);

/// Opens a span on construction and closes it on destruction, so a span
/// also closes when the wrapped call throws.
class Scope {
 public:
  explicit Scope(int name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

}  // namespace perfbench::trace
