// Spans for perfbench's traced mode.
//
// A span names one layer boundary the benchmark crossed on behalf of one op
// (an HTTP connection or a function call): its layer name, wall start and
// end (steady clock, ns), and the span that caused it.  Every span of one op
// shares the op's id.  Spans are recorded by the benchmark's own code around
// the public calls it makes into each layer; nothing inside the program under
// test is instrumented.
//
// Spans stay in memory until the run ends.  A layer's self time is its
// span's duration minus the part of that interval its child spans cover; the
// root span's self time is the op's wall time no layer span covers (the
// "uncovered" remainder).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // layer name; a string literal
  int parent = -1;        // index within the op, -1 for the root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// The spans of one op, built by whichever threads serve it and committed
// once the op is done.  Index 0 is the root.
struct OpSpans {
  uint64_t op = 0;
  std::vector<Span> spans;

  // Appends a span and returns its index (the parent handle for children).
  int Add(const char* name, int parent, uint64_t start_ns, uint64_t end_ns) {
    spans.push_back(Span{name, parent, start_ns, end_ns});
    return static_cast<int>(spans.size()) - 1;
  }
};

// Per-layer totals over every committed op.
struct SelfTimes {
  uint64_t ops = 0;
  uint64_t root_ns = 0;                       // summed root (op) wall time
  uint64_t uncovered_ns = 0;                  // summed root self time
  std::map<std::string, uint64_t> self_ns;    // layer -> summed self time
  std::map<std::string, uint64_t> span_count; // layer -> spans recorded
};

class Tracer {
 public:
  // Thread-safe.
  void Commit(OpSpans&& op);

  SelfTimes ComputeSelfTimes() const;
  // One JSON object per span: op, span, parent, name, start_ns, end_ns
  // (times relative to the earliest span).  Returns false on I/O failure.
  bool WriteSpans(const std::string& path) const;

  size_t ops() const;

 private:
  mutable std::mutex mu_;
  std::vector<OpSpans> ops_;
};

// Renders the self-time table (one row per layer, the uncovered remainder
// as its own row) for the human-readable report, per op over `ops` ops.
// Shares are of the summed root time; concurrent sibling spans (a client
// framing its next request while the guest waits in recv) may overlap, so
// shares can add up to more than 100%.
std::string FormatSelfTimes(const SelfTimes& times, uint64_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
