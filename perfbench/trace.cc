#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <utility>

namespace perfbench {
namespace {

// Length of the union of `intervals`, each clipped to [lo, hi).
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals, uint64_t lo,
                   uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

void Tracer::Commit(OpSpans&& op) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(std::move(op));
}

size_t Tracer::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.size();
}

SelfTimes Tracer::ComputeSelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  SelfTimes out;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const OpSpans& op : ops_) {
    if (op.spans.empty()) {
      continue;
    }
    ++out.ops;
    children.assign(op.spans.size(), {});
    for (const Span& s : op.spans) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    for (size_t i = 0; i < op.spans.size(); ++i) {
      const Span& s = op.spans[i];
      const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      const uint64_t covered = CoveredNs(children[i], s.start_ns, s.end_ns);
      const uint64_t self = dur - std::min(dur, covered);
      if (s.parent < 0) {
        out.root_ns += dur;
        out.uncovered_ns += self;
      } else {
        out.self_ns[s.name] += self;
        ++out.span_count[s.name];
      }
    }
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t origin = std::numeric_limits<uint64_t>::max();
  for (const OpSpans& op : ops_) {
    for (const Span& s : op.spans) {
      origin = std::min(origin, s.start_ns);
    }
  }
  for (const OpSpans& op : ops_) {
    for (size_t i = 0; i < op.spans.size(); ++i) {
      const Span& s = op.spans[i];
      std::fprintf(f,
                   "{\"op\":%" PRIu64 ",\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64 "}\n",
                   op.op, i, s.parent, s.name, s.start_ns - origin, s.end_ns - origin);
    }
  }
  return std::fclose(f) == 0;
}

std::string FormatSelfTimes(const SelfTimes& times, uint64_t op_count) {
  std::string out;
  char line[160];
  const double ops = op_count > 0 ? static_cast<double>(op_count) : 1.0;
  const double root = times.root_ns > 0 ? static_cast<double>(times.root_ns) : 1.0;
  std::snprintf(line, sizeof(line), "%-16s %10s %14s %10s\n", "layer", "spans",
                "self us/op", "share");
  out += line;
  const auto row = [&](const std::string& name, uint64_t spans, uint64_t ns) {
    std::snprintf(line, sizeof(line), "%-16s %10" PRIu64 " %14.3f %9.1f%%\n", name.c_str(),
                  spans, static_cast<double>(ns) / 1e3 / ops,
                  100.0 * static_cast<double>(ns) / root);
    out += line;
  };
  for (const auto& [name, ns] : times.self_ns) {
    row(name, times.span_count.at(name), ns);
  }
  row("(uncovered)", times.ops, times.uncovered_ns);
  return out;
}

}  // namespace perfbench
