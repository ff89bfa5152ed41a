// Nesting depth accounting for the recursive-descent parsers of untrusted
// source (microjs scripts, vcc programs).  Each parser caps the depth, so a
// deeply nested source is an error instead of a host stack overflow.
#ifndef SRC_BASE_NESTING_H_
#define SRC_BASE_NESTING_H_

namespace vbase {

// Counts `levels` of nesting on `*depth` for as long as it lives.
class NestingLevel {
 public:
  explicit NestingLevel(int* depth, int levels = 1) : depth_(depth) { Add(levels); }
  ~NestingLevel() { *depth_ -= levels_; }
  NestingLevel(const NestingLevel&) = delete;
  NestingLevel& operator=(const NestingLevel&) = delete;

  // A loop that wraps what it has parsed so far in one more node deepens
  // the tree without recursing; it adds its levels here.
  void Add(int levels = 1) {
    *depth_ += levels;
    levels_ += levels;
  }

 private:
  int* depth_;
  int levels_ = 0;
};

}  // namespace vbase

#endif  // SRC_BASE_NESTING_H_
