#!/usr/bin/env bash
# Dead-symbol report: which functions the src/ libraries define that no
# binary reaches.  A report, not a CI gate: inlining makes it noisy (a
# function inlined into every caller keeps no out-of-line copy, yet is not
# dead), so read its lists as candidates to check by hand.
#
#   tools/dead_symbols.sh                # builds into build-deadsym/
#   BUILD_DIR=out tools/dead_symbols.sh
#
# Builds every target of the repository (the vcc compiler, examples, figure
# benches and tests) and the perfbench program with -ffunction-sections
# -fdata-sections, linked with -Wl,--gc-sections, so each function no binary
# calls is dropped from every binary.  Then nm compares the global functions
# the libraries define with the functions each linked binary still holds, and
# prints two lists of demangled names:
#   - functions that keep no out-of-line copy in any binary;
#   - functions that survive only in test binaries.
# Functions defined inline in a header keep no symbol of their own, so nm
# cannot tell an uncalled one from an inlined one.  A third, source-level list
# covers them: each function whose one-line signature and opening brace sit in
# a src/ header, and whose name appears on no other code line (comments
# stripped) under src/, tests/, bench/, examples/ or perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and comm

BUILD_DIR="${BUILD_DIR:-build-deadsym}"
FLAGS=(-DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections")
cmake -B "$BUILD_DIR" -S . "${FLAGS[@]}" > /dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" > /dev/null
cmake -B "$BUILD_DIR/perfbench" -S perfbench "${FLAGS[@]}" > /dev/null
cmake --build "$BUILD_DIR/perfbench" --target perfbench -j"$(nproc)" > /dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Global functions (strong text symbols) the repository's libraries define.
for lib in "$BUILD_DIR"/lib*.a; do
  nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" { print $3 }'
done | sort -u > "$tmp/defined"

# Functions each kind of binary still holds.
text_symbols() {
  for bin in "$@"; do
    nm --defined-only "$bin" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
  done | sort -u
}
tests=()
others=("$BUILD_DIR/perfbench/perfbench")
for bin in "$BUILD_DIR"/*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  case "$(basename "$bin")" in
    test_*) tests+=("$bin") ;;
    *) others+=("$bin") ;;
  esac
done
text_symbols "${tests[@]}" > "$tmp/in_tests"
text_symbols "${others[@]}" > "$tmp/in_others"
sort -u "$tmp/in_tests" "$tmp/in_others" > "$tmp/in_any"

echo "== of the $(wc -l < "$tmp/defined") global functions the libraries define, those kept by no"
echo "== binary (${#tests[@]} test and ${#others[@]} other binaries):"
comm -23 "$tmp/defined" "$tmp/in_any" | c++filt | sort -u
echo
echo "== kept only by test binaries:"
comm -23 "$tmp/defined" "$tmp/in_others" | comm -12 - "$tmp/in_tests" | c++filt | sort -u

echo
echo "== defined inline in a src/ header, named on no other code line:"
code_dirs=(src tests bench examples perfbench)
# Every code line as "file:line<TAB>text", comments stripped.
grep -rn --include='*.h' --include='*.cc' --include='*.cpp' '' "${code_dirs[@]}" |
  sed -E 's,//.*$,,; s/^([^:]+:[0-9]+):/\1\t/' > "$tmp/code"
# One candidate per definition line: "file:line name", the name being the
# identifier right before the first "(".
grep -rn --include='*.h' -E \
  '^[[:space:]]*([A-Za-z_][A-Za-z0-9_:<>,*&]*[[:space:]]+)+[*&]?[A-Za-z_][A-Za-z0-9_]*\([^;]*\)[^;{]*\{' \
  src |
  sed -E 's,//.*$,,' |
  sed -E 's/^([^:]+:[0-9]+):[[:space:]]*([^(]*[^A-Za-z0-9_(])?([A-Za-z_][A-Za-z0-9_]*)\(.*$/\1 \3/' |
  grep -vE ' (if|for|while|switch|return|sizeof|alignas|decltype)$' > "$tmp/inline" || true
while read -r loc name; do
  if awk -F '\t' -v loc="$loc" -v word="(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|$)" \
       '$1 != loc && $2 ~ word { found = 1; exit } END { exit found }' "$tmp/code"; then
    echo "$name ($loc)"
  fi
done < "$tmp/inline" | sort -u
