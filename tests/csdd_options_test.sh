#!/usr/bin/env bash
# Command-line and session-command validation of the csdd shell:
#   - an argument starting with "--" that names no option is rejected
#     with "unknown option" and the usage text, never opened as a
#     program file;
#   - numeric flags and numeric session commands reject non-numeric,
#     trailing-garbage and out-of-range values with an error instead of
#     silently misconfiguring (atoi-style 0 or a wrapped negative).
#
# Usage: tests/csdd_options_test.sh path/to/csdd
set -u

csdd=${1:?usage: $0 path/to/csdd}
fail() { echo "FAIL: $*" >&2; exit 1; }

# expect_rejected PATTERN ARG...: csdd ARG... exits nonzero and prints
# PATTERN.
expect_rejected() {
  local pattern=$1
  shift
  local out
  out=$("$csdd" "$@" < /dev/null 2>&1) && fail "csdd $* exited 0"
  grep -q -- "$pattern" <<< "$out" || fail "csdd $*: no '$pattern' in: $out"
}

# Unknown options.
expect_rejected 'error: unknown option --bogus-flag' --bogus-flag
expect_rejected 'error: unknown option --parallel-scc=4' --parallel-scc=4
expect_rejected 'usage: csdd' --parallel-scc=4
expect_rejected 'unknown option --trace=1' --trace=1

# Malformed numeric flags.
expect_rejected 'error: --net-queue: InvalidArgument' --net-queue=abc
expect_rejected 'error: --net-queue: InvalidArgument' --net-queue=0
expect_rejected 'error: --max-line: InvalidArgument' --max-line=-1
expect_rejected 'error: --net-workers: InvalidArgument' --net-workers=4x
expect_rejected 'error: --listen-backlog: InvalidArgument' --listen-backlog=
expect_rejected 'error: --wal-sync-interval: InvalidArgument' \
  --wal-sync-interval=99999999999
expect_rejected 'error: --snapshot-every: InvalidArgument' --snapshot-every=1e3
expect_rejected 'error: --slow-query-ms: InvalidArgument' --slow-query-ms=-5
expect_rejected 'error: --serve: InvalidArgument' --serve=70000
expect_rejected 'error: --serve: InvalidArgument' --serve abc
expect_rejected 'error: --serve needs a PORT' --serve

# Well-formed values still work (and a non-option argument is still a
# program file).
out=$(printf 'p(a).\n?- p(X).\n:quit\n' |
      "$csdd" --net-queue=8 --max-line=0 --net-workers=2 2>&1) ||
  fail "valid numeric flags rejected: $out"
grep -q 'X = a' <<< "$out" || fail "no answer with valid flags: $out"
expect_rejected 'cannot open' /nonexistent-program.dl

# Numeric session commands: a bad value is an error (nonzero batch exit)
# and leaves the previous setting in place.
out=$(printf ':deadline 250\n:deadline abc\n:deadline 12x\n:deadline -1\n' |
      "$csdd" 2>&1) && fail ":deadline abc exited 0"
grep -q '% deadline 250 ms' <<< "$out" || fail ":deadline 250: $out"
[[ $(grep -c 'error: :deadline: InvalidArgument' <<< "$out") -eq 3 ]] ||
  fail "bad :deadline values not all rejected: $out"
grep -q '% deadline 0 ms' <<< "$out" && fail ":deadline abc disabled it: $out"

out=$(printf ':csv edge/two /dev/null\n' | "$csdd" 2>&1) &&
  fail ":csv edge/two exited 0"
grep -q 'error: :csv arity: InvalidArgument' <<< "$out" ||
  fail ":csv bad arity: $out"

out=$(printf ':serve 99999\n' | "$csdd" 2>&1) && fail ":serve 99999 exited 0"
grep -q 'error: :serve: InvalidArgument' <<< "$out" || fail ":serve: $out"

echo "PASS"
