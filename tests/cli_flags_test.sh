#!/usr/bin/env bash
# cli_flags_test: the kelpie CLI rejects any flag its command does not
# declare, naming the flag and the command, before it reads a file; a valid
# invocation still runs.
#
# Usage: tests/cli_flags_test.sh path/to/kelpie
set -u

KELPIE="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/kelpie_cli_flags.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
FAILED=0

fail() {
  echo "cli_flags_test: FAIL: $1" >&2
  FAILED=1
}

# expect_reject FLAG COMMAND ARGS...: `kelpie COMMAND ARGS...` must exit 1
# and name FLAG and COMMAND on stderr.
expect_reject() {
  local flag="$1"
  local command="$2"
  shift 2
  "$KELPIE" "$command" "$@" > "$WORK/stdout" 2> "$WORK/stderr"
  local code=$?
  if [ "$code" -ne 1 ]; then
    fail "kelpie $command $* exited $code, want 1"
  elif ! grep -qF -- "unknown flag $flag for kelpie $command" "$WORK/stderr"; then
    fail "kelpie $command $* did not name $flag: $(cat "$WORK/stderr")"
  fi
}

# A typo of --threads, without --data: the flag is named, not the missing
# dataset.
expect_reject --thread evaluate --model-file "$WORK/model.bin" \
  --thread 4 --frobnicate x

# --sparse is a switch of train only; generate must not write its output.
expect_reject --sparse generate --sparse --out "$WORK/sparse"
[ -e "$WORK/sparse" ] && fail "rejected generate created its --out directory"

# A command with an operand parses its flags after the operand.
expect_reject --bogus cache stats --file "$WORK/missing.kelprc" --bogus 1

if ! "$KELPIE" generate --scale 0.4 --out "$WORK/valid" > "$WORK/stdout" \
    2> "$WORK/stderr"; then
  fail "valid generate failed: $(cat "$WORK/stderr")"
elif [ ! -s "$WORK/valid/train.txt" ]; then
  fail "valid generate wrote no train.txt"
fi

[ "$FAILED" -eq 0 ] && echo "cli_flags_test: ok"
exit "$FAILED"
