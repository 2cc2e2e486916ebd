#!/usr/bin/env bash
# Runs named tests by their exact names and fails unless every name ran.
#
#   scripts/test-exact.sh <cargo test args>... -- <test name>... [--nocapture]
#
# Everything before `--` goes to `cargo test`; after it, each argument that
# does not start with `-` is a full test name (`module::tests::name`) and the
# rest are passed to the test harness. The names are matched with `--exact`,
# and the script fails when fewer tests passed than names were given: a
# plain `cargo test <filter>` that matches nothing reports "0 passed" and
# succeeds, so a renamed test would drop out of a CI step without a sound.
set -euo pipefail

cargo_args=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
    cargo_args+=("$1")
    shift
done
if [[ $# -eq 0 ]]; then
    echo "usage: scripts/test-exact.sh <cargo test args>... -- <test name>..." >&2
    exit 2
fi
shift
named=0
for arg in "$@"; do
    [[ "$arg" == -* ]] || named=$((named + 1))
done
if [[ $named -eq 0 ]]; then
    echo "test-exact: no test names given" >&2
    exit 2
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "${cargo_args[@]}" -- --exact "$@" 2>&1 | tee "$log"
passed=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$log" |
    awk '{ n += $1 } END { print n + 0 }')
if [[ $passed -lt $named ]]; then
    echo "test-exact: $passed of $named named tests ran; a name matches no test" >&2
    exit 1
fi
