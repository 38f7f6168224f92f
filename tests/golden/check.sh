#!/bin/sh
# Byte-identity gate: compare the stdout of `experiments` against the
# committed goldens in this directory, and the SHA-256 of each
# `--trace-events` JSONL against its committed digest, at one worker
# thread and at four.
#
#   tests/golden/check.sh            # compare; non-zero exit on any diff
#   tests/golden/check.sh --update   # rewrite the goldens from this build
#
# Run from the repository root after `cargo build --release --workspace`.
# Set EXPERIMENTS to test another binary. An intentional output change
# regenerates the goldens with --update and says why in CHANGES.md.
set -eu

dir=$(dirname "$0")
bin=${EXPERIMENTS:-target/release/experiments}
update=0
if [ "${1:-}" = "--update" ]; then
    update=1
fi

# golden file : experiments arguments
cases="all.txt:all
fleet.txt:fleet
fleet-churn.txt:fleet --churn
fleet-city-256.txt:fleet --city-block --scale 256
fleet-scale-64.txt:fleet --scale 64
fleet-scale-1024.txt:fleet --scale 1024"

# Event traces run to megabytes, so only their digests are committed.
# digest file : experiments arguments (the trace path is appended)
traces="fleet-churn-trace.sha256:fleet --churn
fleet-trace.sha256:fleet
fleet-city-256-trace.sha256:fleet --city-block --scale 256"

tmp=$(mktemp)
jsonl=$(mktemp)
trap 'rm -f "$tmp" "$jsonl"' EXIT
status=0
echo "$cases" | while IFS=: read -r file args; do
    if [ "$update" = 1 ]; then
        # shellcheck disable=SC2086
        if ! "$bin" $args --jobs 1 > "$tmp" 2>/dev/null; then
            echo "FAIL $args (--jobs 1): $bin exited non-zero"
            exit 1
        fi
        cp "$tmp" "$dir/$file"
        echo "wrote $dir/$file"
        continue
    fi
    for jobs in 1 4; do
        # shellcheck disable=SC2086
        if ! "$bin" $args --jobs "$jobs" > "$tmp" 2>/dev/null; then
            echo "FAIL $args (--jobs $jobs): $bin exited non-zero"
            exit 1
        fi
        if cmp "$dir/$file" "$tmp"; then
            echo "ok   $args (--jobs $jobs)"
        else
            echo "DIFF $args (--jobs $jobs) vs $dir/$file"
            exit 1
        fi
    done
done || status=1

echo "$traces" | while IFS=: read -r file args; do
    if [ "$update" = 1 ]; then
        : > "$jsonl"
        # shellcheck disable=SC2086
        if ! "$bin" $args --trace-events "$jsonl" --jobs 1 > /dev/null 2>&1; then
            echo "FAIL $args --trace-events (--jobs 1): $bin exited non-zero"
            exit 1
        fi
        sha256sum < "$jsonl" | cut -d' ' -f1 > "$dir/$file"
        echo "wrote $dir/$file"
        continue
    fi
    want=$(cat "$dir/$file")
    fail=0
    for jobs in 1 4; do
        # A run that fails must not leave the previous run's trace behind.
        : > "$jsonl"
        # shellcheck disable=SC2086
        if ! "$bin" $args --trace-events "$jsonl" --jobs "$jobs" > /dev/null 2>&1; then
            echo "FAIL $args --trace-events (--jobs $jobs): $bin exited non-zero"
            fail=1
            continue
        fi
        got=$(sha256sum < "$jsonl" | cut -d' ' -f1)
        if [ "$got" = "$want" ]; then
            echo "ok   $args --trace-events sha256 (--jobs $jobs)"
        else
            echo "DIFF $args --trace-events sha256 $got (--jobs $jobs) vs $dir/$file"
            fail=1
        fi
    done
    [ "$fail" = 0 ] || exit 1
done || status=1
exit $status
