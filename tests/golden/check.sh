#!/bin/sh
# Byte-identity gate: compare the stdout of `experiments` against the
# committed goldens in this directory, and the SHA-256 of the churn
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
fleet-scale-1024.txt:fleet --scale 1024"

# The churn event trace is ~25 MB, so only its digest is committed.
trace_digest="$dir/fleet-churn-trace.sha256"

tmp=$(mktemp)
jsonl=$(mktemp)
trap 'rm -f "$tmp" "$jsonl"' EXIT
status=0
echo "$cases" | while IFS=: read -r file args; do
    if [ "$update" = 1 ]; then
        # shellcheck disable=SC2086
        "$bin" $args --jobs 1 > "$dir/$file" 2>/dev/null
        echo "wrote $dir/$file"
        continue
    fi
    for jobs in 1 4; do
        # shellcheck disable=SC2086
        "$bin" $args --jobs "$jobs" > "$tmp" 2>/dev/null
        if cmp "$dir/$file" "$tmp"; then
            echo "ok   $args (--jobs $jobs)"
        else
            echo "DIFF $args (--jobs $jobs) vs $dir/$file"
            exit 1
        fi
    done
done || status=1

if [ "$update" = 1 ]; then
    "$bin" fleet --churn --trace-events "$jsonl" --jobs 1 > /dev/null 2>&1
    sha256sum < "$jsonl" | cut -d' ' -f1 > "$trace_digest"
    echo "wrote $trace_digest"
    exit $status
fi
want=$(cat "$trace_digest")
for jobs in 1 4; do
    "$bin" fleet --churn --trace-events "$jsonl" --jobs "$jobs" > /dev/null 2>&1
    got=$(sha256sum < "$jsonl" | cut -d' ' -f1)
    if [ "$got" = "$want" ]; then
        echo "ok   fleet --churn --trace-events sha256 (--jobs $jobs)"
    else
        echo "DIFF fleet --churn --trace-events sha256 $got (--jobs $jobs) vs $trace_digest"
        status=1
    fi
done
exit $status
