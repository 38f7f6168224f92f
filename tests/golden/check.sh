#!/bin/sh
# Byte-identity gate: compare the stdout of `experiments` against the
# committed goldens in this directory, at one worker thread and at four.
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
fleet-city-256.txt:fleet --city-block --scale 256"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
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
exit $status
