#!/bin/sh
# Non-test code lines per crate: in every crates/<name>/src/**/*.rs, the
# lines before the first `#[cfg(test)]`, minus blank lines and lines that
# start with `//` (comments and docs). This is the rule the "LOC down"
# numbers in ISSUE/ROADMAP/CHANGES are counted by, so they are a tool's
# output rather than a hand count.
#
#   scripts/loc.sh                  # every crate, then the total
#   scripts/loc.sh serve cluster    # just these, then their sum
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- $(ls crates)
total=0
for crate in "$@"; do
    n=$(find "crates/$crate/src" -name '*.rs' -exec awk '
        FNR == 1 { skip = 0 }
        /#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        { line = $0; sub(/^[ \t]+/, "", line) }
        line != "" && substr(line, 1, 2) != "//" { n++ }
        END { print n + 0 }' {} +)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
