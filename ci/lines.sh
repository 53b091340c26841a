#!/usr/bin/env bash
# Line counts, per crate: production lines, test lines, and the lines of
# the three long documents. A report, not a gate. Run from the repository
# root:
#
#     bash ci/lines.sh
#
# Every `#[cfg(test)]` module of a source file, whatever its name and
# wherever it sits, is test lines: the attribute line, the `mod NAME {` line
# after it and everything through the module's closing brace (the first
# line after it that is `}` at the `mod` line's indentation, as rustfmt
# writes it); counting resumes as production after it. So is every file
# under a crate's `tests/` (for the root crate, `tests/`). Blank and comment
# lines count. `examples/` is reported on its own row.
set -euo pipefail

# count FILE... — prints "production test" summed over the files.
count() {
    [ $# -gt 0 ] || { echo "0 0"; return; }
    awk '
        FNR == 1 { test = 0; held = 0 }
        test { tests++; if ($0 ~ end) test = 0; next }
        held {
            held = 0
            if (/^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_][A-Za-z0-9_]*[[:space:]]*\{[[:space:]]*$/) {
                indent = $0; sub(/[^[:space:]].*/, "", indent)
                end = "^" indent "}[[:space:]]*$"; test = 1; tests += 2; next
            }
            prod++
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        { prod++ }
        END { print prod + 0, tests + 0 }' "$@"
}

rs() { [ -d "$1" ] && find "$1" -name '*.rs' | sort; true; }

printf '%-12s %8s %8s\n' crate prod test
total_prod=0 total_test=0
row() {
    local name=$1 src=$2 tests=$3 p t tp tt
    read -r p t < <(count $(rs "$src"))
    read -r tp tt < <(count $(rs "$tests"))
    t=$((t + tp + tt))
    printf '%-12s %8d %8d\n' "$name" "$p" "$t"
    total_prod=$((total_prod + p)) total_test=$((total_test + t))
}
for dir in crates/*/; do
    crate=$(basename "$dir")
    row "$crate" "${dir}src" "${dir}tests"
done
row klotski src tests
printf '%-12s %8d %8d\n' total "$total_prod" "$total_test"
read -r p t < <(count $(rs examples))
printf '%-12s %8d\n' examples $((p + t))
echo
wc -l DESIGN.md EXPERIMENTS.md ROADMAP.md
