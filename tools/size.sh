#!/usr/bin/env bash
# Code size: for every tracked `.rs` file under crates/ except the
# dependency shims (crates/shims/), print per crate and in total
#
#   lines     all lines;
#   non-test  the lines above each file's first column-0 `#[cfg(test)]`
#             (the whole file when it has none), files under a crate's
#             tests/ directory excluded;
#   pub       `pub` items, by the grep
#             `^\s*pub (fn|struct|enum|trait|const|type|mod|use|static)`.
#
#   tools/size.sh            per crate and in total
#   tools/size.sh FILE...    per named file (paths from the repo root)
#                            and their total
#
# Reads only; writes nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

by_file=0
pathspec=('crates/*.rs' ':!crates/shims/')
if [ $# -gt 0 ]; then
    by_file=1
    pathspec=("$@")
fi

git ls-files -z -- "${pathspec[@]}" |
    xargs -0 awk -v by_file="$by_file" '
        FNR == 1 {
            split(FILENAME, part, "/")
            crate = by_file ? FILENAME : part[2]
            crates[crate] = 1
            counted = FILENAME !~ /^crates\/[^\/]+\/tests\//
        }
        /^#\[cfg\(test\)\]/ { counted = 0 }
        {
            lines[crate]++
            if (counted) body[crate]++
        }
        /^[ \t]*pub (fn|struct|enum|trait|const|type|mod|use|static)/ { pub[crate]++ }
        END { for (c in crates) print c, lines[c], body[c] + 0, pub[c] + 0 }
    ' |
    awk '
        { lines[$1] += $2; body[$1] += $3; pub[$1] += $4 }
        END { for (c in lines) print c, lines[c], body[c], pub[c] }
    ' |
    sort |
    awk -v w=$((by_file ? 36 : 14)) '
        BEGIN { printf "%-*s %8s %9s %5s\n", w, "unit", "lines", "non-test", "pub" }
        {
            printf "%-*s %8d %9d %5d\n", w, $1, $2, $3, $4
            lines += $2; body += $3; pub += $4
        }
        END { printf "%-*s %8d %9d %5d\n", w, "total", lines, body, pub }
    '
