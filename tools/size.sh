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
#   tools/size.sh --unused   every `pub` item above a file's first
#                            `#[cfg(test)]` in crates/<c>/src/ (bins under
#                            src/bin/ excluded) whose name no tracked `.rs`
#                            file outside that directory contains, then a
#                            count per crate. A crate's own tests/ and
#                            src/bin/ count as outside, as they do for
#                            rustc. An item that benchmark/src/adapter.rs
#                            names, and nothing else outside, is printed
#                            with the tag `adapter`. Each `as NAME` of a
#                            one-line `pub use` counts as an item named
#                            NAME; other re-exports are skipped.
#
# The --unused scan matches whole words, not paths: a comment, a string or
# an unrelated item of the same name (`new`, `len`) counts as a use, and a
# method reached only through a trait or a re-export under another name
# does not. Read its list as candidates for `pub(crate)`, not as proof.
#
# Reads only; writes nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = --unused ]; then
    git ls-files -z -- '*.rs' ':!crates/shims/' |
        xargs -0 awk '
            FNR == 1 {
                owner = "other"
                if (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/[^\/]+\/src\/bin\//) {
                    split(FILENAME, part, "/")
                    owner = part[2]
                } else if (FILENAME == "benchmark/src/adapter.rs") {
                    owner = "adapter"
                }
                body = owner != "other" && owner != "adapter"
            }
            body && /^#\[cfg\(test\)\]/ { body = 0 }
            body && /^[ \t]*pub (fn|struct|enum|trait|const|type|mod|static|use) / {
                line = $0
                sub(/^[ \t]*pub /, "", line)
                if (line ~ /^use /) {
                    while (match(line, / as [A-Za-z_][A-Za-z0-9_]*/)) {
                        items[++n] = owner SUBSEP substr(line, RSTART + 4, RLENGTH - 4) SUBSEP FILENAME ":" FNR
                        line = substr(line, RSTART + RLENGTH)
                    }
                } else {
                    sub(/^(const |unsafe |async )*(fn|struct|enum|trait|const|type|mod|static) +(mut +)?/, "", line)
                    if (match(line, /^[A-Za-z_][A-Za-z0-9_]*/))
                        items[++n] = owner SUBSEP substr(line, 1, RLENGTH) SUBSEP FILENAME ":" FNR
                }
            }
            {
                line = $0
                while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    w = substr(line, RSTART, RLENGTH)
                    line = substr(line, RSTART + RLENGTH)
                    if (!((w, owner) in seen)) { seen[w, owner] = 1; owners[w] = owners[w] " " owner }
                }
            }
            END {
                for (i = 1; i <= n; i++) {
                    split(items[i], it, SUBSEP)
                    crate = it[1]; name = it[2]; outside = 0; adapter = 0
                    k = split(owners[name], os, " ")
                    for (j = 1; j <= k; j++) {
                        if (os[j] == "adapter") adapter = 1
                        else if (os[j] != crate) outside = 1
                    }
                    if (outside) continue
                    printf "%s\t%s\t%s\n", it[3], name, adapter ? "adapter" : ""
                    bare[crate] += !adapter; tagged[crate] += adapter
                }
                m = 0
                for (c in bare) {
                    for (j = ++m; j > 1 && order[j - 1] > c; j--) order[j] = order[j - 1]
                    order[j] = c
                }
                printf "\n%-14s %7s %8s\n", "crate", "unused", "adapter"
                for (j = 1; j <= m; j++) {
                    c = order[j]
                    printf "%-14s %7d %8d\n", c, bare[c], tagged[c]
                    u += bare[c]; a += tagged[c]
                }
                printf "%-14s %7d %8d\n", "total", u, a
            }
        '
    exit 0
fi

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
