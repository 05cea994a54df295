#!/bin/sh
# Count non-test lines of Rust: the lines of each file before its first
# `#[cfg(test)]` (the whole file when it has none). Prints one row per
# crate under crates/*/src, then the total over
# crates/{core,engine,formats,repository,server}/src plus src/bin/nggc.rs.
#
#   scripts/nontest_lines.sh          # run from anywhere inside the repo
set -eu
cd "$(dirname "$0")/.."

nontest() {
    # Files given as arguments; prints their summed non-test lines.
    awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' "$@"
}

rs_files() {
    find "$@" -name '*.rs' -type f | sort
}

for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    # shellcheck disable=SC2046
    printf '%-12s %6d\n' "$crate" "$(nontest $(rs_files "$src"))"
done
# shellcheck disable=SC2046
total=$(nontest $(rs_files crates/core/src crates/engine/src crates/formats/src \
    crates/repository/src crates/server/src) src/bin/nggc.rs)
printf '%-12s %6d  (core, engine, formats, repository, server + src/bin/nggc.rs)\n' total "$total"
