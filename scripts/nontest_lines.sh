#!/bin/sh
# Count non-test lines of Rust: the lines of each file before its inline
# test module, a `#[cfg(test)]` followed by `mod NAME {` (the whole file
# when it has none). A `#[cfg(test)]` on any other item is counted like
# any other line and does not end the count. A file declared as
# `#[cfg(test)] mod NAME;` is test code as a whole, and that declaration
# does not end the count of the file that makes it either. Prints one row
# per crate under crates/*/src, then the total over
# crates/{core,engine,formats,gdm,repository,server}/src plus
# src/bin/nggc.rs, once by this rule and once, over the same files, by the
# older one, which stopped at a file's first `#[cfg(test)]` of any kind and
# counted declared test files as non-test (the figure CHANGES.md quotes up
# to the change that corrected it). Totals CHANGES.md quotes before the
# change that added gdm leave that crate out. Last come the five largest
# files under crates/*/src and src by this rule, largest first.
#
#   scripts/nontest_lines.sh          # run from anywhere inside the repo
set -eu
cd "$(dirname "$0")/.."

# An out-of-line module declaration: `mod NAME;`, `pub(crate) mod NAME;`.
MOD_DECL='^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+;'
# An inline module: `mod tests {`.
MOD_BLOCK='^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*\{'
export MOD_DECL MOD_BLOCK

rs_files() {
    find "$@" -name '*.rs' -type f | sort
}

# The files declared by `#[cfg(test)] mod NAME;` in the files given, one
# path a line: NAME.rs or NAME/mod.rs beside a mod.rs, lib.rs or main.rs,
# and under the declaring file's own directory otherwise.
test_modules() {
    for file in "$@"; do
        dir=$(dirname "$file")
        case $(basename "$file") in
            mod.rs | lib.rs | main.rs) ;;
            *) dir="$dir/$(basename "$file" .rs)" ;;
        esac
        awk '
            cfg && $0 ~ ENVIRON["MOD_DECL"] { name = $NF; sub(/;$/, "", name); print name }
            { cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
        ' "$file" | while read -r name; do
            for candidate in "$dir/$name.rs" "$dir/$name/mod.rs"; do
                if [ -f "$candidate" ]; then echo "$candidate"; fi
            done
        done
    done
}

# Summed non-test lines of the files given. With OLD=1, by the older
# rule; otherwise skipping the files named in $TEST_FILES.
nontest() {
    awk -v old="${OLD:-0}" -v skip="${TEST_FILES:-}" '
        BEGIN { n_skip = split(skip, list, "\n"); for (i = 1; i <= n_skip; i++) test[list[i]] = 1 }
        FNR == 1 { counting = !(FILENAME in test) || old; pending = 0 }
        pending {
            pending = 0
            if ($0 ~ ENVIRON["MOD_DECL"]) next
            if ($0 ~ ENVIRON["MOD_BLOCK"]) { counting = 0; next }
            n++
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { if (old) counting = 0; else if (counting) { pending = 1; next } }
        counting { n++ }
        END { print n + 0 }
    ' "$@"
}

# shellcheck disable=SC2046
TEST_FILES=$(test_modules $(rs_files crates/*/src src))
export TEST_FILES
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    # shellcheck disable=SC2046
    printf '%-12s %6d\n' "$crate" "$(nontest $(rs_files "$src"))"
done
# shellcheck disable=SC2046
set -- $(rs_files crates/core/src crates/engine/src crates/formats/src \
    crates/gdm/src crates/repository/src crates/server/src) src/bin/nggc.rs
printf '%-12s %6d  (core, engine, formats, gdm, repository, server + src/bin/nggc.rs)\n' \
    total "$(nontest "$@")"
printf '%-12s %6d  (the same files by the older rule)\n' "old total" "$(OLD=1 nontest "$@")"
echo "largest files (non-test lines):"
# shellcheck disable=SC2046
for file in $(rs_files crates/*/src src); do
    printf '%6d  %s\n' "$(nontest "$file")" "$file"
done | sort -rn | head -n 5
