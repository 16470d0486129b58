#!/usr/bin/env bash
# Check that every mutant in mutants/ is killed by the tests it names.
#
# Each mutants/NNN-name.patch is a small `git diff` against the tree with a
# header: a `Mutant:` line saying what the mutation breaks, and one
# `Must fail: <cargo test arguments> <test name>` line per test that has
# to catch it, for example
#
#   Must fail: -p psl-webcorpus --lib sessions::tests::the_visitor_names_every_host_of_every_event
#
# The script copies the tracked files of the working tree into a clean
# tree under the cargo target directory, checks that every named test
# exists there and passes, then applies each patch in turn, rebuilds, runs
# each named test on its own (`-- --exact`), and reverts the patch. It
# fails if a patch no longer applies, a mutant does not build, a named
# test is missing or already failing, or a mutant survives any of its
# named tests. Nothing needs the network.
#
# Usage: mutants/run.sh [PATCH...]    (default: every mutants/*.patch)

set -uo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/mutants}
tree=$CARGO_TARGET_DIR/tree
if [ $# -eq 0 ]; then
    set -- "$root"/mutants/*.patch
fi
patches=()
for patch in "$@"; do
    patches+=("$(realpath "$patch")")
done

# A clean copy of the tracked files. Each file gets the time of the copy
# (`tar -m`): with its old time, cargo could take a build of the last run's
# last mutant for a build of the clean file.
rm -rf "$tree"
mkdir -p "$tree"
git -C "$root" ls-files -z | (cd "$root" && tar --null -T - -cf -) | tar -xmf - -C "$tree"
cd "$tree" || exit 1
# A repository of its own, so `git apply` patches this copy and not the
# tree it was copied from.
git init -q .

# The `Must fail:` lines of a patch, one per line.
kills() {
    sed -n 's/^Must fail: //p' "$1"
}

# Run one named test: `test_one ARGS... NAME` prints cargo's summary line
# and returns cargo's status.
test_one() {
    local name=${*: -1}
    local args=("${@:1:$#-1}")
    local log
    log=$(cargo test --offline -q "${args[@]}" "$name" -- --exact 2>&1 </dev/null)
    local status=$?
    grep -E '^test result: ' <<<"$log" | tail -1
    return $status
}

failures=0
fail() {
    echo "FAIL: $*"
    failures=$((failures + 1))
}

echo "== the named tests on the clean tree"
declare -A checked
for patch in "${patches[@]}"; do
    while read -r line; do
        [ -n "${checked[$line]:-}" ] && continue
        checked[$line]=1
        # shellcheck disable=SC2086
        summary=$(test_one $line)
        if [ $? -ne 0 ] || ! grep -q ' 1 passed' <<<"$summary"; then
            fail "clean tree: '$line' is missing or failing (${summary:-no summary})"
        fi
    done < <(kills "$patch")
done

for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    started=$(date +%s)
    echo "== $name: $(sed -n 's/^Mutant: //p' "$patch")"
    if [ -z "$(kills "$patch")" ]; then
        fail "$name names no test"
        continue
    fi
    if ! git apply --check "$patch" 2>/dev/null; then
        fail "$name no longer applies"
        continue
    fi
    git apply "$patch"
    while read -r line; do
        # shellcheck disable=SC2086
        set -- $line
        if ! cargo test --offline -q "${@:1:$#-1}" --no-run >/dev/null 2>&1 </dev/null; then
            fail "$name does not build for '$line'"
            continue
        fi
        # shellcheck disable=SC2086
        summary=$(test_one $line)
        status=$?
        if [ $status -ne 0 ] && grep -q ' 1 failed' <<<"$summary"; then
            echo "   killed by $line"
        else
            fail "$name survives '$line' (${summary:-no summary})"
        fi
    done < <(kills "$patch")
    git apply -R "$patch"
    echo "   $(($(date +%s) - started)) s"
done

if [ $failures -gt 0 ]; then
    echo "$failures failure(s)"
    exit 1
fi
echo "every mutant was killed by every test it names"
