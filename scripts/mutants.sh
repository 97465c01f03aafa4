#!/usr/bin/env bash
# Mutation-kill matrix of the tier-1 debug test suite.
#
#   scripts/mutants.sh            run every site of scripts/mutants/sites.tsv
#   scripts/mutants.sh ID...      run the named sites only
#   scripts/mutants.sh --check    check that every site still applies (no cargo)
#
# Each site is one textual flip: a snippet that occurs exactly once in its
# file and its replacement. A run copies the working tree's tracked and
# untracked-but-not-ignored files into $MUTANTS_WORK/tree (default
# target/mutants/tree; the repository is never edited), checks that the
# unmutated suite passes, then for each site applies the flip, builds, runs
# `cargo test --no-fail-fast` under `timeout 900` and restores the file.
# Every build uses the copy's own CARGO_TARGET_DIR, $MUTANTS_WORK/target.
# The copy's files are stamped with the time of the copy: cargo compares
# mtimes, and a source older than an artifact built from a mutant (left by
# an interrupted run) would otherwise be taken as built.
#
# The outcome of each site replaces its row of scripts/mutants/matrix.tsv
# (id, outcome, the failing `binary::test` ids, note):
#   killed    at least one test failed; the ids are listed
#   survived  every test passed
#   unviable  the mutant does not build
#   timeout   the build or the suite ran past 900 s
# A test binary that dies without a result line is listed as
# `binary::<crashed>`. One site takes about a minute on a 2-core host.
# A run holds an exclusive lock on $MUTANTS_WORK/lock and refuses to start
# while another run holds it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
sites=$root/scripts/mutants/sites.tsv
matrix=$root/scripts/mutants/matrix.tsv
work=${MUTANTS_WORK:-$root/target/mutants}

# Prints how often $2 occurs in $1.
occurrences() {
    local rest=$1 n=0
    while [[ $rest == *"$2"* ]]; do
        rest=${rest#*"$2"}
        n=$((n + 1))
    done
    echo "$n"
}

# Prints the file's bytes unchanged, trailing newlines included.
slurp() {
    local text
    text=$(cat "$1" && printf x)
    printf '%s' "${text%x}"
}

# Fills ids, files, froms, tos and notes from the site list.
declare -a ids=() files=() froms=() tos=() notes=()
while IFS=$'\t' read -r id file from to note; do
    [[ -z $id || $id == \#* ]] && continue
    ids+=("$id") files+=("$file") froms+=("$from") tos+=("$to") notes+=("${note:-}")
done <"$sites"

check() {
    local base=$1 stale=0 i text n
    for i in "${!ids[@]}"; do
        if [[ -z ${tos[i]} || ${froms[i]} == "${tos[i]}" ]]; then
            echo "site ${ids[i]}: the replacement is empty or equals the snippet" >&2
            stale=1
            continue
        fi
        if [[ ! -f $base/${files[i]} ]]; then
            echo "site ${ids[i]}: ${files[i]} does not exist" >&2
            stale=1
            continue
        fi
        text=$(slurp "$base/${files[i]}")
        n=$(occurrences "$text" "${froms[i]}")
        if [[ $n != 1 ]]; then
            echo "site ${ids[i]}: the snippet occurs $n times in ${files[i]}, not once" >&2
            stale=1
        fi
    done
    if [[ $(printf '%s\n' "${ids[@]}" | sort | uniq -d) ]]; then
        echo "duplicate site ids: $(printf '%s\n' "${ids[@]}" | sort | uniq -d | tr '\n' ' ')" >&2
        stale=1
    fi
    return "$stale"
}

if [[ ${1:-} == --check ]]; then
    check "$root"
    echo "${#ids[@]} sites apply"
    exit 0
fi
check "$root"

# Two runs sharing one work tree would re-copy it under each other's
# builds: hold $work/lock for the whole run and refuse to start beside
# another run of the same tree.
mkdir -p "$work"
exec 9>"$work/lock"
if ! flock -n 9; then
    echo "another mutation run holds $work/lock; wait for it or set MUTANTS_WORK" >&2
    exit 1
fi

declare -A chosen=()
for id in "$@"; do
    [[ " ${ids[*]} " == *" $id "* ]] || { echo "no site named $id" >&2; exit 2; }
    chosen[$id]=1
done

# Runs the suite in the copy; prints the failing ids, sorted, one a line.
# Returns 124 on a timeout and 3 when the tree does not build.
run_suite() {
    local log=$work/last.log status=0
    (cd "$work/tree" && timeout 900 cargo test --offline --no-fail-fast --no-run) \
        >"$log" 2>&1 || status=$?
    [[ $status == 124 ]] && return 124
    [[ $status != 0 ]] && return 3
    (cd "$work/tree" && timeout 900 cargo test --offline --no-fail-fast) \
        >"$log" 2>&1 || status=$?
    [[ $status == 124 ]] && return 124
    awk '
        function close_binary() {
            if (binary != "" && !finished) print binary "::<crashed>"
        }
        /^ *Running / {
            close_binary()
            binary = $NF
            gsub(/[()]/, "", binary)
            sub(/.*\//, "", binary)
            sub(/-[0-9a-f]+$/, "", binary)
            finished = 0
        }
        /^ *Doc-tests / { close_binary(); binary = $2 "(doc)"; finished = 0 }
        /^test result: / { finished = 1 }
        /^test .* \.\.\. FAILED$/ {
            name = $0
            sub(/^test /, "", name)
            sub(/ \.\.\. FAILED$/, "", name)
            print binary "::" name
        }
        END { close_binary() }
    ' "$log" | LC_ALL=C sort -u
    return 0
}

rm -rf "$work/tree"
mkdir -p "$work/tree"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' path; do
        if [[ -e $root/$path ]]; then printf '%s\0' "$path"; fi
    done |
    tar -C "$root" --null -T - -cf - | tar -C "$work/tree" --touch -xf -
export CARGO_TARGET_DIR=$work/target

echo "unmutated suite ..." >&2
status=0
failing=$(run_suite) || status=$?
if [[ $status != 0 || -n $failing ]]; then
    echo "the unmutated suite must build and pass (status $status):" >&2
    echo "$failing" >&2
    exit 1
fi

# Writes the rows in site order, dropping those of sites no longer listed.
write_matrix() {
    local id
    {
        echo "# Written by scripts/mutants.sh: id, outcome, failing tests, note."
        for id in "${ids[@]}"; do
            if [[ -n ${rows[$id]:-} ]]; then printf '%s\t%s\n' "$id" "${rows[$id]}"; fi
        done
    } >"$matrix"
}

declare -A rows=()
if [[ -f $matrix ]]; then
    while IFS=$'\t' read -r id rest; do
        [[ -z $id || $id == \#* ]] && continue
        rows[$id]=$rest
    done <"$matrix"
fi

for i in "${!ids[@]}"; do
    id=${ids[i]}
    [[ $# -gt 0 && -z ${chosen[$id]:-} ]] && continue
    path=$work/tree/${files[i]}
    original=$(slurp "$path")
    printf '%s' "${original/"${froms[i]}"/"${tos[i]}"}" >"$path"
    started=$SECONDS
    status=0
    failing=$(run_suite) || status=$?
    printf '%s' "$original" >"$path"
    case $status in
        124) outcome=timeout ;;
        3) outcome=unviable ;;
        *) [[ -n $failing ]] && outcome=killed || outcome=survived ;;
    esac
    killers=$(echo "$failing" | paste -sd '|' -)
    row="$outcome"$'\t'"$killers"$'\t'"${notes[i]}"
    rows[$id]=${row%"${row##*[!$'\t']}"}
    write_matrix
    echo "$id: $outcome ($(echo "$failing" | grep -c . || true) failing, $((SECONDS - started)) s)" >&2
done

