#!/usr/bin/env bash
# CI lint for the rules that keep the execution core and the record
# layer single-path (ROADMAP items 1a and 3). Run from anywhere inside
# the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0

# One code path with a context argument: a suffixed sibling of an
# existing function is a second path to keep in parity.
if grep -rnE 'pub fn \w+_(observed|clocked|traced|backend|with_options\w*)\b' crates/*/src; then
    echo "error: variant-ladder function name; pass a context argument (RunCtx, Backend) instead" >&2
    fail=1
fi

# Harness time goes through mocket_sim::Clock so --sim runs stay
# byte-reproducible. Wall-clock reads outside the clock crate and the
# benches are counted per file against scripts/instant-allowlist.txt;
# lower a count there when a site is removed, never raise one without
# a reason in the commit message.
while read -r file; do
    found=$({ grep -oE 'Instant::now\(\)|\.elapsed\(\)' "$file" || true; } | wc -l)
    allowed=$(awk -v f="$file" '$1 == f { print $2 }' scripts/instant-allowlist.txt)
    if [ "$found" -gt "${allowed:-0}" ]; then
        echo "error: $file has $found wall-clock reads (Instant::now()/.elapsed()), allow-list says ${allowed:-0}" >&2
        fail=1
    fi
done < <(git ls-files '*.rs' | grep -vE '^(crates/sim|crates/bench|perfbench)/')

# One salvage rule: the torn-final-line handling of every campaign log
# lives in AppendLog::salvage. A second copy of its message outside
# obs::fsio (unit-test modules aside) is a second implementation.
while read -r file; do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file" | grep -q 'truncated final line'; then
        echo "error: $file spells out the torn-line salvage rule; load through obs::fsio::AppendLog" >&2
        fail=1
    fi
done < <(git ls-files 'crates/*/src/*.rs' 'src/*.rs' | grep -vE '^crates/obs/src/fsio\.rs$|/tests\.rs$')

# One `head k=v k=v` codec: orchestrator records parse through
# orchestrator::kv, the only place that splits a token on '='.
found=$({ grep -rn "split_once('=')" crates/core/src/orchestrator/ || true; } | wc -l)
if [ "$found" -gt 1 ]; then
    echo "error: $found split_once('=') sites under crates/core/src/orchestrator/; parse through kv::parse" >&2
    fail=1
fi

# Liveness is the kernel's: a shard or a campaign directory is held by
# an flock that dies with its holder, so the lock and lease code reads
# no wall clock, sleeps nothing and runs no thread (ROADMAP item 1).
if grep -nE 'SystemTime|thread::sleep|thread::spawn' \
    crates/core/src/orchestrator/lease.rs crates/core/src/orchestrator/lock.rs; then
    echo "error: wall clock, sleep or thread in lease.rs/lock.rs; ownership is an flock (DirLock)" >&2
    fail=1
fi

# A shard is a case window of the worker's one run, not a run: the
# orchestrator drives `Pipeline::run_window` and never the whole-run
# entry point (which generates and summarises on every call).
while read -r file; do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file" | grep -q 'run_prepared'; then
        echo "error: $file mentions run_prepared; a campaign worker drives shards through Pipeline::run_window" >&2
        fail=1
    fi
done < <(git ls-files 'crates/core/src/orchestrator/*.rs')

# One target catalogue: a system under test is deployed through
# `mocket::targets` (which pairs the builder with its spec, mapping and
# bug switch), never by calling a system crate's builder directly.
if git grep -nE 'make_sut_full\(' -- '*.rs' \
    ':!src/targets.rs' ':!crates/*/src/sut.rs' ':!perfbench/'; then
    echo "error: make_sut_full( outside src/targets.rs; build the SUT through mocket::targets" >&2
    fail=1
fi

# Nothing ships that no product path reaches: every `pub fn` /
# `pub(crate) fn` defined in the non-test part of the product crates
# must be named, outside comments and other than by its own `fn`
# line, somewhere a product path can start from — the non-test part of
# crates/ src/ examples/ perfbench/src, or a root tests/ file. A name
# only its own unit tests mention is a capability nothing uses: delete
# it with those tests. Exceptions, one `name reason` per line, live in
# scripts/reach-allowlist.txt.
nontest() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ":" $0 }' "$@"; }
mapfile -t product < <(git ls-files 'crates/*/src/*.rs' 'src/*.rs' | grep -v '/tests\.rs$')
mapfile -t callers < <(git ls-files 'crates/bench/*.rs' 'examples/*.rs' 'perfbench/src/*.rs')
used=$({ nontest "${product[@]}" "${callers[@]}" | cut -d: -f3-; git ls-files -z 'tests/*.rs' | xargs -0 cat; } \
    | sed -E 's://.*$::; s/\bfn +[A-Za-z_0-9]+//g' | grep -oE '[A-Za-z_][A-Za-z_0-9]*' | sort -u)
while IFS=: read -r file line name; do
    if ! grep -qxF "$name" <<<"$used" && ! grep -qE "^$name " scripts/reach-allowlist.txt; then
        echo "error: $file:$line: \`$name\` is reached by no product path (only its definition and tests name it)" >&2
        fail=1
    fi
done < <(nontest "${product[@]}" \
    | sed -nE 's/^([^:]+):([0-9]+):[[:space:]]*pub(\(crate\))? (const |unsafe )*fn ([A-Za-z_0-9]+).*/\1:\2:\5/p')

# The benchmark trajectory (scripts/bench-history.sh) is machine-read
# and append-only: every line is one flat record of the shape the
# script writes, and what a commit holds stays a byte prefix of what
# the next one does — history grows by whole lines and never changes.
history=BENCH_history.jsonl
num='-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?'
shape="^\\{\"commit\":\"[^\"]+\",\"workload\":\"[a-z-]+\",\"wall_s\":$num,\"setup_s\":$num,\"cases_per_s\":$num,\"cpu_s\":$num,\"peak_rss_mb\":$num,\"states\":([0-9]+|null),\"cases\":[0-9]+\\}\$"
if grep -nvE "$shape" "$history" || [ -n "$(tail -c1 "$history")" ]; then
    echo "error: $history has a line that is not a whole bench-history record" >&2
    fail=1
fi
for base in HEAD 'HEAD^'; do
    if size=$(git cat-file -s "$base:$history" 2>/dev/null) \
        && ! git show "$base:$history" | cmp -s - <(head -c "$size" "$history"); then
        echo "error: $history no longer starts with its contents at $base; it is append-only" >&2
        fail=1
    fi
done

exit "$fail"
