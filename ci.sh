#!/usr/bin/env bash
# Repo CI gate: formatting, lints, full test suite.
#
#   ./ci.sh            # everything
#   ./ci.sh --fast     # skip the release build
#
# Mirrors what reviewers run by hand; keep it boring and fast. All steps
# are offline (vendored deps only).

set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
cargo test --workspace -q

if [[ "$fast" -eq 0 ]]; then
    echo "== cargo build --release (workspace, timed) =="
    build_start=$SECONDS
    cargo build --release -q --workspace
    echo "release build took $((SECONDS - build_start))s"

    # Static analyzer gate: every example program must pass `sensorlog
    # check` with zero errors and zero warnings (bounds derivable, no
    # cartesian joins, no dead rules, windows declared) — including the
    # cost lints (`comm.widen`, `cost.holddown-implicit`) introduced by
    # the frontier-width pass.
    echo "== sensorlog check (examples, deny warnings incl. cost lints) =="
    for f in examples/programs/*.dl; do
        cargo run -q --release --bin sensorlog -- check "$f" --deny-warnings
    done

    # Rewrite gate: `sensorlog fix --dry-run` must find nothing left to
    # apply on any committed example — machine-applicable suggestions are
    # either already folded into the sources or the lint above would have
    # fired. Exit code 2 means pending fixes; 1 means non-convergence.
    echo "== sensorlog fix --dry-run (examples, must be clean) =="
    for f in examples/programs/*.dl; do
        cargo run -q --release --bin sensorlog -- fix "$f" --dry-run
    done

    # Bench driver smoke: every `bench <suite> --quick` run must exit 0
    # and write parseable JSON. Each suite enforces its own gates in-process
    # and exits non-zero on a breach: shard journals = the wheel oracle,
    # chaos heap = wheel = shard journals and convergence to the oracle,
    # prov on = off journals plus an end-to-end proof, intern's resolve
    # gate and its journal pin, diag's soundness and 10x tightness gates,
    # and smoke's snapshot-schema golden file. The needles below re-check
    # the emitted text: the worst-case diag tightness ratios and the
    # windowed mirror's finite bound, and intern's zero hot-path
    # resolves. The journal hashes these runs produce are pinned in
    # tier-1 (tests/trace_stability.rs, tests/chaos.rs). The committed
    # BENCH_<suite>.json files are the full-budget runs.
    echo "== bench suites (--quick) + figures fig10 fig14 =="
    bench() { cargo run -q --release -p sensorlog-bench -- "$@"; }
    suite_needles() {
        case "$1" in
            diag) printf '%s\n' \
                '"pred": "h", "legacy": 4186, "frontier": 161, "live": 41, "peak_node": 21, "tightness": 3' \
                '"pred": "hp", "legacy": 2080, "frontier": 240, "live": 24, "peak_node": 10, "tightness": 10' \
                '"mirror": {"legacy": "unbounded", "frontier": 4800}' ;;
            intern) printf '%s\n' '"engine_hot": 0' '"deploy_hot": 0' ;;
        esac
    }
    for suite in smoke sched shard chaos prov intern diag; do
        out=$(mktemp "/tmp/bench_$suite.XXXXXX.json")
        bench "$suite" --quick --out "$out"
        # smoke writes JSONL snapshot records, one JSON object per line.
        if [[ "$suite" == smoke ]]; then
            python3 -c 'import json, sys; [json.loads(l) for l in open(sys.argv[1])]' "$out"
        else
            python3 -m json.tool "$out" > /dev/null
        fi
        while IFS= read -r needle; do
            grep -qF -- "$needle" "$out" || {
                echo "$suite smoke: missing \`$needle\` in $out"; exit 1; }
        done < <(suite_needles "$suite")
        rm -f "$out"
    done
    figures_out=$(bench figures fig10 fig14)
    for needle in '== fig10 ' '== fig14 '; do
        grep -qF -- "$needle" <<<"$figures_out" || {
            echo "figures smoke: missing \`$needle\`"; echo "$figures_out"; exit 1; }
    done

    # Benchmark correctness smoke: a one-second run of each e2ebench
    # workload must end with `"correct": true` — sptree's oracle and
    # invariant checks, churn's convergence to the oracle under faults,
    # centroid's exact check — so a probe-kernel regression fails here and
    # not only in the benchmark pipeline.
    echo "== e2ebench correctness smoke (1 s per workload) =="
    e2e_log=$(mktemp /tmp/e2ebench.XXXXXX.log)
    for w in sptree churn centroid; do
        e2e_last=$(bash e2ebench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 \
            2>"$e2e_log" | tail -n 1) || { cat "$e2e_log"; exit 1; }
        grep -q '"correct": true' <<<"$e2e_last" || {
            cat "$e2e_log"; echo "e2ebench smoke: $w did not report correct: $e2e_last"; exit 1; }
        echo "$w: correct"
    done
    rm -f "$e2e_log"

    # `sensorlog explain` end-to-end: a recursive 3-link chain whose proof
    # tree must span the grid and name the EDB leaf, with the latency-
    # critical chain attached.
    echo "== sensorlog explain smoke (recursive cross-node proof) =="
    explain_out=$(cargo run -q --release --bin sensorlog -- explain \
        examples/explain/reach.dl --grid 4 \
        --events examples/explain/chain_events.txt --why 'reach(1, 4)')
    for needle in 'reach(1, 4)' 'edge(1, 2)' 'critical path' 'sim-ms'; do
        grep -qF "$needle" <<<"$explain_out" || {
            echo "explain smoke: missing \`$needle\` in output:"; echo "$explain_out"; exit 1; }
    done
fi

echo "CI OK"
