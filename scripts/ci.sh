#!/usr/bin/env sh
# CI entry point: build, test, lint. Mirrors the tier-1 verify plus the
# mx-lint static-analysis pass (also enforced via tests/lint_gate.rs, so
# `cargo test` alone cannot go green on a lint-dirty tree).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> warning-free build (cargo build --release --workspace --all-targets must print no warning)"
cargo build --release --workspace --all-targets 2> /tmp/mx_build_all.log || {
    cat /tmp/mx_build_all.log
    exit 1
}
cat /tmp/mx_build_all.log
if grep -q '^warning' /tmp/mx_build_all.log; then
    echo "compiler warnings above"
    rm -f /tmp/mx_build_all.log
    exit 1
fi
rm -f /tmp/mx_build_all.log

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> mx-lint"
cargo run --quiet --release -p mx-lint

echo "==> mx-lint machine-readable determinism (two json/sarif runs must be byte-identical)"
cargo run --quiet --release -p mx-lint -- --format json > /tmp/mx_lint_a.json
cargo run --quiet --release -p mx-lint -- --format json > /tmp/mx_lint_b.json
cmp /tmp/mx_lint_a.json /tmp/mx_lint_b.json
rm -f /tmp/mx_lint_a.json /tmp/mx_lint_b.json
cargo run --quiet --release -p mx-lint -- --format sarif > /tmp/mx_lint_a.sarif
cargo run --quiet --release -p mx-lint -- --format sarif > /tmp/mx_lint_b.sarif
cmp /tmp/mx_lint_a.sarif /tmp/mx_lint_b.sarif
rm -f /tmp/mx_lint_a.sarif /tmp/mx_lint_b.sarif

echo "==> mx-lint strict mode honours --format (two --file json runs on the firing fixture: exit 1, byte-identical, JSON)"
for run in a b; do
    status=0
    cargo run --quiet --release -p mx-lint -- --file crates/lint/fixtures/violations.rs --format json \
        > /tmp/mx_lint_strict_$run.json || status=$?
    if [ "$status" -ne 1 ]; then
        echo "mx-lint --file on the fixture exited $status, expected 1"
        exit 1
    fi
done
cmp /tmp/mx_lint_strict_a.json /tmp/mx_lint_strict_b.json
if [ "$(head -c 1 /tmp/mx_lint_strict_a.json)" != "{" ]; then
    echo "mx-lint --file --format json did not print JSON:"
    head -n 3 /tmp/mx_lint_strict_a.json
    exit 1
fi
rm -f /tmp/mx_lint_strict_a.json /tmp/mx_lint_strict_b.json

echo "==> mx-lint baseline drift (HEAD needs no baseline)"
cargo run --quiet --release -p mx-lint -- --write-baseline /tmp/mx_lint_baseline.txt
test ! -s /tmp/mx_lint_baseline.txt
rm -f /tmp/mx_lint_baseline.txt

echo "==> parallel determinism (tests/par_determinism.rs)"
cargo test --release --test par_determinism -q

echo "==> chaos gate (tests/chaos_gate.rs)"
cargo test --release --test chaos_gate -q

echo "==> obs gate (tests/obs_gate.rs)"
cargo test --release --test obs_gate -q

echo "==> trace gate (tests/trace_gate.rs: byte-identical timeline at 1/2/8 threads, ring overflow accounting, serve event reconciliation)"
cargo test --release --test trace_gate -q

echo "==> store gate (tests/store_gate.rs)"
cargo test --release --test store_gate -q

echo "==> serve gate (tests/serve_gate.rs: byte-identical replay at 1/2/8 threads + chaos sweep at rates 0/0.1/0.3)"
cargo test --release --test serve_gate -q

echo "==> golden bytes (tests/golden_bytes.rs: store, delta-store, authority-answer and serve-body digests pinned across commits)"
cargo test --release --test golden_bytes -q

echo "==> benchmark self-test (perfbench/: builds against the crates' public API and checks every workload at a tiny scale)"
# --locked: a dependency edit in any crate perfbench builds must come
# with its perfbench/Cargo.lock edit instead of rewriting it here.
cargo test --release --locked --manifest-path perfbench/Cargo.toml

echo "==> delta gate (tests/delta_gate.rs: incremental append byte-identical to full recompute across seeds, event rates, threads 1/2/8)"
cargo test --release --test delta_gate -q

echo "==> engine gate (crates/core/tests/engine.rs: a long-lived inference engine's attributions and maintained confidence counts, per-IP IDs and certificate groups equal the public stages after every change)"
cargo test --release -p mx-infer --test engine -q

echo "==> delta codec robustness (tests/malformed_input.rs: event-log decoding rejects corruption without panicking)"
cargo test --release --test malformed_input -q

echo "==> line count (scripts/loc.sh: Rust lines of non-test and test code; informational, fails nothing)"
scripts/loc.sh || true

echo "CI OK"
