#!/usr/bin/env bash
# Tier-1 gate + hermeticity guard.
#
# The workspace must build and test offline, with an empty registry
# cache, forever. Two guards keep it that way:
#   1. no Cargo.toml may name a dependency outside the stamp_* workspace;
#   2. no source file may import one of the excised external crates.
set -euo pipefail
cd "$(dirname "$0")"

fail=0

# --- Guard 1: manifests are workspace-only -------------------------------
# Collect dependency names from every [dependencies]/[dev-dependencies]/
# [build-dependencies] section of every manifest.
for manifest in Cargo.toml crates/*/Cargo.toml; do
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/) }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
            name = $1; sub(/[[:space:]]*=.*/, "", name); print name
        }
    ' "$manifest")
    for dep in $deps; do
        case "$dep" in
            stamp_*) ;;
            *)
                echo "HERMETICITY VIOLATION: $manifest names external dependency '$dep'" >&2
                fail=1
                ;;
        esac
    done
done

# --- Guard 2: no imports of the excised crates ---------------------------
if grep -rEn "use (rand|serde|bytes|parking_lot|criterion|proptest)(::|;)|(^|[^a-z_])crossbeam::" \
        --include='*.rs' crates src tests examples; then
    echo "HERMETICITY VIOLATION: source imports an excised external crate" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "hermeticity guards passed"

# --- simlint: the lint rules and the fences --------------------------------
# The in-repo lint engine (crates/simlint; DESIGN.md §11, `simlint --list`):
# its rules, and its fences (one worker pool, one tokenizer, one speaker, …).
# It fails on a deny finding or on more warn findings than `WARN_CEILING`.
cargo run --release --offline -q -p simlint

# --- Formatting ----------------------------------------------------------
cargo fmt --check
echo "formatting check passed"

# --- Lints ---------------------------------------------------------------
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "clippy passed (workspace, all targets, -D warnings)"

# --- Tier-1 gate, strictly offline ---------------------------------------
cargo build --release --offline
cargo build --examples --offline
cargo test -q --offline
# The crate-level doctest is the sim-facade quickstart — a gate of its own.
cargo test --doc --offline
# The eight figures share one binary, `calibrate` is another, and the
# daemon is one more; run each once so none can rot built but unrun
# (~1 s each). What they print is pinned by the tests, not here
# (tests/queryd.rs holds the daemon's transcript golden).
cargo run --release --offline -q -p stamp_bench --bin figure -- fig2 --ases 200 --instances 2 --seed 9 >/dev/null
cargo run --release --offline -q -p stamp_bench --bin calibrate -- --ases 200 --instances 1 >/dev/null
cargo run --release --offline -q -p stamp_queryd -- --smoke <crates/queryd/transcripts/smoke.in >/dev/null
# Debug-vs-release: every golden tests/determinism.rs pins (the smoke and
# adversarial hashes, the figure runner, the canned rows, ObserverWork)
# must come out identically under release. A difference means results
# depend on debug_assertions-gated code, an overflow release wraps, or
# float evaluation — all determinism bugs.
cargo test --release --offline -q --test determinism
# Allocations per delivered update on a warm fork's replay, for all three
# protocols: release only (debug runs allocating oracles), so it runs here.
cargo test --release --offline -q -p stamp_bench --test allocations
echo "tier-1 gate passed (offline, incl. doctests, one figure, calibrate and daemon run each, release determinism and allocations)"

# --- Warm-start results-golden gate ---------------------------------------
# The full default run: campaign at 500 ASes, campaign_2000 at 2000 and the
# adversarial grid, each cold-serial, cold-parallel and warm (every cell a
# clone of a pre-converged session; the binary asserts all three passes
# hash identically and count the same observer work), plus the policy
# sweep over every built-in regime. `--check` renders the results document
# in memory and exits non-zero, naming the first differing line, unless it
# equals the tracked BENCH_campaign.json byte for byte. That file *is* the
# golden — the three grid hashes, the four sweep hashes and every families /
# affected_mean / diverged value live there and nowhere else — so run state
# that a copy of a session fails to carry stops CI even if it shifts
# results *consistently*. (A forgotten `Engine` *field* never gets this far:
# the engine's `Clone` impl destructures its source without `..`, so it
# does not compile.) An intended change of results is a plain `campaign`
# run and the regenerated file in the same commit.
# Naming the default regime must be a no-op: `--policy gao-rexford` runs the
# identical default grids.
cargo run --release --offline -q -p stamp_bench --bin campaign -- \
    --policy gao-rexford --check >/dev/null
echo "warm-start results-golden gate passed (BENCH_campaign.json byte-identical)"

# --- Reference benchmark gate ----------------------------------------------
# benchmark/ is a package of its own that consolidation PRs may not edit;
# what they can do is break the API surface it imports (benchmark/README.md,
# "API-surface manifest"). Build it offline against this tree, run every
# workload once at smoke scale (each in a fresh child process; exits non-zero
# on any failed operation or check) and run its unit tests (BENCHMARK.json ≡
# spec.rs among them), so that shows up here and not in the pipeline.
#
# Cargo refreshes benchmark/Cargo.lock in place when a workspace crate's
# dependency edges changed; that file belongs to benchmark PRs, so put it
# back afterwards instead of leaving the tree dirty.
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- run all --smoke >/dev/null
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
echo "reference benchmark gate passed (offline build, run all --smoke, unit tests)"
