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

# --- Guard 3: one worker pool, one way to run cells --------------------------
# Cells run in exactly one place (`run_cells` in
# crates/workload/src/campaign.rs): figures and campaigns hand it a cell list
# instead of growing their own pool, and a what-if is a one-worker cell list
# through it too (`QueryEngine::whatif`: one cell per served destination;
# `par_map` runs a one-item list on the calling thread). So a
# `thread::scope(` call and an `available_parallelism(` call (the "0 = all
# cores" resolution, and the one simlint `ambient-env` allow) may each occur
# in exactly one file of the crates that run simulations, and the daemon may
# not call the single-cell entry points (`run_protocol_cell[_warm]`) beside
# the runner.
for pat in 'thread::scope(' 'available_parallelism('; do
    files=$(grep -rlF "$pat" crates/workload/src crates/experiments/src crates/queryd/src || true)
    if [ "$(printf '%s' "$files" | grep -c .)" -ne 1 ]; then
        echo "POOL VIOLATION: '$pat' must occur in exactly one file under crates/{workload,experiments,queryd}/src, found:" >&2
        printf '%s\n' "${files:-<none>}" >&2
        exit 1
    fi
done
if grep -rnF 'run_protocol_cell' crates/queryd/src; then
    echo "POOL VIOLATION: a what-if is a cell list through run_cells; run_protocol_cell may not occur under crates/queryd/src" >&2
    exit 1
fi
echo "one-worker-pool / one-cell-runner guard passed"

# --- Guard 4: one tokenizer ------------------------------------------------
# Every line-oriented text surface — .scn, .pol, queryd requests and
# response frames, the binaries' argv — is tokenized by
# crates/eventsim/src/textfmt.rs and nowhere else. So a whitespace split and
# the `[A-Za-z0-9_.-]` name charset may each occur in exactly one file of
# the crates that read text (DESIGN.md §8.4).
for pat in 'split_ascii_whitespace(' 'split_whitespace(' 'is_ascii_alphanumeric() ||'; do
    files=$(grep -rlF "$pat" crates/eventsim/src crates/workload/src crates/policy/src \
        crates/queryd/src crates/bench/src || true)
    case "$pat:$files" in
        'split_whitespace(:') ;; # the Unicode split has no user at all
        *:crates/eventsim/src/textfmt.rs) ;;
        *)
            echo "TOKENIZER VIOLATION: '$pat' may occur only in crates/eventsim/src/textfmt.rs, found:" >&2
            printf '%s\n' "${files:-<none>}" >&2
            exit 1
            ;;
    esac
done
echo "one-tokenizer guard passed"

# --- Guard 5: one BGP speaker ----------------------------------------------
# Everything that is BGP about an AS — the decision call, the Adj-RIB-Out
# table — lives in crates/bgp/src/speaker.rs; the three protocol routers
# hold a speaker and add only their delta (DESIGN.md §5.4). So across the
# three protocol crates the decision process is invoked only by the speaker
# (and rib.rs's own tests), and the only `clone_from` written by hand is
# the engine's, which shares, drops and invalidates fields (every other
# copy is field-wise, from `clone_in_place!`). A router names a neighbour
# one way, by its session slot (DESIGN.md §10.3): the speaker's tables and
# the protocols' own books are dense rows, so speaker.rs, rib.rs and the
# three routers hold no hash map; no route table keyed by neighbour id
# comes back anywhere;
# a router sees its session slice, not the graph (no `ctx.topo`, no
# relation or slot looked up by id); the liveness a router reads is the one
# predicate the engine implements (only engine.rs writes a `session_up`);
# and the engine's dispatch reads the session an update names instead of
# searching for it. The decision order is one value (`Criterion`, with
# `Rank` its one comparison, in rib.rs): no router picks a route by a
# key tuple of its own (`min_by_key` / `max_by_key`), and a router's BGP
# state is reached one way, `RouterLogic::speaker` — the data plane
# writes no accessor of its own.
speaker_crates="crates/bgp/src crates/rbgp/src crates/core/src"
one_speaker() { # pattern, then the files that may hold it
    local pat=$1 files extra
    shift
    # shellcheck disable=SC2086
    files=$(grep -rlF "$pat" $speaker_crates | sort || true)
    extra=$(comm -23 <(printf '%s\n' "$files") <(printf '%s\n' "$@" | sort))
    if [ -n "$extra" ]; then
        echo "SPEAKER VIOLATION: '$pat' may occur only in: $*; also found in:" >&2
        printf '%s\n' "$extra" >&2
        exit 1
    fi
}
no_speaker() { # pattern, then the files that may not hold it
    local pat=$1 found
    shift
    if found=$(grep -nF "$pat" "$@"); then
        echo "SPEAKER VIOLATION: '$pat' may not occur in $*:" >&2
        printf '%s\n' "$found" >&2
        exit 1
    fi
}
one_speaker 'rib.decide' crates/bgp/src/rib.rs crates/bgp/src/speaker.rs
one_speaker 'fn clone_from' crates/bgp/src/engine.rs
one_speaker 'fn session_up(' crates/bgp/src/engine.rs
for pat in 'FxHashMap<(AsId, PrefixId,' 'FxHashMap<(AsId, PrefixId), Route>' \
        'FxHashMap<(PrefixId, AsId' 'ctx.slot_of(' 'ctx.relation(' 'ctx.topo'; do
    # shellcheck disable=SC2086
    no_speaker "$pat" $(find $speaker_crates -name '*.rs' | sort)
done
no_speaker 'FxHashMap' crates/bgp/src/router.rs crates/bgp/src/speaker.rs \
    crates/bgp/src/rib.rs crates/core/src/router.rs crates/rbgp/src/router.rs
no_speaker 'entry_between(' crates/bgp/src/engine.rs
for pat in 'min_by_key' 'max_by_key'; do
    no_speaker "$pat" crates/bgp/src/router.rs crates/rbgp/src/router.rs crates/core/src/router.rs
done
no_speaker 'fn speaker(' crates/forwarding/src/view.rs
echo "one-speaker guard passed"

# --- Guard 6: one engine view, one session model ---------------------------
# A protocol says only its forwarding step (`DataPlane`); everything else a
# forwarding view answers is written once, for `EngineView`, next to the
# engine-less `StaticView` — and nowhere in the workload crate. What a
# router states about itself — its process count, its inter-phase reset —
# is on `RouterLogic` (DESIGN.md §5.4), so the data plane declares neither,
# and the engine sizes its tables by `R::PROCS`: `N_PROCS` appears in
# engine.rs only where it is defined and where `Engine::new` bounds
# `R::PROCS` by it. The paper's
# §6.2 delay/MRAI/loss table is written once (`SessionModel::paper`), and
# the three options that only ever had one value stay gone.
views=$(grep -c 'ForwardingView for' crates/forwarding/src/view.rs || true)
if [ "$views" -ne 2 ] || grep -rqF 'ForwardingView for' crates/workload/src; then
    echo "VIEW VIOLATION: 'ForwardingView for' must occur exactly twice in crates/forwarding/src/view.rs (found $views) and nowhere under crates/workload/src" >&2
    exit 1
fi
if grep -nE 'const PROCS|fn reset_measurement' crates/forwarding/src/view.rs; then
    echo "VIEW VIOLATION: a router states its process count and its reset on RouterLogic; crates/forwarding/src/view.rs may declare neither" >&2
    exit 1
fi
if grep -nF 'N_PROCS' crates/bgp/src/engine.rs \
        | grep -vE 'pub const N_PROCS: usize = |assert!\(R::PROCS <= N_PROCS\)'; then
    echo "PROCS VIOLATION: the engine sizes its tables by R::PROCS; N_PROCS may occur in crates/bgp/src/engine.rs only at its definition and the bound assertion" >&2
    exit 1
fi
for pat in mrai_enabled mrai_withdrawals relaxed_failover_export; do
    if grep -rnF "$pat" crates tests examples; then
        echo "OPTION VIOLATION: '$pat' had one value at every site and was removed; it may not come back" >&2
        exit 1
    fi
done
files=$(grep -rlF 'mrai_base: SimDuration::from_secs(30)' crates || true)
if [ "$(printf '%s' "$files" | grep -c .)" -ne 1 ]; then
    echo "SESSION-MODEL VIOLATION: the paper's MRAI base must be written in exactly one file under crates/, found:" >&2
    printf '%s\n' "${files:-<none>}" >&2
    exit 1
fi
# A what-if costs what it touches: the reachability oracle's frontier is
# length buckets, not a heap (the heap solver lives on only as the test
# reference in tests/properties.rs), and the facade never runs a tracker
# that re-classifies its baseline — every one is seeded from it.
if grep -nF 'BinaryHeap' crates/topology/src/routing.rs; then
    echo "ORACLE VIOLATION: StaticRoutes' phase 3 is length buckets; BinaryHeap may not come back to crates/topology/src/routing.rs" >&2
    exit 1
fi
if grep -rnF 'TransientTracker::new(' crates/workload/src; then
    echo "SEEDING VIOLATION: the sim facade seeds every tracker (TransientTracker::seeded); TransientTracker::new( may not occur under crates/workload/src" >&2
    exit 1
fi
echo "one-view / one-session-model / seeded-observation guard passed"

# --- Guard 7: one adjacency table, one protocol match ------------------------
# `AsGraph` holds each neighbour list once — `customers` / `peers` /
# `providers` are sub-slices of the session table's neighbour column — and
# its tables are made in one function (`Tables::from_links`); `without_links`
# filters the link list and calls it, with no builder and nothing to
# `expect`, because a sub-graph of a validated graph needs no second
# validation. `Protocol` is a closed enum served by exhaustive matches, not
# by a run-time registry. What only its own unit test called stays gone,
# and so does the per-router `selected_route(&self, prefix)` every router
# answered from its speaker (a leak reads `Speaker::selected_route`), the
# `router_mut` that rewrote routers behind the engine's back with STAMP's
# `reset_instability` (a reset is `RouterLogic::reset_measurement`),
# `converge_with` (convergence runs unobserved), and the inline
# `root_cause: Option<CauseInfo>` that padded every route by 16 bytes (a
# route cites its cause as a `CauseId` arena handle).
# Results are fingerprinted by one hash: the FNV-1a offset basis is written
# only in crates/eventsim/src/fxhash.rs, beside the one `Fnv1a`; and seeds
# are mixed by one SplitMix64: its multiplier is written only in
# crates/eventsim/src/rng.rs, beside the one `splitmix64`. The scheduler's
# heap holds 16-byte keys and its events sit in a slab beside it: a payload
# never rides in the heap outside queue.rs's tests, where the `Entry` heap
# is the reference the slab is checked against.
graph=crates/topology/src/graph.rs
if grep -nF 'Vec<Vec<AsId>>' "$graph"; then
    echo "ADJACENCY VIOLATION: $graph must not hold a per-AS Vec of neighbour lists" >&2
    exit 1
fi
if awk '/pub fn without_links/ { on = 1; next } on && /pub fn / { exit } on' "$graph" \
        | grep -nE 'GraphBuilder|expect\('; then
    echo "ADJACENCY VIOLATION: AsGraph::without_links filters and calls Tables::from_links; it may name neither GraphBuilder nor expect(" >&2
    exit 1
fi
queue=crates/eventsim/src/queue.rs
if awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$queue" | grep -nF 'BinaryHeap<Entry'; then
    echo "SCHEDULER VIOLATION: $queue heaps (time, seq) keys beside a slab; an event-carrying Entry heap lives only in its tests, as the reference" >&2
    exit 1
fi
for pat in ProtocolSpec REGISTRY ProtocolEngine rebuild_index tier_depth tier_members \
        sample_random_walk_path escape_via own_failover_next has_active_cause uphill_range \
        is_adversarial extend_with GridHash SimEvent PhaseSettled FibChanged \
        'fn selected_route(&self, prefix: PrefixId)' 'fn router_mut' 'fn reset_instability' \
        'fn converge_with' 'root_cause: Option<CauseInfo>'; do
    if grep -rnF "$pat" crates src tests examples; then
        echo "REMOVED-NAME VIOLATION: '$pat' was deleted and may not come back" >&2
        exit 1
    fi
done
files=$(grep -rliE '0xcbf2_?9ce4_?8422_?2325' crates || true)
if [ "$files" != crates/eventsim/src/fxhash.rs ]; then
    echo "ONE-HASH VIOLATION: the FNV offset basis may occur under crates/ only in crates/eventsim/src/fxhash.rs, found:" >&2
    printf '%s\n' "${files:-<none>}" >&2
    exit 1
fi
files=$(grep -rliE '0xbf58_?476d_?1ce4_?e5b9' crates || true)
if [ "$files" != crates/eventsim/src/rng.rs ]; then
    echo "ONE-MIXER VIOLATION: the SplitMix64 multiplier may occur under crates/ only in crates/eventsim/src/rng.rs, found:" >&2
    printf '%s\n' "${files:-<none>}" >&2
    exit 1
fi
# The one `unsafe` is the counting allocator of the allocation test, which
# is why crates/bench denies `unsafe_code` instead of forbidding it.
files=$(grep -rlE '\bunsafe[[:space:]]+(impl|fn)|\bunsafe[[:space:]]*\{' crates src tests examples || true)
if [ "$files" != crates/bench/tests/allocations.rs ]; then
    echo "UNSAFE VIOLATION: only crates/bench/tests/allocations.rs (its counting allocator) may write unsafe code, found:" >&2
    printf '%s\n' "${files:-<none>}" >&2
    exit 1
fi
echo "one-adjacency-table / one-protocol-match / one-hash / one-mixer / keyed-scheduler / one-unsafe guard passed"

# --- simlint: determinism & hot-path lints -------------------------------
# The in-repo lint engine (crates/simlint): zero findings at Deny severity
# across the simulation crates, or the build stops here. See DESIGN.md §11
# for the rule catalog and the suppression syntax.
# Warn-level findings (index-panic) are a ratchet: the total may fall, never
# rise. Lower the ceiling when it does. A crate that reaches zero is promoted
# to Deny for the rule (`deny_in` in crates/simlint/src/config.rs: eventsim,
# rbgp), so its count cannot creep back.
SIMLINT_WARN_CEILING=192
simlint_out=$(cargo run --release --offline -q -p simlint 2>&1) || {
    printf '%s\n' "$simlint_out" >&2
    exit 1
}
printf '%s\n' "$simlint_out"
warns=$(printf '%s\n' "$simlint_out" | grep -o '[0-9]* warning(s)$' | awk '{print $1}')
if [ "${warns:-999999}" -gt "$SIMLINT_WARN_CEILING" ]; then
    echo "SIMLINT VIOLATION: $warns warn-level findings, ceiling $SIMLINT_WARN_CEILING" >&2
    exit 1
fi
echo "simlint passed (no deny findings; $warns warn-level, ceiling $SIMLINT_WARN_CEILING)"

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
# The eight figures share one binary, and the daemon is one binary; run
# each once so neither can rot built but unrun (~1 s each). What they
# print is pinned by the tests, not here (tests/queryd.rs holds the
# daemon's transcript golden).
cargo run --release --offline -q -p stamp_bench --bin figure -- fig2 --ases 200 --instances 2 --seed 9 >/dev/null
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
echo "tier-1 gate passed (offline, incl. doctests, one figure and one daemon run, release determinism and allocations)"

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
