#!/usr/bin/env sh
# CI gate: formatting, lints, build, tests, and the demo spec staying
# clean under qoslint. Mirrors what reviewers run locally.
#
# Opt-in: MAQS_SANITIZE=1 adds the sanitizer lane (miri over the
# orb::sync wrappers, ThreadSanitizer over the hot-path stress test);
# each tool is skipped with a notice when the toolchain lacks it. The
# conccheck interleaving models always run — they need only stable rust.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check (advisory: seed code predates rustfmt.toml)"
cargo fmt --all -- --check || echo "    (formatting drift, not fatal)"

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> forbid(unsafe_code) (every crate root must carry it)"
for root in crates/*/src/lib.rs; do
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$root"; then
        echo "    $root: missing #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done
echo "    $(ls -d crates/*/src/lib.rs | wc -l | tr -d ' ') crate roots checked"

echo "==> std only (no package may come from a registry)"
cargo metadata --offline --format-version 1 | python3 -c '
import json, sys
external = sorted(p["name"] for p in json.load(sys.stdin)["packages"] if p["source"] is not None)
if external:
    sys.exit("registry dependencies crept back in: " + ", ".join(external))
print("    every package is a workspace path crate")
'

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test --release (orb + netsim: push delivery under optimized timing)"
# Frames are handled on whichever thread holds them; release builds
# change that timing, and release is where races show.
cargo test --release -q -p orb -p netsim

echo "==> metrics golden (per-layer metric names must stay stable)"
cargo test -q -p maqs --test metrics_golden

echo "==> export golden (Prometheus exposition + Chrome trace schema)"
cargo test -q -p maqs --test export_golden

echo "==> introspection (remote metrics/flight/health/bindings over GIOP)"
cargo test -q -p maqs --test introspection

echo "==> cluster telemetry (fleet scrape, histogram merge, SLO burn-rate alerts)"
# The 8-node scenario sleeps real milliseconds on the victim servant; a
# wall-clock bound keeps the lane un-wedgeable if a scrape ever hangs.
timeout 180 cargo test -q -p maqs --test cluster_telemetry

echo "==> chaos (scripted faults vs self-healing client, fixed seed)"
# Reproducible by default; override MAQS_CHAOS_SEED to explore other
# fault interleavings. The test's assertions hold under any seed.
MAQS_CHAOS_SEED="${MAQS_CHAOS_SEED:-7}" \
    cargo test -q -p maqs --test fault_injection chaos_script_heals_binding

echo "==> e11 hot-path smoke (--quick) + scaling gate"
# The committed BENCH_hotpath.json is the full-mode reference for the
# *current* workload (pipelined closed loop); preserve it before the
# quick run overwrites it. BENCH_hotpath.baseline.json stays in-tree as
# the historical seed artifact (serial closed loop, pre-sharding) and is
# not comparable latency-wise: a pipelined window queues ~32 calls, so
# per-call p50 follows Little's law, not the serial round-trip.
BENCH_REF="/tmp/maqs-bench-ref.$$.json"
cp BENCH_hotpath.json "$BENCH_REF"
cargo bench -q -p maqs-bench --bench e11_hotpath -- --quick
python3 - "$BENCH_REF" <<'EOF'
import json, sys

ref = json.load(open(sys.argv[1]))       # committed full-mode artifact
cur = json.load(open("BENCH_hotpath.json"))  # fresh --quick run
if len(cur["cases"]) != 12:
    sys.exit(f"BENCH_hotpath.json: expected 12 cases, got {len(cur['cases'])}")

def case(doc, qos, threads):
    for c in doc["cases"]:
        if c["payload"] == "null" and c["qos"] == qos and c["dispatch_threads"] == threads:
            return c
    sys.exit(f"missing null/qos={qos}/{threads}-thread case")

# 1. Committed artifact: null-call throughput must be monotone in
#    dispatch threads, for plain and QoS paths alike. Deterministic —
#    this fails when someone commits an artifact showing negative
#    scaling, which is the regression this PR exists to prevent.
for qos in (False, True):
    rps = [case(ref, qos, t)["throughput_rps"] for t in (1, 2, 4)]
    if not (rps[0] < rps[1] < rps[2]):
        sys.exit(f"committed artifact: null/qos={qos} rps {rps} not monotone in threads")
print(f"    committed artifact: null-call scaling monotone in {{1,2,4}} threads -- ok")

# 2. Fresh run: 4 dispatch threads must not fall below 1 thread on
#    null calls (5% tolerance: quick runs are short and CI boxes are
#    noisy; a genuine funnel regression shows 20%+).
one, four = case(cur, False, 1)["throughput_rps"], case(cur, False, 4)["throughput_rps"]
if four < one * 0.95:
    sys.exit(f"negative scaling: 4-thread null rps {four:.0f} < 1-thread {one:.0f}")
print(f"    fresh run: null-call 4-thread {four:.0f} rps vs 1-thread {one:.0f} -- ok")

# 3. Fresh p50 within 3x of the committed reference (same workload
#    semantics; generous because CI boxes are noisy, a real regression
#    is 10x).
got, want = case(cur, False, 1)["p50_us"], case(ref, False, 1)["p50_us"]
if got > want * 3:
    sys.exit(f"hot-path regression: null-call p50 {got:.1f}us vs committed {want:.1f}us (>3x)")
print(f"    null-call p50 {got:.1f}us (committed {want:.1f}us) -- ok")
EOF
rm -f "$BENCH_REF"

echo "==> wire-transport conformance (netsim + TCP + UDS, loopback sockets)"
# Real sockets can hang; a wall-clock bound keeps the gate un-wedgeable.
timeout 120 cargo test -q -p orb --test wire_conformance

echo "==> wire chaos (fault matrix + failover + stalled reader, fixed seed)"
# Every scripted socket fault x every backend x both backpressure
# policies, plus the mid-load failover and garbage-frame cases. Seeded
# for reproducibility; the assertions hold under any seed.
MAQS_CHAOS_SEED="${MAQS_CHAOS_SEED:-7}" \
    timeout 180 cargo test -q -p orb --test wire_conformance fault_

echo "==> two-process smoke (tcp_server serves, maqs_top attaches over TCP)"
cargo build -q --release -p maqs --example tcp_server --example maqs_top
SMOKE_IOR="/tmp/maqs-ci-kv.$$.ior"
rm -f "$SMOKE_IOR"
timeout 90 target/release/examples/tcp_server --ior-file "$SMOKE_IOR" --ttl 60 &
SMOKE_SRV=$!
if timeout 60 target/release/examples/maqs_top --attach "@$SMOKE_IOR"; then
    echo "    two-process attach over loopback TCP -- ok"
else
    kill "$SMOKE_SRV" 2>/dev/null || true
    echo "    two-process smoke failed" >&2
    exit 1
fi
kill "$SMOKE_SRV" 2>/dev/null || true
wait "$SMOKE_SRV" 2>/dev/null || true
rm -f "$SMOKE_IOR"

echo "==> conccheck interleaving models (bounded-preemption exhaustive)"
# The checker's own self-tests, then the five ORB models: pending-table
# accounting, ReplySlot armed-guard (plus the seeded mutation that
# proves the model can fail), breaker probe races, flight-ring flush,
# and the sharded dispatch-queue handoff (exactly-once, key-ordered).
cargo test -q -p conccheck
cargo test -q -p orb --features loom-models --test loom_models

if [ "${MAQS_SANITIZE:-0}" = "1" ]; then
    echo "==> sanitizers (MAQS_SANITIZE=1)"
    # Miri: UB check over the lock-discipline wrappers. The rank checks
    # are pure safe Rust, but miri also validates the thread-local
    # held-stack bookkeeping under its aliasing model.
    if rustup component list --installed 2>/dev/null | grep -q '^miri'; then
        echo "    miri: orb::sync unit tests"
        cargo miri test -p orb --lib sync::
    else
        echo "    miri not installed; skipping (rustup component add miri)"
    fi
    # ThreadSanitizer needs -Z flags, i.e. a nightly toolchain.
    if rustup run nightly rustc --version >/dev/null 2>&1; then
        echo "    tsan: hotpath_stress under ThreadSanitizer"
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            rustup run nightly cargo test -p maqs --test hotpath_stress \
            --target "$(rustc -vV | sed -n 's/^host: //p')" -Zbuild-std
    else
        echo "    nightly toolchain unavailable; skipping TSan lane"
    fi
else
    echo "==> sanitizers skipped (set MAQS_SANITIZE=1 to enable)"
fi

echo "==> qoslint (committed specs must be clean, warnings denied)"
# Fixtures under crates/qoslint/tests/fixtures are intentionally broken
# inputs for the lint golden tests; every other committed spec must lint
# clean.
find . -name '*.qidl' -not -path './target/*' -not -path './.git/*' \
    -not -path './crates/qoslint/tests/fixtures/*' |
while read -r spec; do
    echo "    $spec"
    cargo run -q -p qoslint --release -- --deny-warnings "$spec"
done

echo "==> OK"
