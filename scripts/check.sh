#!/usr/bin/env bash
# Workspace CI gate: build, test, clippy, and the static persistency lint.
#
# The lint step runs twice: once over examples/ (must be clean) and once —
# inverted — over the known-buggy lint demo, proving the `--deny warnings`
# gate actually fires.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> differential engine gate (the VM and the reference interpreter agree on every run; exploration's memos agree with booting every distinct crash image)"
cargo test -q --release -p system-tests --test tier_differential --test explore_read_path_memo
# The engine's, the machine's and the explorer's own tests in release too:
# the benchmark runs release builds, where integer overflow wraps instead
# of panicking, and the explore pool's jobs and cancellation tests race
# real threads at release speed.
cargo test -q --release -p pmvm -p pmem-sim -p pmexplore

echo "==> checker gate (golden report fingerprints; the indexed checker matches a naive reference, streaming matches batch; trace bytes match the fixture)"
cargo test -q --release -p system-tests --test checker_golden --test crosscrate_trace_roundtrip
cargo test -q --release -p pmcheck --test proptest_reference

echo "==> perfbench build + self-tests (its own workspace: --workspace never compiles it)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (lib targets) -- -D clippy::unwrap_used on the input paths"
# The trace-ingest, checker, repair-engine, PM-simulator and explorer
# crates, the metrics and journal readers, the VM (crash images), the
# front ends (.pmc source, .ir files) and the daemon (network frames,
# journals) must never unwrap on their production paths: corrupted inputs
# are routed into the error taxonomy.
cargo clippy -p pmtrace -p pmcheck -p hippocrates -p pmem-sim -p pmexplore -p pmobs -p pmtx \
    -p pmvm -p pmlang -p pmir -p hippod --no-deps -- -D clippy::unwrap_used

echo "==> hippoctl lint --deny warnings examples/"
target/release/hippoctl lint --deny warnings examples/

echo "==> hippoctl lint --deny warnings crates/pmapps/pmc/lint_demo.pmc (must fail)"
if target/release/hippoctl lint --deny warnings crates/pmapps/pmc/lint_demo.pmc; then
    echo "check.sh: lint gate did NOT fire on the known-buggy demo" >&2
    exit 1
fi
echo "lint gate fires on the known-buggy demo, as expected"

echo "==> hippoctl lint --deny redundant crates/pmapps/pmc/redundant_demo.pmc (must fail)"
if target/release/hippoctl lint --deny redundant crates/pmapps/pmc/redundant_demo.pmc; then
    echo "check.sh: redundancy gate did NOT fire on the over-persisted demo" >&2
    exit 1
fi
echo "redundancy gate fires on the over-persisted demo, as expected"

echo "==> hippoctl lint --deny warnings crates/pmapps/pmc/recursion_demo.pmc (recursive summaries converge)"
target/release/hippoctl lint --deny warnings crates/pmapps/pmc/recursion_demo.pmc

echo "==> hippoctl explore examples/ordering_demo.pmc (must find the reordering)"
if target/release/hippoctl explore examples/ordering_demo.pmc --budget 64 --seed 0; then
    echo "check.sh: exploration did NOT find the known reordering bug" >&2
    exit 1
fi
echo "exploration finds the unfenced-flush reordering, as expected"

echo "==> hippoctl fix --bug-source exploration + re-explore (must be clean)"
healed="$(mktemp -d)/healed.ir"
target/release/hippoctl fix examples/ordering_demo.pmc --bug-source exploration \
    --budget 64 --seed 0 -o "$healed"
target/release/hippoctl explore "$healed" --budget 64 --seed 0

echo "==> hippoctl optimize on the healed module + re-explore (still clean)"
optimized="$(dirname "$healed")/healed_opt.ir"
target/release/hippoctl optimize "$healed" --budget 64 --seed 0 -o "$optimized"
target/release/hippoctl explore "$optimized" --budget 64 --seed 0
rm -rf "$(dirname "$healed")"

echo "==> hippoctl faultcampaign --seeds 18 (every fault archetype survived, incl. net.* and shard.*)"
target/release/hippoctl faultcampaign --seeds 18

echo "==> kill-and-resume gate (crash after first commit, resume, byte-identical)"
txdir="$(mktemp -d)"
cat > "$txdir/buggy.pmc" <<'EOF'
fn main() {
    var p: ptr = pmem_map(0, 4096);
    store8(p, 0, 1);
    crashpoint();
    store8(p, 8, 2);
}
EOF
target/release/hippoctl fix "$txdir/buggy.pmc" \
    --journal "$txdir/ref.journal" -o "$txdir/ref.ir"
if target/release/hippoctl fix "$txdir/buggy.pmc" \
    --journal "$txdir/kr.journal" --crash-after-commit 1 -o "$txdir/never.ir"; then
    echo "check.sh: --crash-after-commit did NOT kill the run" >&2
    exit 1
fi
target/release/hippoctl fix "$txdir/buggy.pmc" \
    --journal "$txdir/kr.journal" --resume -o "$txdir/resumed.ir" 2> "$txdir/resume.log"
grep -q "resumed from journal" "$txdir/resume.log"
cmp "$txdir/ref.ir" "$txdir/resumed.ir"
echo "killed run resumed to the byte-identical module, as expected"

echo "==> corrupted-journal gate (resume must refuse, inverted self-test)"
# Flip a byte in the journal header: interior corruption, never a torn tail.
printf 'X' | dd of="$txdir/kr.journal" bs=1 seek=10 conv=notrunc status=none
if target/release/hippoctl fix "$txdir/buggy.pmc" \
    --journal "$txdir/kr.journal" --resume -o "$txdir/bad.ir" 2> "$txdir/corrupt.log"; then
    echo "check.sh: resume did NOT refuse the corrupted journal" >&2
    exit 1
fi
grep -q "refusing to resume" "$txdir/corrupt.log"
echo "corrupted journal refused with a clear diagnostic, as expected"
rm -rf "$txdir"

echo "==> repair-as-a-service gate (serve, submit, poll, drain, resume after kill -9)"
ddir="$(mktemp -d)"
dsock="$ddir/hippod.sock"
djournal="$ddir/jobs.journal"
target/release/hippoctl serve --socket "$dsock" --journal "$djournal" --workers 2 \
    > "$ddir/serve.log" 2>&1 &
dpid=$!
for _ in $(seq 1 100); do
    if target/release/hippoctl health --socket "$dsock" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
target/release/hippoctl health --socket "$dsock" | grep -q '"ok":true'
# A fix campaign over the socket, then its healed artifact back through the
# daemon as explore and lint jobs (the .ir round-trips the wire).
target/release/hippoctl submit --socket "$dsock" examples/ordering_demo.pmc \
    --kind fix --bug-source exploration --budget 64 --seed 0 --wait -o "$ddir/healed.ir"
target/release/hippoctl submit --socket "$dsock" "$ddir/healed.ir" \
    --kind explore --budget 64 --seed 0 --wait
lint_id="$(target/release/hippoctl submit --socket "$dsock" "$ddir/healed.ir" --kind lint)"
for _ in $(seq 1 100); do
    line="$(target/release/hippoctl status --socket "$dsock" "$lint_id")"
    case "$line" in
        *failed*) echo "check.sh: daemon lint job failed: $line" >&2; exit 1 ;;
        *done*) break ;;
    esac
    sleep 0.1
done
case "$line" in *done*) ;; *) echo "check.sh: daemon lint job never settled" >&2; exit 1 ;; esac
# Graceful shutdown drains and removes the socket.
target/release/hippoctl shutdown --socket "$dsock"
wait "$dpid"
test ! -e "$dsock"
echo "daemon served fix/explore/lint jobs and drained cleanly, as expected"

echo "==> repair-as-a-service gate (kill -9 mid-campaign, restart resumes)"
cat > "$ddir/crashy.pmc" <<'EOF'
fn main() {
    var p: ptr = pmem_map(1, 4096);
    store8(p, 0, 1);
    store8(p, 64, 2);
    print(load8(p, 0));
}
EOF
target/release/hippoctl serve --socket "$dsock" --journal "$djournal" --workers 2 \
    > "$ddir/serve2.log" 2>&1 &
dpid=$!
for _ in $(seq 1 100); do
    if target/release/hippoctl health --socket "$dsock" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
job_id="$(target/release/hippoctl submit --socket "$dsock" "$ddir/crashy.pmc" --kind fix)"
kill -9 "$dpid"
wait "$dpid" 2>/dev/null || true
# Restart on the same journal: the stale socket and dead holder's lock must
# not get in the way, and the acknowledged job must reach `done`.
target/release/hippoctl serve --socket "$dsock" --journal "$djournal" --workers 2 \
    > "$ddir/serve3.log" 2>&1 &
dpid=$!
for _ in $(seq 1 100); do
    if target/release/hippoctl health --socket "$dsock" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
for _ in $(seq 1 200); do
    line="$(target/release/hippoctl status --socket "$dsock" "$job_id")"
    case "$line" in
        *failed*) echo "check.sh: resumed job failed: $line" >&2; exit 1 ;;
        *done*) break ;;
    esac
    sleep 0.1
done
case "$line" in *done*) ;; *) echo "check.sh: job never settled after resume" >&2; exit 1 ;; esac
target/release/hippoctl shutdown --socket "$dsock"
wait "$dpid"
rm -rf "$ddir"
echo "killed daemon restarted on its journal and finished the campaign, as expected"

echo "==> hot-standby failover gate (TCP campaign, kill -9 primary, standby finishes byte-identical)"
fdir="$(mktemp -d)"
fjournal="$fdir/jobs.journal"
pport=$((20000 + RANDOM % 20000))
sport=$((pport + 1))
# The do-no-harm reference: the same fix standalone.
target/release/hippoctl fix examples/ordering_demo.pmc --bug-source exploration \
    --budget 64 --seed 0 -o "$fdir/ref.ir"
target/release/hippoctl serve --listen "127.0.0.1:$pport" --journal "$fjournal" --workers 2 \
    > "$fdir/primary.log" 2>&1 &
ppid=$!
target/release/hippoctl serve --listen "127.0.0.1:$sport" --journal "$fjournal" --standby --workers 2 \
    > "$fdir/standby.log" 2>&1 &
spid=$!
for _ in $(seq 1 100); do
    if target/release/hippoctl health --connect "127.0.0.1:$pport" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
target/release/hippoctl health --connect "127.0.0.1:$pport" | grep -q '"standby":false'
target/release/hippoctl health --connect "127.0.0.1:$sport" | grep -q '"standby":true'
job_id="$(target/release/hippoctl submit --connect "127.0.0.1:$pport" examples/ordering_demo.pmc \
    --kind fix --bug-source exploration --budget 64 --seed 0)"
kill -9 "$ppid"
wait "$ppid" 2>/dev/null || true
# The standby wins the journal flock, replays, and re-queues the campaign.
took_over=0
for _ in $(seq 1 100); do
    if target/release/hippoctl health --connect "127.0.0.1:$sport" 2>/dev/null \
        | grep -q '"standby":false'; then took_over=1; break; fi
    sleep 0.1
done
test "$took_over" = 1 || { echo "check.sh: standby never took over" >&2; exit 1; }
for _ in $(seq 1 200); do
    line="$(target/release/hippoctl status --connect "127.0.0.1:$sport" "$job_id")"
    case "$line" in
        *failed*) echo "check.sh: failover job failed: $line" >&2; exit 1 ;;
        *done*) break ;;
    esac
    sleep 0.1
done
case "$line" in *done*) ;; *) echo "check.sh: job never settled after failover" >&2; exit 1 ;; esac
# The journaled artifact is served warm — and byte-identical to standalone.
target/release/hippoctl submit --connect "127.0.0.1:$sport" examples/ordering_demo.pmc \
    --kind fix --bug-source exploration --budget 64 --seed 0 --wait -o "$fdir/standby.ir"
cmp "$fdir/ref.ir" "$fdir/standby.ir"
target/release/hippoctl shutdown --connect "127.0.0.1:$sport"
wait "$spid"
echo "standby took over the killed primary and served the byte-identical artifact, as expected"

echo "==> kill-worker-mid-campaign gate (shard chaos seed 14, heals byte-identical)"
wdir="$(mktemp -d)"
cat > "$wdir/campaign.pmc" <<'EOF'
fn main() {
    var p: ptr = pmem_map(9, 4096);
    store8(p, 0, 1);
    clwb(p);
    sfence();
    store8(p, 64, 2);
    clwb(p + 64);
    sfence();
    store8(p, 128, 3);
    print(load8(p, 0) + load8(p, 64) + load8(p, 128));
}
EOF
wsock="$wdir/hippod.sock"
# The do-no-harm reference: the same 4-shard campaign, no faults.
target/release/hippoctl serve --socket "$wsock" --journal "$wdir/ref.journal" --workers 3 \
    > "$wdir/ref.log" 2>&1 &
wpid=$!
for _ in $(seq 1 100); do
    if target/release/hippoctl health --socket "$wsock" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
target/release/hippoctl submit --socket "$wsock" "$wdir/campaign.pmc" \
    --kind explore --shards 4 --wait -o "$wdir/ref.out"
target/release/hippoctl shutdown --socket "$wsock"
wait "$wpid"
# Chaos run: archetype 14 kills two shard workers mid-lease; the reaper
# must reclaim, re-run, and merge the exact reference bytes.
target/release/hippoctl serve --socket "$wsock" --journal "$wdir/chaos.journal" --workers 3 \
    --fault-shard 14 --lease-ttl-ms 100 > "$wdir/chaos.log" 2>&1 &
wpid=$!
for _ in $(seq 1 100); do
    if target/release/hippoctl health --socket "$wsock" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
target/release/hippoctl submit --socket "$wsock" "$wdir/campaign.pmc" \
    --kind explore --shards 4 --wait -o "$wdir/chaos.out"
target/release/hippoctl shutdown --socket "$wsock"
wait "$wpid"
cmp "$wdir/ref.out" "$wdir/chaos.out"
# The degradation trail is on the record, not just implied.
grep -q "LeaseReclaimed" "$wdir/chaos.journal"
rm -rf "$wdir"
echo "killed shard workers were reaped and the campaign healed byte-identically, as expected"

echo "==> triple-standby election gate (kill -9 two primaries in a row, epochs stay monotonic)"
edir="$(mktemp -d)"
ejournal="$edir/jobs.journal"
cat > "$edir/app.pmc" <<'EOF'
fn main() {
    var p: ptr = pmem_map(3, 4096);
    store8(p, 0, 5);
    print(load8(p, 0));
}
EOF
esocks=()
epids=()
for i in 0 1 2 3; do
    eflags=""
    if [ "$i" != 0 ]; then eflags="--standby"; fi
    # shellcheck disable=SC2086
    target/release/hippoctl serve --socket "$edir/d$i.sock" --journal "$ejournal" \
        --workers 2 $eflags > "$edir/d$i.log" 2>&1 &
    epids+=($!)
    esocks+=("$edir/d$i.sock")
done
find_primary() {
    for _ in $(seq 1 150); do
        for idx in "${!esocks[@]}"; do
            if [ -n "${epids[$idx]}" ] && target/release/hippoctl health --socket "${esocks[$idx]}" 2>/dev/null \
                | grep -q '"standby":false'; then
                echo "$idx"
                return 0
            fi
        done
        sleep 0.1
    done
    return 1
}
for round in 1 2; do
    leader="$(find_primary)" || { echo "check.sh: no primary emerged (round $round)" >&2; exit 1; }
    target/release/hippoctl health --socket "${esocks[$leader]}" | grep -q "\"epoch\":$round"
    target/release/hippoctl submit --socket "${esocks[$leader]}" "$edir/app.pmc" \
        --kind fix --wait >/dev/null
    kill -9 "${epids[$leader]}"
    wait "${epids[$leader]}" 2>/dev/null || true
    epids[$leader]=""
done
leader="$(find_primary)" || { echo "check.sh: no successor emerged after two kills" >&2; exit 1; }
target/release/hippoctl health --socket "${esocks[$leader]}" | grep -q '"epoch":3'
target/release/hippoctl submit --socket "${esocks[$leader]}" "$edir/app.pmc" \
    --kind fix --wait >/dev/null
for idx in "${!epids[@]}"; do
    if [ -n "${epids[$idx]}" ]; then
        target/release/hippoctl shutdown --socket "${esocks[$idx]}"
        wait "${epids[$idx]}"
    fi
done
rm -rf "$edir"
echo "three standbys elected successors across two murders with monotonic epochs, as expected"

echo "==> slow-client gate (a stalled mid-frame peer never blocks the daemon)"
lport=$((sport + 1))
target/release/hippoctl serve --listen "127.0.0.1:$lport" --workers 2 \
    > "$fdir/slow.log" 2>&1 &
lpid=$!
for _ in $(seq 1 100); do
    if target/release/hippoctl health --connect "127.0.0.1:$lport" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
# A hostile peer: declares a 256-byte frame, sends 8 bytes of it, stalls.
exec 3<>"/dev/tcp/127.0.0.1/$lport"
printf '\x00\x00\x01\x00abcd' >&3
# While that connection dangles mid-frame, the daemon still answers.
target/release/hippoctl health --connect "127.0.0.1:$lport" | grep -q '"ok":true'
target/release/hippoctl ping --connect "127.0.0.1:$lport" | grep -q pong
exec 3>&-
target/release/hippoctl shutdown --connect "127.0.0.1:$lport"
wait "$lpid"
rm -rf "$fdir"
echo "stalled mid-frame peer left the daemon fully responsive, as expected"

echo "==> explore_bench smoke (writes BENCH_explore.json)"
target/release/explore_bench
test -s BENCH_explore.json

echo "==> fault_bench smoke (writes BENCH_fault.json)"
target/release/fault_bench
test -s BENCH_fault.json

echo "==> tx_bench smoke (writes BENCH_tx.json)"
target/release/tx_bench
test -s BENCH_tx.json

echo "==> opt_bench smoke (writes BENCH_opt.json)"
target/release/opt_bench
test -s BENCH_opt.json

echo "==> serve_bench smoke (writes BENCH_serve.json)"
target/release/serve_bench
test -s BENCH_serve.json

echo "==> bench-regression gate (+ inverted self-test)"
scripts/bench_gate.sh

echo "check.sh: all checks passed"
