#!/usr/bin/env bash
# Offline CI gate: tier-1 (release build + workspace tests) plus the
# worker-count determinism suite, all under -D warnings so dead code and
# unused paths cannot land. Needs no network — the workspace has no
# external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# `ci.sh bench` regenerates the exploration throughput benchmark.  The
# binary asserts its own acceptance bar (steady-state driver
# resumed_fraction >= 0.7 and warm cache-on strictly beating cache-off
# wall-clock per model; bit-identical results throughout), so a passing
# run is also a gate.
if [[ "${1:-}" == "bench" ]]; then
    echo "== bench: exploration throughput =="
    cargo build --release -p astra-bench --bin explore_speed
    ./target/release/explore_speed > BENCH_explore_speed.json
    cat BENCH_explore_speed.json
    exit 0
fi

echo "== build (release) =="
cargo build --release

echo "== tier-1 tests (every workspace crate) =="
cargo test -q --workspace

echo "== benchmark self-test (perfbench output check) =="
# The repository benchmark builds against the crates by path; its
# self-test runs every workload on a tiny model and checks that outputs
# repeat and that a corrupted plan fails the output check, so an optimizer
# change that breaks the benchmark fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== determinism (workers=1 vs N bit-identity) =="
cargo test -q --test determinism

echo "== robustness (fault-injected convergence, release) =="
cargo test -q --release --test robustness

echo "== distributed tier (multi-device placement search, release) =="
# Sweep-optimality of the chosen placement per topology (heterogeneous
# included), 5% convergence under faults, and bit-identical reports at
# any worker count.
cargo test -q --release --test distrib_search

echo "== no ignored tests =="
# An #[ignore] attribute silently shrinks the gate; fail loudly instead.
if grep -rn '#\[ignore' tests crates --include='*.rs'; then
    echo "ci: FAIL — #[ignore]d tests found (listed above); fix or delete them" >&2
    exit 1
fi

echo "== static schedule verification (fixtures + enumerated plans) =="
# Every rendered golden fixture must pass the event-liveness audit, and
# every enumerated plan of every zoo model must verify hazard-free (the
# CLI exits nonzero on any error-severity finding).
cargo build --release -p astra-cli
# A mistyped flag must fail loudly, not silently run the defaults.
if ./target/release/astra-cli optimize --model scrnn --batch 4 --bogus-flag 3 >/dev/null 2>&1; then
    echo "ci: FAIL — astra-cli accepted an unknown flag" >&2
    exit 1
fi
./target/release/astra-cli verify --fixtures tests/golden
for m in scrnn milstm sublstm stackedlstm gnmt rhn; do
    ./target/release/astra-cli verify --model "$m" --batch 8 --streams 4
done
# Multi-device plans: every candidate placement on homogeneous and
# heterogeneous nodes must pass the cross-device rules (transfer
# ordering, all-reduce deadlock, replica coherence).
for devs in 2 4 p100,v100; do
    ./target/release/astra-cli verify --model sublstm --batch 8 --devices "$devs"
done

echo "== predictor gate (>= 30% trials saved, best plan unchanged) =="
# The learned cost model must prune at least 30% of the lookahead trials
# on the gate workload while the surviving search still selects a plan
# whose steady state is bit-identical to the unpruned baseline's — and
# `--predictor off` must reproduce the pre-predictor driver exactly
# (zero counters).
gate_args=(optimize --model milstm --batch 16 --dims all --top-k 1 --json)
on_json=$(./target/release/astra-cli "${gate_args[@]}")
off_json=$(./target/release/astra-cli "${gate_args[@]}" --predictor off)
field() { printf '%s' "$1" | grep -o "\"$2\":[0-9.e+-]*" | head -1 | cut -d: -f2; }
steady_on=$(field "$on_json" steady_ns); steady_off=$(field "$off_json" steady_ns)
pruned=$(field "$on_json" trials_pruned); simulated=$(field "$on_json" configs_explored)
total=$(field "$off_json" configs_explored); mae=$(field "$on_json" predicted_vs_measured_mae_ns)
if [[ "$steady_on" != "$steady_off" ]]; then
    echo "ci: FAIL — pruned search changed the plan (steady $steady_on vs $steady_off)" >&2
    exit 1
fi
if (( simulated + pruned != total )); then
    echo "ci: FAIL — simulated ($simulated) + pruned ($pruned) != unpruned trials ($total)" >&2
    exit 1
fi
if (( pruned * 100 < total * 30 )); then
    echo "ci: FAIL — predictor saved only $pruned of $total trials (< 30%)" >&2
    exit 1
fi
if [[ "$(field "$off_json" trials_pruned)" != 0 || "$(field "$off_json" predictor_updates)" != 0 ]]; then
    echo "ci: FAIL — predictor off must report zero counters" >&2
    exit 1
fi
echo "predictor gate: $pruned of $total trials pruned ($((pruned * 100 / total))%), MAE ${mae}ns, plan unchanged"

echo "== lint gate (zoo clean, capacity rejection, clean default run) =="
# Every enumerated plan of every zoo model must lint with zero errors,
# and so must the rendered golden fixtures (including the multi-device
# ones, which size the lint topology from their device map).
./target/release/astra-cli lint --fixtures tests/golden
for m in scrnn milstm sublstm stackedlstm gnmt rhn; do
    ./target/release/astra-cli lint --model "$m" --batch 8 --streams 4
done
# A deliberately undersized device must fail every plan with
# lint-mem-capacity and a nonzero exit.
if cap_out=$(./target/release/astra-cli lint --model milstm --batch 16 --mem-mib 64 2>&1); then
    echo "ci: FAIL — 64 MiB device passed lint (expected capacity rejection)" >&2
    exit 1
elif ! grep -q "lint-mem-capacity" <<< "$cap_out"; then
    echo "ci: FAIL — capacity rejection did not cite lint-mem-capacity:" >&2
    printf '%s\n' "$cap_out" >&2
    exit 1
fi
# A default optimize run on a zoo model must reject no candidate plan.
lint_json=$(./target/release/astra-cli optimize --model milstm --batch 16 --dims fk --json)
if [[ "$(field "$lint_json" lint_rejects)" != 0 ]]; then
    echo "ci: FAIL — a clean default run must report zero lint rejects" >&2
    exit 1
fi
echo "lint gate: zoo clean, capacity rejected, clean default run rejects nothing"

echo "== durability gate (crash-resume bit-identity, corruption quarantine) =="
# A run interrupted at an arbitrary byte of its store writes must resume
# from the surviving files to the bit-identical plan, and a flipped
# journal byte must be caught by fsck and quarantined by recovery without
# the optimizer losing the plan or the unaffected keys.
bool_field() { printf '%s' "$1" | grep -o "\"$2\":\(true\|false\)" | head -1 | cut -d: -f2; }
plan_field() { printf '%s' "$1" | grep -o '"best_plan":"[^"]*"' | head -1; }
st_args=(optimize --model scrnn --batch 8 --dims fk --json)
st_dir=$(mktemp -d) && cr_dir=$(mktemp -d)
ref_json=$(./target/release/astra-cli "${st_args[@]}")
cold_json=$(./target/release/astra-cli "${st_args[@]}" --store "$st_dir")
if [[ "$(field "$cold_json" steady_ns)" != "$(field "$ref_json" steady_ns)" \
   || "$(plan_field "$cold_json")" != "$(plan_field "$ref_json")" ]]; then
    echo "ci: FAIL — storing warm state changed the plan" >&2
    exit 1
fi
# Crash the store mid-run (the optimize itself must still succeed), then
# resume against whatever survived. The crash must really fire: the cold
# journal is longer than the budget and the crashed one stops exactly at
# it — otherwise the resume below would check nothing.
crash_after=4096
ASTRA_STORE_CRASH_AFTER=$crash_after ./target/release/astra-cli "${st_args[@]}" --store "$cr_dir" >/dev/null
cold_len=$(wc -c < "$st_dir/journal.astra") && cr_len=$(wc -c < "$cr_dir/journal.astra")
if (( cold_len <= crash_after || cr_len != crash_after )); then
    echo "ci: FAIL — crash hook did not fire (cold journal $cold_len B, crashed $cr_len B, budget $crash_after B)" >&2
    exit 1
fi
resumed_json=$(./target/release/astra-cli "${st_args[@]}" --store "$cr_dir")
if [[ "$(bool_field "$resumed_json" warm_start)" != "true" ]]; then
    echo "ci: FAIL — resumed run did not warm-start from the crashed store" >&2
    exit 1
fi
if [[ "$(field "$resumed_json" steady_ns)" != "$(field "$ref_json" steady_ns)" \
   || "$(plan_field "$resumed_json")" != "$(plan_field "$ref_json")" ]]; then
    echo "ci: FAIL — crash-resume changed the plan" >&2
    exit 1
fi
# Flip one journal byte: fsck must flag it (nonzero exit), optimize must
# quarantine it, keep the unaffected keys, and land on the same plan.
journal="$st_dir/journal.astra"
jlen=$(wc -c < "$journal") && joff=$((jlen / 2))
jbyte=$(od -An -tu1 -j "$joff" -N1 "$journal" | tr -d ' ')
printf "\\$(printf '%03o' $(( (jbyte + 1) % 256 )))" \
    | dd of="$journal" bs=1 seek="$joff" count=1 conv=notrunc status=none
if ./target/release/astra-cli store fsck --dir "$st_dir" >/dev/null 2>&1; then
    echo "ci: FAIL — fsck passed a store with a flipped journal byte" >&2
    exit 1
fi
flip_json=$(./target/release/astra-cli "${st_args[@]}" --store "$st_dir")
if [[ "$(field "$flip_json" store_corrupt_records)" == 0 \
   || "$(field "$flip_json" store_loaded_keys)" == 0 \
   || "$(field "$flip_json" steady_ns)" != "$(field "$ref_json" steady_ns)" ]]; then
    echo "ci: FAIL — corrupt journal byte not quarantined cleanly" >&2
    exit 1
fi
./target/release/astra-cli store fsck --dir "$st_dir" >/dev/null   # clean after recovery
# The store keeps only what a rerun replays (memos, verdicts, quarantine
# marks): a warm rerun appends nothing, and its store holds no
# profile_stats, profile_sample or predictor records. Capture first so a
# failing `store stats` aborts the gate instead of reading as "no match".
rerun_json=$(./target/release/astra-cli "${st_args[@]}" --store "$cr_dir")
st_out=$(./target/release/astra-cli store stats --dir "$cr_dir")
if [[ "$(field "$rerun_json" store_journal_appends)" != 0 ]] \
   || ! grep -q memo <<<"$st_out" \
   || grep -Eq 'profile_stats|profile_sample|predictor' <<<"$st_out"; then
    echo "ci: FAIL — a warm rerun journaled records or its store holds retired kinds:" >&2
    echo "$st_out" >&2
    exit 1
fi
# Maintenance commands work and a compacted store still resumes identically.
./target/release/astra-cli store stats --dir "$st_dir" >/dev/null
./target/release/astra-cli store compact --dir "$st_dir" >/dev/null
post_json=$(./target/release/astra-cli "${st_args[@]}" --store "$st_dir")
if [[ "$(bool_field "$post_json" warm_start)" != "true" \
   || "$(field "$post_json" steady_ns)" != "$(field "$ref_json" steady_ns)" \
   || "$(plan_field "$post_json")" != "$(plan_field "$ref_json")" ]]; then
    echo "ci: FAIL — compacted store does not resume to the same plan" >&2
    exit 1
fi
# With no store configured every store field must be zero/false.
if [[ "$(bool_field "$ref_json" warm_start)" != "false" \
   || "$(field "$ref_json" store_journal_appends)" != 0 ]]; then
    echo "ci: FAIL — store counters must be zero/false without --store" >&2
    exit 1
fi
# Quarantine marks name the trial that earned them: a faulted warm rerun
# poisons exactly the trials its cold run quarantined, so the cold and
# warm store runs land on the storeless plan, and the warm one skips
# their retries.
fq_args=(optimize --model scrnn --batch 8 --dims fks --fault chaos --fault-seed 1 --json)
fq_dir=$(mktemp -d)
fq_ref=$(./target/release/astra-cli "${fq_args[@]}")
fq_cold=$(./target/release/astra-cli "${fq_args[@]}" --store "$fq_dir")
fq_warm=$(./target/release/astra-cli "${fq_args[@]}" --store "$fq_dir")
for fq_json in "$fq_cold" "$fq_warm"; do
    if [[ "$(field "$fq_json" steady_ns)" != "$(field "$fq_ref" steady_ns)" \
       || "$(plan_field "$fq_json")" != "$(plan_field "$fq_ref")" ]]; then
        echo "ci: FAIL — a faulted store run changed the plan" \
             "(steady $(field "$fq_json" steady_ns) vs $(field "$fq_ref" steady_ns))" >&2
        exit 1
    fi
done
if [[ "$(bool_field "$fq_warm" warm_start)" != "true" ]] \
   || (( $(field "$fq_warm" retries) >= $(field "$fq_cold" retries) )); then
    echo "ci: FAIL — a faulted warm rerun did not skip retries through its marks" >&2
    exit 1
fi
rm -rf "$st_dir" "$cr_dir" "$fq_dir"
echo "durability gate: crash-resume, corruption quarantine and faulted warm reruns hold, plans bit-identical"

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== full workspace check (all targets) =="
cargo check --workspace --all-targets

echo "== clippy (all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: OK"
