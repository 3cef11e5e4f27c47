#!/usr/bin/env bash
# Full verification gate: release build, the whole test suite, clippy
# with warnings promoted to errors, rustfmt, and a parallel smoke pass that
# regenerates every paper artefact through the run matrix. Run from
# the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
# The benchmark package lives outside the workspace but imports its
# public API; building it here catches a removed item it still uses.
# --locked also fails on any change that would rewrite its lockfile.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test -q --workspace
# Clippy enforces the source rules (clippy.toml and each crate root's
# `#![warn(...)]` lines): no unwrap/expect/panic/unimplemented/todo/
# exit in library code, no narrowing casts in plp-core and plp-bmt, no
# `_ =>` arm over an enum in plp-core (so every library UpdateScheme
# match names each scheme), no wall-clock reads, and no Child::kill outside the
# crash harness and the process-isolation module. Exceptions are
# reasoned `#[expect(clippy::…)]`s; one that suppresses nothing fails
# here as unfulfilled_lint_expectations. tests/clippy_config.rs pins
# the crate-root lines and clippy.toml. The persist-path contracts are
# the compiler's: see DESIGN.md §7c.
cargo clippy --workspace --all-targets -- -D warnings
# Formatting: the workspace must be rustfmt-clean, so no change has to
# carry unrelated reformatting. perfbench/ is its own workspace and is
# not checked here.
cargo fmt --all -- --check

# Smoke: every experiment spec end-to-end at reduced instruction count,
# uncached so it always exercises the simulator, parallel so it also
# exercises the worker pool. Byte-determinism of the output against a
# serial run is covered by crates/bench/tests/determinism.rs.
clean_out=$(mktemp)
cargo run --release -q -p plp-bench --bin all -- 10000 7 --no-cache > "$clean_out"

# Chaos smoke gate: the same sweep under a deterministic fault plan
# (worker panics, stalls, cache truncation/bit-flips/IO errors, seeded
# by 0xC0FFEE) must exit 0 — every fault recovered — with stdout
# byte-identical to the clean run. Running from a throwaway directory
# keeps planted cache corruption away from the real results/cache.
# Injected stalls last twice the watchdog plus 50 ms, so a 300 ms
# watchdog keeps them short; the fault plan and its verdicts do not
# depend on it.
chaos_out=$(mktemp)
chaos_dir=$(mktemp -d)
repo_root=$(pwd)
(cd "$chaos_dir" && "$repo_root/target/release/all" 10000 7 --chaos 0xC0FFEE --watchdog-ms 300 2> chaos.err > "$chaos_out") || {
  echo "verify: chaos sweep failed (exit $?)"; cat "$chaos_dir/chaos.err" >&2; exit 1
}
cmp "$clean_out" "$chaos_out" || {
  echo "verify: chaos sweep stdout diverged from the clean run"; exit 1
}
rm -rf "$clean_out" "$chaos_out" "$chaos_dir"

# Crash-harness gate: a reduced real-process SIGKILL sweep (two
# failpoints, one hit, all seven swept schemes — the five correct
# ones plus the unordered strawman and the detect-only triad_nvm).
# Children are forked,
# killed mid-persist, and their file-backed device images replayed;
# the binary exits non-zero unless every correct engine recovers
# Clean/Repaired with model-matching counters and the unordered
# strawman demonstrably (but detectably) loses data. Also GCs stale
# crash images and quarantined cache entries. See DESIGN.md §11.
./target/release/crash_harness 8000 7 --points mid-tuple,post-root-seal --hits 5 > /dev/null || {
  echo "verify: crash-harness SIGKILL sweep failed"; exit 1
}

# Nested-crash (double-kill) gate: kill a run, kill its recovery at
# every recovery failpoint, and require a third process to recover
# completely — correct schemes counter-exact, the unordered strawman
# re-detecting exactly its original loss, every recovery failpoint
# verifiably fired, and the complete-id set monotone across the
# nesting. See DESIGN.md §14.
./target/release/crash_harness 8000 7 --double-kill --points mid-tuple > /dev/null || {
  echo "verify: double-kill nested-crash sweep failed"; exit 1
}

# Process-isolation gate: a reduced sweep where every run re-execs as
# its own rlimited child returning its report over a checksummed pipe
# frame must be stdout byte-identical to the in-process run. See
# DESIGN.md §14; chaos parity and the OOM verdict are covered by
# crates/bench/tests/isolation.rs.
iso_out=$(mktemp)
iso_ref=$(mktemp)
cargo run --release -q -p plp-bench --bin all -- 6000 7 --no-cache > "$iso_ref"
cargo run --release -q -p plp-bench --bin all -- 6000 7 --no-cache --isolate > "$iso_out" || {
  echo "verify: isolated sweep failed (exit $?)"; exit 1
}
cmp "$iso_ref" "$iso_out" || {
  echo "verify: isolated sweep stdout diverged from the in-process run"; exit 1
}
rm -f "$iso_out" "$iso_ref"

# No-kill identity: attaching the file-backed medium must not perturb
# the simulation — a child run with an image is stdout byte-identical
# to the same run purely in memory.
id_img="$(mktemp -u).img"
id_a=$(./target/release/crash_harness --child --scheme sp --benchmark gcc --instructions 4000 --seed 7)
id_b=$(./target/release/crash_harness --child --scheme sp --benchmark gcc --instructions 4000 --seed 7 --image "$id_img")
rm -f "$id_img"
[ "$id_a" = "$id_b" ] || {
  echo "verify: file-backed child stdout diverged from the in-memory run"; exit 1
}

# Trace-format gate: a trace saved by plp_sim and loaded back must drive
# the same simulation. The indented report lines of the two runs must
# be identical (the header line names the trace file instead of the
# seed, so it differs by design). Nothing else runs the trace codec end
# to end; its decoder is fuzzed in crates/trace/tests/properties.rs.
trace_dir=$(mktemp -d)
./target/release/plp_sim --bench milc --instructions 20000 --no-baseline \
  --save-trace "$trace_dir/milc.plpt" > "$trace_dir/saved.txt"
./target/release/plp_sim --bench milc --instructions 20000 --no-baseline \
  --load-trace "$trace_dir/milc.plpt" > "$trace_dir/loaded.txt"
grep '^  ' "$trace_dir/saved.txt" > "$trace_dir/saved.report" || true
grep '^  ' "$trace_dir/loaded.txt" > "$trace_dir/loaded.report" || true
[ -s "$trace_dir/saved.report" ] && cmp "$trace_dir/saved.report" "$trace_dir/loaded.report" || {
  echo "verify: a loaded trace did not reproduce the report of the run that saved it"; exit 1
}
rm -rf "$trace_dir"

# Paper-length artefact gate: every registered artefact at the paper's
# 400k instructions must stay byte-identical to its committed
# results/ID.txt. The other byte-identity gates run 6k-20k
# instructions, where no NVM bank books enough reservations to engage
# the stale-reservation trim (DESIGN.md §7b). One cold `all` in a
# throwaway directory fills a run cache there; each `--only ID` then
# renders from that cache. The cold stdout must equal the committed
# sections joined by one blank line, so a registered spec without a
# committed artefact (or an id dropped from the registry) fails too.
paper_ids="fig8 fig9 fig10 fig11 fig12 table1 table2 table5 wpq_sweep mdc_sweep llc_sweep sgx_compare summary ablation zoo"
paper_dir=$(mktemp -d)
paper_joined="$paper_dir/joined.txt"
(cd "$paper_dir" && "$repo_root/target/release/all" 400000 7 2> cold.err > cold.txt) || {
  echo "verify: paper-length sweep failed (exit $?)"; cat "$paper_dir/cold.err" >&2; exit 1
}
sep=""
for id in $paper_ids; do
  (cd "$paper_dir" && "$repo_root/target/release/all" 400000 7 --only "$id" 2> /dev/null) | cmp - "results/$id.txt" || {
    echo "verify: paper-length $id diverged from results/$id.txt"; exit 1
  }
  printf '%s' "$sep" >> "$paper_joined"
  cat "results/$id.txt" >> "$paper_joined"
  sep=$'\n'
done
cmp "$paper_dir/cold.txt" "$paper_joined" || {
  echo "verify: paper-length all diverged from the committed artefacts joined in registry order"; exit 1
}
rm -rf "$paper_dir"

# Perf gate: the hotpath microbench fails on a >10% per-scheme
# regression of the load-normalized relative cost (host ns per
# simulated instruction divided by a pure-CPU calibration workload
# timed around the same sample) against the committed baseline. Raw ns
# and wall-clock fields are informational — they track machine load —
# only relative_cost gates. The committed baseline is an envelope:
# per-scheme max of ten fresh runs, inflated 1.15x, so ambient
# contention cannot trip the gate while a real hot-path regression
# (e.g. reverting the BMT arena to a map, ~2x) still does. Refresh it
# by running
#   target/release/hotpath --out /tmp/hp_N.json
# ten times and committing the per-scheme max * 1.15, and one of the
# runs as BENCH_hotpath.json. The gate's own report goes to a temp
# file, so a verify run leaves both committed files as they are.
hotpath_json=$(mktemp)
./target/release/hotpath --out "$hotpath_json" \
  --check results/BENCH_hotpath_baseline.json || {
  echo "verify: hotpath perf gate failed"; exit 1
}
rm -f "$hotpath_json"

# Recovery-axis gate: the runtime-vs-recovery Pareto sweep crashes
# every scheme at enumerated cut points across three tree heights and
# times full-device recovery. The simulation is fully deterministic,
# so the rendered table must be byte-identical to the committed
# results/recovery_pareto.txt and the flat JSON envelope must match
# results/BENCH_recovery_baseline.json exactly (recovery cycles) /
# within float-print tolerance (runtime overhead). The binary itself
# exits non-zero if any correct scheme's recovery at any cut yields
# undetected corruption or a stale rollback. See DESIGN.md §15.
rec_tbl=$(mktemp)
rec_json=$(mktemp)
./target/release/recovery_sweep 20000 7 --table "$rec_tbl" --out "$rec_json" \
  --check results/BENCH_recovery_baseline.json || {
  echo "verify: recovery sweep failed its envelope check"; exit 1
}
cmp "$rec_tbl" results/recovery_pareto.txt || {
  echo "verify: recovery Pareto table diverged from the committed artefact"; exit 1
}
rm -f "$rec_tbl" "$rec_json"

# Fault-sweep gate: every correct scheme's crash points under torn
# writes, bit flips and dropped persists, judged by RecoveryManager
# (packed-tree rebuilds and the memoized prefix search). The binary
# exits non-zero unless detect-or-recover holds, and its stdout (every
# verdict tally and mean modelled recovery cycles) must equal the
# committed results/fault_sweep.txt byte for byte.
fault_out=$(mktemp)
./target/release/fault_sweep 60000 7 > "$fault_out" || {
  echo "verify: fault sweep failed (exit $?)"; exit 1
}
cmp "$fault_out" results/fault_sweep.txt || {
  echo "verify: fault sweep stdout diverged from results/fault_sweep.txt"; exit 1
}
rm -f "$fault_out"

echo "verify: OK"
