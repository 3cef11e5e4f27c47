//! Cross-scheme metamorphic tests: on a shared trace the persistency
//! schemes are different *schedulers* over the same architectural
//! state machine, so every crash-consistent scheme must converge to
//! the same final BMT root and the same persisted-tuple set, and the
//! paper's mechanism ladder must never *increase* BMT work
//! (coalescing <= o3 <= pipeline <= sp node updates).
//!
//! The traces here store each block at most once, so the final
//! counter state — and therefore the final root — is independent of
//! the order in which the schemes drain their persists.

use plp_core::{PersistRecord, SimSetup, SystemConfig, UpdateScheme};
use plp_events::addr::PageAddr;
use plp_events::Cycle;
use plp_trace::{Op, Trace, TraceEvent};
use proptest::prelude::*;

/// The crash-consistent schemes: every persist is ordered, so the
/// architectural tree must reach the same final value on all of them.
/// `phoenix` is strict per-store persistency with a dual-copy root
/// commit, so it belongs here; `triad_nvm` relaxes the upper tree and
/// is covered by its own convergence test below.
const CORRECT: [UpdateScheme; 6] = [
    UpdateScheme::Sp,
    UpdateScheme::Pipeline,
    UpdateScheme::O3,
    UpdateScheme::Coalescing,
    UpdateScheme::SpCounterTree,
    UpdateScheme::Phoenix,
];

/// A trace that stores each page's first block exactly once, with a
/// small instruction gap between stores.
fn distinct_page_trace(pages: &[u64]) -> Trace {
    let events = pages
        .iter()
        .map(|&p| TraceEvent {
            gap_instructions: 3,
            op: Op::Store {
                addr: PageAddr::new(p).first_block(),
                stack: false,
            },
        })
        .collect();
    Trace::new(events)
}

struct SchemeRun {
    report: plp_core::RunReport,
    root: plp_bmt::NodeValue,
}

fn run_scheme(scheme: UpdateScheme, trace: &Trace) -> SchemeRun {
    let mut cfg = SystemConfig::for_scheme(scheme);
    cfg.record_persists = true;
    let setup = SimSetup::new(cfg).expect("paper-default config is valid");
    let (report, finished) = setup.simulation().run_with_state(trace);
    SchemeRun {
        report,
        root: finished.architectural_root(),
    }
}

/// The order-independent functional payload of a persist record: the
/// block and the counter it persisted under.
fn counter_key(r: &PersistRecord) -> (u64, plp_crypto::CounterValue) {
    (
        r.addr.index(),
        r.counters_after.value(r.addr.slot_in_page()),
    )
}

/// The full functional payload, comparable only within a scheduler
/// class (the plaintext carries the persist sequence number).
fn tuple_key(r: &PersistRecord) -> (u64, u64, u64) {
    (r.addr.index(), r.ciphertext.as_u64(), r.mac.raw())
}

/// The order-*dependent* payload, for schemes that must agree persist
/// by persist (same scheduler class, same program order).
fn tuple_seq(records: &[PersistRecord]) -> Vec<(u64, u64, u64)> {
    records.iter().map(tuple_key).collect()
}

#[test]
fn correct_schemes_share_root_and_tuples_on_a_clustered_burst() {
    // 96 distinct pages clustered into a few subtrees, so epoch
    // schemes get real LCA sharing to exploit.
    let pages: Vec<u64> = (0..96u64).map(|i| (i % 12) * 64 + i / 12).collect();
    let trace = distinct_page_trace(&pages);

    let runs: Vec<(UpdateScheme, SchemeRun)> = CORRECT
        .iter()
        .map(|&s| (s, run_scheme(s, &trace)))
        .collect();

    let (ref_scheme, ref_run) = &runs[0];
    assert!(
        ref_run.root != plp_bmt::NodeValue::default(),
        "reference run must actually move the tree"
    );
    for (scheme, run) in &runs {
        assert_eq!(
            run.root, ref_run.root,
            "{scheme:?} final BMT root diverged from {ref_scheme:?}"
        );
        assert_eq!(
            run.report.persists, ref_run.report.persists,
            "{scheme:?} ordered-persist count diverged from {ref_scheme:?}"
        );
        assert!(
            run.report.sanitizer.is_clean(),
            "{scheme:?} sanitizer verdict not clean: {:?}",
            run.report.sanitizer.violations
        );
        // Order-independent tuple set: same blocks ending at the same
        // counter values. (Ciphertexts are only comparable within a
        // scheduler class — the persisted payload carries the persist
        // sequence number, which drain order permutes.)
        let mut ours: Vec<_> = run.report.records.iter().map(counter_key).collect();
        let mut theirs: Vec<_> = ref_run.report.records.iter().map(counter_key).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(
            ours, theirs,
            "{scheme:?} tuple set diverged from {ref_scheme:?}"
        );
    }

    // Within a scheduler class the full persist *sequence* must agree,
    // not just the set: strict write-through schemes persist in program
    // order, epoch schemes in epoch-set order.
    let strict: Vec<&SchemeRun> = runs
        .iter()
        .filter(|(s, _)| {
            matches!(
                s,
                UpdateScheme::Sp
                    | UpdateScheme::Pipeline
                    | UpdateScheme::SpCounterTree
                    | UpdateScheme::Phoenix
            )
        })
        .map(|(_, r)| r)
        .collect();
    for r in &strict[1..] {
        assert_eq!(
            tuple_seq(&r.report.records),
            tuple_seq(&strict[0].report.records),
            "strict schemes must persist identical tuples in program order"
        );
    }
    let epochal: Vec<&SchemeRun> = runs
        .iter()
        .filter(|(s, _)| matches!(s, UpdateScheme::O3 | UpdateScheme::Coalescing))
        .map(|(_, r)| r)
        .collect();
    assert_eq!(
        tuple_seq(&epochal[1].report.records),
        tuple_seq(&epochal[0].report.records),
        "o3 and coalescing must flush identical tuples in epoch order"
    );
}

#[test]
fn node_update_counts_obey_the_mechanism_ladder() {
    // Page-local clustering makes coalescing's LCA savings real.
    let pages: Vec<u64> = (0..128u64).map(|i| (i % 4) * 8 + i / 4).collect();
    let trace = distinct_page_trace(&pages);

    let sp = run_scheme(UpdateScheme::Sp, &trace);
    let pipe = run_scheme(UpdateScheme::Pipeline, &trace);
    let o3 = run_scheme(UpdateScheme::O3, &trace);
    let co = run_scheme(UpdateScheme::Coalescing, &trace);

    let (n_sp, n_pipe, n_o3, n_co) = (
        sp.report.engine.node_updates,
        pipe.report.engine.node_updates,
        o3.report.engine.node_updates,
        co.report.engine.node_updates,
    );
    assert!(
        n_co <= n_o3,
        "coalescing did {n_co} updates, o3 only {n_o3}"
    );
    assert!(
        n_o3 <= n_pipe,
        "o3 did {n_o3} updates, pipeline only {n_pipe}"
    );
    assert!(
        n_pipe <= n_sp,
        "pipeline did {n_pipe} updates, sp only {n_sp}"
    );
    assert!(
        n_co < n_o3,
        "a page-clustered epoch burst must let coalescing strictly save work"
    );
    assert!(
        co.report.coalesced_saved_updates > 0,
        "a page-clustered epoch burst must let coalescing save updates"
    );
    // Each counted save elides at least one node update (a coalesced
    // persist skips its whole shared suffix), so the counter is a
    // lower bound on the realized saving, never an overstatement.
    assert!(
        n_co + co.report.coalesced_saved_updates <= n_o3,
        "saved-update counter overstates the realized saving: \
         {n_co} + {} > {n_o3}",
        co.report.coalesced_saved_updates
    );
}

#[test]
fn unordered_strawman_still_converges_architecturally() {
    // `unordered` drops Invariant 2 (not crash-consistent) but issues
    // the same write-through persist per store, so its *architectural*
    // root must still match sp's.
    let pages: Vec<u64> = (0..40u64).collect();
    let trace = distinct_page_trace(&pages);
    let sp = run_scheme(UpdateScheme::Sp, &trace);
    let un = run_scheme(UpdateScheme::Unordered, &trace);
    assert_eq!(un.root, sp.root);
    assert_eq!(tuple_seq(&un.report.records), tuple_seq(&sp.report.records));
}

#[test]
fn triad_nvm_converges_architecturally_with_truncated_tree_work() {
    // `triad_nvm` persists only the deepest levels strictly, but it is
    // still a per-store scheduler over the same architectural state
    // machine: root, persist count and tuple sequence must match sp's,
    // while its serialized walk — truncated at the persisted floor —
    // must do strictly less BMT work than sp's full walk.
    let pages: Vec<u64> = (0..64u64).map(|i| (i % 8) * 32 + i / 8).collect();
    let trace = distinct_page_trace(&pages);
    let sp = run_scheme(UpdateScheme::Sp, &trace);
    let triad = run_scheme(UpdateScheme::TriadNvm, &trace);

    assert_eq!(triad.root, sp.root, "triad_nvm architectural root diverged");
    assert_eq!(triad.report.persists, sp.report.persists);
    assert_eq!(
        tuple_seq(&triad.report.records),
        tuple_seq(&sp.report.records),
        "triad_nvm must persist identical tuples in program order"
    );
    assert!(
        triad.report.sanitizer.is_clean(),
        "triad_nvm sanitizer verdict not clean: {:?}",
        triad.report.sanitizer.violations
    );
    let (n_sp, n_triad) = (
        sp.report.engine.node_updates,
        triad.report.engine.node_updates,
    );
    assert!(
        n_triad < n_sp,
        "the truncated walk must save tree work: triad {n_triad} vs sp {n_sp}"
    );
    // The truncation ratio is exact: both walks are per-persist and
    // serialized, so the update counts are persists * walked levels.
    let cfg = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
    let walked = u64::from(cfg.bmt.levels() - cfg.triad_floor() + 1);
    assert_eq!(n_triad, triad.report.persists * walked);
    assert_eq!(n_sp, sp.report.persists * u64::from(cfg.bmt.levels()));
}

#[test]
fn schemes_finish_in_finite_time_and_roots_are_nonzero() {
    let pages: Vec<u64> = (0..16u64).collect();
    let trace = distinct_page_trace(&pages);
    for scheme in CORRECT {
        let run = run_scheme(scheme, &trace);
        assert!(run.report.total_cycles > Cycle::ZERO);
        assert!(run.root != plp_bmt::NodeValue::default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any distinct-page store burst: every correct scheme converges
    /// to the same root, with a clean sanitizer verdict, and the
    /// mechanism ladder never increases BMT work.
    #[test]
    fn arbitrary_distinct_bursts_converge(
        raw in prop::collection::vec(0u64..2048, 1..80),
    ) {
        let mut pages = raw;
        pages.sort_unstable();
        pages.dedup();
        let trace = distinct_page_trace(&pages);

        let mut root = None;
        let mut ladder = Vec::new();
        for scheme in CORRECT {
            let run = run_scheme(scheme, &trace);
            prop_assert!(
                run.report.sanitizer.is_clean(),
                "{:?} sanitizer fired on a correct scheme",
                scheme
            );
            match root {
                None => root = Some(run.root),
                Some(r) => prop_assert_eq!(run.root, r, "{:?} root diverged", scheme),
            }
            if matches!(
                scheme,
                UpdateScheme::Sp
                    | UpdateScheme::Pipeline
                    | UpdateScheme::O3
                    | UpdateScheme::Coalescing
            ) {
                ladder.push(run.report.engine.node_updates);
            }
        }
        // ladder holds [sp, pipeline, o3, coalescing] in CORRECT order.
        for w in ladder.windows(2) {
            prop_assert!(w[1] <= w[0], "mechanism ladder increased BMT work: {:?}", ladder);
        }
    }
}
