//! Replay-attack demo: why counters need an integrity tree at all.
//!
//! The threat model (§II) gives the adversary full physical access to
//! NVMM. Suppose they snapshot a block's *entire* consistent tuple —
//! ciphertext, MAC **and** counter block — and later write the old
//! tuple back. The stateful MAC verifies (it is a genuine old tuple!),
//! and decryption yields a valid old plaintext. Only the Bonsai Merkle
//! Tree catches the replay: the persisted on-chip root no longer
//! matches a tree rebuilt over the (rolled-back) counters.
//!
//! ```text
//! cargo run --release --example replay_attack
//! ```

use plp::core::{run_with_crash, RecoveryChecker, RecoveryManager, SystemConfig, UpdateScheme};
use plp::trace::{spec, TraceGenerator};

fn main() {
    let profile = spec::benchmark("milc").expect("known benchmark");
    let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
    cfg.record_persists = true;
    let trace = TraceGenerator::new(profile.clone(), 4).generate(12_000);
    let (report, image, expected) = run_with_crash(&cfg, profile.base_ipc, &trace, None);
    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);

    println!("clean shutdown: {}", checker.check(&image, &expected));
    println!();

    // Find a block persisted at least twice; the attacker replays its
    // first (older, fully consistent) tuple.
    let victim = report
        .records
        .iter()
        .find(|early| {
            report
                .records
                .iter()
                .filter(|r| r.addr == early.addr)
                .count()
                >= 2
        })
        .expect("some block is persisted twice");
    let old = victim.clone();
    println!(
        "adversary replays {}'s old tuple at {} (counter γ rolled back)",
        old.id, old.addr
    );

    let mut attacked = image.clone();
    attacked.data.insert(old.addr, old.ciphertext);
    attacked.macs.insert(old.addr, old.mac);
    attacked
        .counters
        .insert(old.addr.page().index(), old.counters_after.clone());

    let verdict = checker.check(&attacked, &expected);
    println!("after replay: {verdict}");
    assert!(verdict.bmt_failure, "the BMT must catch the replay");

    // Show why the MAC alone is not enough: verify the replayed tuple
    // in isolation — it passes, because it is internally consistent.
    let gamma = old.counters_after.value_for(old.addr);
    let mac_engine = plp::crypto::MacEngine::new(cfg.key);
    println!(
        "stateful MAC on the replayed tuple alone: {}",
        if mac_engine.verify(&old.ciphertext, old.addr, gamma, old.mac) {
            "VERIFIES (replay is invisible to the MAC)"
        } else {
            "fails"
        }
    );
    println!();
    println!(
        "this is §II's argument in running code: stateful MACs stop spoofing\n\
         and splicing, but only the tree root — kept in on-chip persistent\n\
         storage, updated in persist order (Invariant 2) — stops replay."
    );

    // And what recovering this image costs under the scheme's rebuild
    // strategy:
    let outcome = RecoveryManager::for_config(&cfg).recover(&image, &report.records, &expected);
    println!();
    println!(
        "recovery pass for this image: ~{} cycles ({})",
        outcome.recovery_cycles,
        outcome.verdict()
    );
}
