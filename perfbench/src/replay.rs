//! Exact replays of one simulated run through single layers.
//!
//! The traced run times a layer from outside by feeding it the run's
//! own inputs: the trace's loads and stores through the cache
//! `Hierarchy`, and the run's persist records through the counter-mode
//! cipher, the MAC and the BMT. Each replay must reproduce what the
//! simulator reported, or the attribution would describe some other
//! computation.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use plp_bmt::{BonsaiTree, NodeValue};
use plp_cache::{Hierarchy, WriteMode};
use plp_core::{PersistRecord, ProtectionScope, RunReport, SanitizerMode, SimSetup, SystemConfig};
use plp_crypto::{CtrEngine, MacEngine};
use plp_events::addr::BlockAddr;
use plp_trace::{Op, Trace};

use crate::metrics::Ledger;
use crate::span::Tracer;

/// Host time and work count of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Host time of the replay loop.
    pub time: Duration,
    /// Work items replayed (accesses, blocks or leaf updates).
    pub items: u64,
}

/// Replays `trace` through a fresh `Hierarchy` the way the simulator
/// drives it under `config` (write mode per scheme and scope; epoch
/// seals mark their write set clean). Returns the timing and whether
/// the per-level statistics equal `report.data_caches`.
pub fn cache(trace: &Trace, config: &SystemConfig, report: &RunReport) -> (Timed, bool) {
    let scheme = config.scheme;
    let start = Instant::now();
    let mut h = Hierarchy::paper_default(config.llc_bytes);
    let mut epoch_set: BTreeSet<BlockAddr> = BTreeSet::new();
    let mut epoch_stores = 0usize;
    for ev in trace {
        match ev.op {
            Op::Load { addr } => {
                h.load(addr);
            }
            Op::Store { addr, stack } => {
                let persisting = config.scope == ProtectionScope::Full || !stack;
                if persisting && scheme.is_store_persisting() {
                    h.store(addr, WriteMode::WriteThrough);
                } else if persisting && scheme.is_epoch_based() {
                    let out = h.store(addr, WriteMode::WriteBack);
                    epoch_set.insert(addr);
                    for wb in out.memory_writebacks {
                        epoch_set.remove(&wb);
                    }
                    epoch_stores += 1;
                    if epoch_stores >= config.epoch_size {
                        for a in std::mem::take(&mut epoch_set) {
                            h.mark_clean(a);
                        }
                        epoch_stores = 0;
                    }
                } else {
                    h.store(addr, WriteMode::WriteBack);
                }
            }
        }
    }
    let time = start.elapsed();
    let levels = h.levels();
    let exact = (0..3).all(|i| levels[i].stats() == report.data_caches[i]);
    let timed = Timed {
        time,
        items: trace.op_count() as u64,
    };
    (timed, exact)
}

/// Re-encrypts and re-MACs every persist record. Returns the timing
/// and whether every ciphertext and tag matches the recorded one.
pub fn crypto(records: &[PersistRecord], config: &SystemConfig) -> (Timed, bool) {
    let ctr = CtrEngine::new(config.key);
    let mac = MacEngine::new(config.key);
    let start = Instant::now();
    let mut exact = true;
    for r in records {
        let gamma = r.counters_after.value_for(r.addr);
        let cipher = ctr.encrypt(r.plaintext, r.addr, gamma);
        let tag = mac.compute(&cipher, r.addr, gamma);
        exact &= cipher == r.ciphertext && tag == r.mac;
    }
    let timed = Timed {
        time: start.elapsed(),
        items: records.len() as u64,
    };
    (timed, exact)
}

/// Whether `record` is a page-overflow re-encryption (the simulator
/// numbers those down from `u64::MAX`); they carry the counter block of
/// the persist that caused them and update no leaf of their own.
fn is_overflow(record: &PersistRecord) -> bool {
    record.id.0 > u64::MAX / 2
}

/// Applies every persist's counter block to a fresh tree with
/// `BonsaiTree::update_leaf`, in persist order. Returns the timing and
/// whether the final root equals `root`.
pub fn bmt(records: &[PersistRecord], config: &SystemConfig, root: NodeValue) -> (Timed, bool) {
    let mut tree = BonsaiTree::new(config.bmt, config.key);
    let start = Instant::now();
    let mut updates = 0u64;
    for r in records.iter().filter(|r| !is_overflow(r)) {
        tree.update_leaf(r.addr.page().index(), &r.counters_after);
        updates += 1;
    }
    let timed = Timed {
        time: start.elapsed(),
        items: updates,
    };
    (timed, tree.root() == root)
}

/// Replayed layer totals.
#[derive(Debug, Default)]
pub struct Layers {
    /// Cache replay.
    pub cache: Timed,
    /// Crypto replay.
    pub crypto: Timed,
    /// BMT replay.
    pub bmt: Timed,
    /// Σ re-run time with the sanitizer as configured.
    pub sanitizer_on: Duration,
    /// Σ re-run time with the sanitizer off.
    pub sanitizer_off: Duration,
    /// Σ time of the runs those replays attribute.
    pub run: Duration,
}

impl Layers {
    fn add(total: &mut Timed, t: Timed) {
        total.time += t.time;
        total.items += t.items;
    }

    /// Writes the replayed-layer metrics: host cost per unit of work,
    /// the sanitizer's share, and the share of run time no replay
    /// accounts for (engine, WPQ, NVM, metadata caches).
    pub fn record(&self, ledger: &mut Ledger) {
        let ns = |d: Duration| d.as_nanos() as f64;
        ledger.ratio(
            "cache.ns_per_access",
            ns(self.cache.time),
            self.cache.items as f64,
            "ns",
        );
        ledger.count("cache.accesses", self.cache.items);
        ledger.ratio(
            "crypto.ns_per_block",
            ns(self.crypto.time),
            self.crypto.items as f64,
            "ns",
        );
        ledger.count("crypto.blocks", self.crypto.items);
        ledger.ratio(
            "bmt.ns_per_leaf_update",
            ns(self.bmt.time),
            self.bmt.items as f64,
            "ns",
        );
        ledger.count("bmt.leaf_updates", self.bmt.items);
        let on = ns(self.sanitizer_on);
        let sanitizer_share = (on > 0.0).then(|| (on - ns(self.sanitizer_off)) / on);
        if let Some(share) = sanitizer_share {
            ledger.set("sanitizer.overhead_frac", share, "ratio");
        }
        let run = ns(self.run);
        let attributed = ns(self.cache.time)
            + ns(self.crypto.time)
            + ns(self.bmt.time)
            + sanitizer_share.unwrap_or(0.0) * run;
        ledger.ratio("system.unattributed_frac", run - attributed, run, "ratio");
    }

    /// Replays one simulated run (`report`, from `setup` over `trace`,
    /// which took `run` host time) through the cache, crypto and BMT
    /// layers, and re-runs it with the sanitizer on and off (in an
    /// order alternating with `op`, so neither side is always the
    /// warmer one). Returns whether every replay reproduced the run
    /// exactly.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        setup: &SimSetup,
        trace: &Trace,
        report: &RunReport,
        run: Duration,
    ) -> bool {
        self.run += run;
        let mut config = setup.config().clone();
        let (cache_t, cache_ok) =
            tracer.span("cache.replay", op, |_| cache(trace, &config, report));
        Self::add(&mut self.cache, cache_t);

        let mut off_config = config.clone();
        off_config.sanitizer = SanitizerMode::Off;
        let off = rebind(setup, off_config);
        for on_side in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
            let (name, sim, total) = if on_side {
                (
                    "sanitizer.on_run",
                    setup.simulation(),
                    &mut self.sanitizer_on,
                )
            } else {
                (
                    "sanitizer.off_run",
                    off.simulation(),
                    &mut self.sanitizer_off,
                )
            };
            let t = Instant::now();
            tracer.span(name, op, |_| sim.run(trace));
            *total += t.elapsed();
        }

        // The records come from a recording re-run; recording must not
        // change the report.
        config.record_persists = true;
        let (mut recorded, finished) = rebind(setup, config.clone())
            .simulation()
            .run_with_state(trace);
        let (crypto_t, crypto_ok) =
            tracer.span("crypto.replay", op, |_| crypto(&recorded.records, &config));
        Self::add(&mut self.crypto, crypto_t);
        let (bmt_t, bmt_ok) = tracer.span("bmt.replay", op, |_| {
            bmt(&recorded.records, &config, finished.architectural_root())
        });
        Self::add(&mut self.bmt, bmt_t);
        recorded.records.clear();
        recorded.sanitizer = report.sanitizer.clone();
        cache_ok && crypto_ok && bmt_ok && &recorded == report
    }
}

/// `setup` with its configuration replaced.
pub fn rebind(setup: &SimSetup, config: plp_core::SystemConfig) -> SimSetup {
    let profile = setup.profile().expect("benchmark setups are profile-bound");
    SimSetup::for_profile(config, profile, setup.seed())
        .expect("a validated configuration stays valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_core::{SimSetup, UpdateScheme};
    use plp_trace::spec;

    /// Every replay reproduces the simulator exactly, on a strict, an
    /// epoch and the unprotected scheme.
    #[test]
    fn replays_are_exact() {
        let profile = spec::benchmark("gcc").unwrap();
        for scheme in [
            UpdateScheme::SecureWb,
            UpdateScheme::Sp,
            UpdateScheme::Coalescing,
        ] {
            let mut config = SystemConfig::for_scheme(scheme);
            config.record_persists = true;
            let setup = SimSetup::for_profile(config.clone(), &profile, 7).unwrap();
            let trace = setup.generate_trace(20_000);
            let (report, finished) = setup.simulation().run_with_state(&trace);
            assert!(cache(&trace, &config, &report).1, "{scheme} cache");
            assert!(crypto(&report.records, &config).1, "{scheme} crypto");
            let (t, exact) = bmt(&report.records, &config, finished.architectural_root());
            assert!(exact, "{scheme} bmt");
            assert!(t.items > 0 || report.persists + report.writebacks == 0);
        }
    }
}
