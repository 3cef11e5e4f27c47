//! Deterministic fault injection against a durable [`PersistImage`].
//!
//! Every fault is a pure function of the injector's seed and the
//! (records, crash time) pair, so any failing state replays exactly.
//! Candidate selection always iterates *sorted* address lists — hash-map
//! iteration order never leaks into the fault stream.

use plp_crypto::{CounterBlock, DataBlock, MacTag};
use plp_events::addr::{BlockAddr, CACHE_BLOCK_SIZE};
use plp_events::{splitmix64, Cycle};

use crate::{PersistImage, PersistRecord, TupleComponent};

use super::{splitmix_below, FaultSpec};

/// Words per 64-byte data line.
const DATA_WORDS: usize = CACHE_BLOCK_SIZE / 8;
/// Words per 72-byte split-counter wire (1 major + 64 one-byte minors).
const COUNTER_WORDS: usize = 9;
/// MAC tags per 64-byte MAC line.
const TAGS_PER_LINE: u64 = 8;

/// Injects medium-level faults into a crash image.
///
/// The three fault classes mirror real NVM failure modes:
///
/// * [`torn_write`](FaultInjector::torn_write) — a 64-byte line write
///   that was interrupted mid-flight: each 8-byte word independently
///   holds either the old or the new content (NVDIMM word
///   atomicity is 8 bytes, line writes are not atomic);
/// * [`bit_flip`](FaultInjector::bit_flip) — a retention/disturb error
///   in one persisted cell of the data, MAC, counter or root region;
/// * [`drop_persist`](FaultInjector::drop_persist) — an
///   already-acknowledged WPQ entry that never drained to the medium
///   (the ADR flush promise broken by a platform fault).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: u64,
}

impl FaultInjector {
    /// Creates an injector whose entire fault stream derives from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: seed ^ 0x464C_545F_494E_4A00,
        }
    }

    /// Tears the most recent line write of one tuple component: some
    /// 8-byte words of the line revert to the previous durable content.
    ///
    /// The component is chosen among ciphertext, counter and MAC lines
    /// (the root register is a single word — it cannot tear). Returns
    /// `None` when the image holds nothing tearable (e.g. a crash
    /// before the first persist) or every candidate line equals its
    /// predecessor.
    pub fn torn_write(
        &mut self,
        image: &mut PersistImage,
        records: &[PersistRecord],
        t: Cycle,
    ) -> Option<FaultSpec> {
        let mut components = [
            TupleComponent::Ciphertext,
            TupleComponent::Counter,
            TupleComponent::Mac,
        ];
        // Random rotation so one exhausted component does not starve
        // the others, while every component still gets tried.
        let start = pick_index(&mut self.rng, components.len());
        components.rotate_left(start);
        for component in components {
            let spec = match component {
                TupleComponent::Ciphertext => self.tear_data(image, records, t),
                TupleComponent::Counter => self.tear_counter(image, records, t),
                TupleComponent::Mac => self.tear_mac_line(image, records, t),
                TupleComponent::Root => None,
            };
            if spec.is_some() {
                return spec;
            }
        }
        None
    }

    /// Tears a specific component's line (for targeted property tests).
    pub fn torn_write_component(
        &mut self,
        image: &mut PersistImage,
        records: &[PersistRecord],
        t: Cycle,
        component: TupleComponent,
    ) -> Option<FaultSpec> {
        match component {
            TupleComponent::Ciphertext => self.tear_data(image, records, t),
            TupleComponent::Counter => self.tear_counter(image, records, t),
            TupleComponent::Mac => self.tear_mac_line(image, records, t),
            TupleComponent::Root => None,
        }
    }

    fn tear_data(
        &mut self,
        image: &mut PersistImage,
        records: &[PersistRecord],
        t: Cycle,
    ) -> Option<FaultSpec> {
        let mut addrs: Vec<BlockAddr> = image.data.keys().copied().collect();
        addrs.sort();
        if addrs.is_empty() {
            return None;
        }
        let start = pick_index(&mut self.rng, addrs.len());
        for k in 0..addrs.len() {
            let addr = addrs[(start + k) % addrs.len()];
            let Some(&new) = image.data.get(&addr) else {
                continue;
            };
            let old = prior_data(records, addr, t);
            let (mixed, mask) =
                match self.mix_words(&old.as_bytes()[..], &new.as_bytes()[..], DATA_WORDS) {
                    Some(m) => m,
                    None => continue, // line identical to predecessor
                };
            let mut bytes = [0u8; CACHE_BLOCK_SIZE];
            bytes.copy_from_slice(&mixed);
            image.data.insert(addr, DataBlock::from_bytes(bytes));
            return Some(FaultSpec::TornWrite {
                component: TupleComponent::Ciphertext,
                addr,
                kept_old_words: mask,
            });
        }
        None
    }

    fn tear_counter(
        &mut self,
        image: &mut PersistImage,
        records: &[PersistRecord],
        t: Cycle,
    ) -> Option<FaultSpec> {
        let mut pages: Vec<u64> = image.counters.keys().copied().collect();
        pages.sort_unstable();
        if pages.is_empty() {
            return None;
        }
        let start = pick_index(&mut self.rng, pages.len());
        for k in 0..pages.len() {
            let page = pages[(start + k) % pages.len()];
            let Some(new) = image.counters.get(&page).cloned() else {
                continue;
            };
            let old = prior_counter(records, page, t);
            let (mixed, mask) =
                match self.mix_words(&old.to_bytes()[..], &new.to_bytes()[..], COUNTER_WORDS) {
                    Some(m) => m,
                    None => continue,
                };
            let mut bytes = [0u8; 72];
            bytes.copy_from_slice(&mixed);
            // Word-granular mixing of two valid wires keeps every minor
            // byte from a valid wire, so the result always decodes; a
            // decode failure would mean no injectable fault, not a crash.
            let Ok(torn) = CounterBlock::from_bytes(&bytes) else {
                continue;
            };
            image.counters.insert(page, torn);
            return Some(FaultSpec::TornWrite {
                component: TupleComponent::Counter,
                addr: plp_events::addr::PageAddr::new(page).first_block(),
                kept_old_words: mask,
            });
        }
        None
    }

    fn tear_mac_line(
        &mut self,
        image: &mut PersistImage,
        records: &[PersistRecord],
        t: Cycle,
    ) -> Option<FaultSpec> {
        let mut addrs: Vec<BlockAddr> = image.macs.keys().copied().collect();
        addrs.sort();
        if addrs.is_empty() {
            return None;
        }
        let start = pick_index(&mut self.rng, addrs.len());
        for k in 0..addrs.len() {
            let victim = addrs[(start + k) % addrs.len()];
            let old = prior_mac(records, victim, t);
            let Some(&current) = image.macs.get(&victim) else {
                continue;
            };
            if old == current {
                continue; // tag unchanged; tearing is a no-op
            }
            // The victim's tag shares a 64-byte MAC line with 7
            // neighbours; the torn line reverts the victim's word and a
            // random subset of the neighbouring tags that are present.
            let line_base = victim.index() / TAGS_PER_LINE * TAGS_PER_LINE;
            let mut mask: u16 = 0;
            for slot in 0..TAGS_PER_LINE {
                let addr = BlockAddr::new(line_base + slot);
                let revert = addr == victim
                    || (image.macs.contains_key(&addr) && splitmix64(&mut self.rng) & 1 == 1);
                if revert {
                    if let std::collections::hash_map::Entry::Occupied(mut e) =
                        image.macs.entry(addr)
                    {
                        e.insert(prior_mac(records, addr, t));
                        mask |= 1 << slot;
                    }
                }
            }
            return Some(FaultSpec::TornWrite {
                component: TupleComponent::Mac,
                addr: victim,
                kept_old_words: mask,
            });
        }
        None
    }

    /// Mixes `old` and `new` at 8-byte-word granularity. The mask has
    /// bit *i* set when word *i* kept the old content; at least one
    /// *differing* word is forced old (the fault is real) and at least
    /// one word keeps the new content when possible (the line is torn,
    /// not simply dropped). Returns `None` when the lines are equal.
    fn mix_words(&mut self, old: &[u8], new: &[u8], words: usize) -> Option<(Vec<u8>, u16)> {
        debug_assert_eq!(old.len(), new.len());
        let differing: Vec<usize> = (0..words)
            .filter(|&w| old[w * 8..(w + 1) * 8] != new[w * 8..(w + 1) * 8])
            .collect();
        if differing.is_empty() {
            return None;
        }
        let forced = differing[pick_index(&mut self.rng, differing.len())];
        let mut mask: u16 = 1 << forced;
        for w in 0..words {
            if w != forced && splitmix64(&mut self.rng) & 1 == 1 {
                mask |= 1 << w;
            }
        }
        if u64::from(mask.count_ones()) == words as u64 {
            // Fully-old is a dropped line, not a torn one: keep one new
            // word if any word can stay new without undoing the fault.
            if let Some(keep_new) = (0..words).find(|w| *w != forced) {
                mask &= !(1 << keep_new);
            }
        }
        let mut mixed = new.to_vec();
        for w in 0..words {
            if mask & (1 << w) != 0 {
                mixed[w * 8..(w + 1) * 8].copy_from_slice(&old[w * 8..(w + 1) * 8]);
            }
        }
        Some((mixed, mask))
    }

    /// Flips one bit in a randomly-chosen persisted component.
    ///
    /// Counter flips are restricted to architecturally-meaningful bits
    /// (the 64-bit major and each minor's low 7 bits) because the image
    /// stores counters in decoded form; data, MAC and root flips may
    /// hit any bit. Returns `None` only for an entirely empty image —
    /// the root register is always present.
    pub fn bit_flip(&mut self, image: &mut PersistImage) -> Option<FaultSpec> {
        let mut candidates: Vec<TupleComponent> = Vec::with_capacity(4);
        if !image.data.is_empty() {
            candidates.push(TupleComponent::Ciphertext);
        }
        if !image.counters.is_empty() {
            candidates.push(TupleComponent::Counter);
        }
        if !image.macs.is_empty() {
            candidates.push(TupleComponent::Mac);
        }
        candidates.push(TupleComponent::Root);
        let component = candidates[pick_index(&mut self.rng, candidates.len())];
        self.bit_flip_component(image, component)
    }

    /// Flips one bit in a specific component (for targeted property
    /// tests). Returns `None` when that component has no persisted
    /// state.
    pub fn bit_flip_component(
        &mut self,
        image: &mut PersistImage,
        component: TupleComponent,
    ) -> Option<FaultSpec> {
        match component {
            TupleComponent::Ciphertext => {
                let mut addrs: Vec<BlockAddr> = image.data.keys().copied().collect();
                addrs.sort();
                let addr = *addrs.get(splitmix_below_opt(&mut self.rng, addrs.len())?)?;
                let bit = pick_bit(&mut self.rng, (CACHE_BLOCK_SIZE * 8) as u64);
                let mut bytes = *image.data.get(&addr)?.as_bytes();
                bytes[byte_slot(bit)] ^= 1 << (bit % 8);
                image.data.insert(addr, DataBlock::from_bytes(bytes));
                Some(FaultSpec::BitFlip {
                    component,
                    addr,
                    bit,
                })
            }
            TupleComponent::Mac => {
                let mut addrs: Vec<BlockAddr> = image.macs.keys().copied().collect();
                addrs.sort();
                let addr = *addrs.get(splitmix_below_opt(&mut self.rng, addrs.len())?)?;
                let bit = pick_bit(&mut self.rng, 64);
                let raw = image.macs.get(&addr)?.raw();
                image.macs.insert(addr, MacTag::from_raw(raw ^ (1 << bit)));
                Some(FaultSpec::BitFlip {
                    component,
                    addr,
                    bit,
                })
            }
            TupleComponent::Counter => {
                let mut pages: Vec<u64> = image.counters.keys().copied().collect();
                pages.sort_unstable();
                let page = *pages.get(splitmix_below_opt(&mut self.rng, pages.len())?)?;
                // Bit space: 64 major bits then 7 valid bits per minor.
                let pick = pick_bit(&mut self.rng, 64 + 64 * 7);
                let mut bytes = image.counters.get(&page)?.to_bytes();
                if pick < 64 {
                    bytes[byte_slot(pick)] ^= 1 << (pick % 8);
                } else {
                    let minor = usize::try_from((pick - 64) / 7).unwrap_or(0);
                    let bit = (pick - 64) % 7;
                    bytes[8 + minor] ^= 1 << bit;
                }
                // Flips stay inside the encodable bit space (major word
                // or a minor's low 7 bits), so the block still decodes.
                #[expect(
                    clippy::expect_used,
                    reason = "flip targets only valid counter bits by construction"
                )]
                let flipped = CounterBlock::from_bytes(&bytes).expect("valid flips decode");
                image.counters.insert(page, flipped);
                Some(FaultSpec::BitFlip {
                    component,
                    addr: plp_events::addr::PageAddr::new(page).first_block(),
                    bit: pick,
                })
            }
            TupleComponent::Root => {
                let bit = pick_bit(&mut self.rng, 64);
                image.root ^= 1 << bit;
                Some(FaultSpec::BitFlip {
                    component,
                    addr: BlockAddr::new(0),
                    bit,
                })
            }
        }
    }

    /// Drops one already-completed persist: the returned record set is
    /// `records` minus a tuple whose completion the program observed
    /// but whose writes never reached the medium. The caller rebuilds
    /// the image from the thinned records while holding recovery to the
    /// *original* expectations.
    ///
    /// Returns `None` when no persist had completed by `t`.
    pub fn drop_persist(
        &mut self,
        records: &[PersistRecord],
        t: Cycle,
    ) -> Option<(Vec<PersistRecord>, FaultSpec)> {
        let completed: Vec<usize> = (0..records.len())
            .filter(|&i| records[i].completed_at() <= t)
            .collect();
        let victim = completed[splitmix_below_opt(&mut self.rng, completed.len())?];
        let spec = FaultSpec::DroppedPersist {
            id: records[victim].id,
            addr: records[victim].addr,
        };
        let mut thinned = records.to_vec();
        thinned.remove(victim);
        Some((thinned, spec))
    }
}

/// `splitmix_below` over a `usize` bound, `None` when the bound is 0.
fn splitmix_below_opt(state: &mut u64, bound: usize) -> Option<usize> {
    if bound == 0 {
        None
    } else {
        Some(pick_index(state, bound))
    }
}

/// A uniformly-chosen index below `len`; callers guarantee `len > 0`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the draw is below len, which itself fits in a usize"
)]
fn pick_index(state: &mut u64, len: usize) -> usize {
    splitmix_below(state, len as u64) as usize
}

/// A uniformly-chosen bit position below `bound` (at most a few
/// hundred), as the `u32` a [`FaultSpec`] carries.
fn pick_bit(state: &mut u64, bound: u64) -> u32 {
    u32::try_from(splitmix_below(state, bound)).unwrap_or(0)
}

/// Byte index holding bit `bit` of a packed little-endian buffer.
fn byte_slot(bit: u32) -> usize {
    (bit / 8) as usize
}

/// The durable content a component held *before* its most recent write
/// at crash time `t` (the "old" side of a torn line). Defaults model
/// never-written medium.
fn prior_data(records: &[PersistRecord], addr: BlockAddr, t: Cycle) -> DataBlock {
    let mut hist: Vec<(Cycle, DataBlock)> = records
        .iter()
        .filter(|r| r.addr == addr && r.times.data <= t)
        .map(|r| (r.times.data, r.ciphertext))
        .collect();
    hist.sort_by_key(|(time, _)| *time);
    match hist.len() {
        0 | 1 => DataBlock::zeroed(),
        n => hist[n - 2].1,
    }
}

fn prior_counter(records: &[PersistRecord], page: u64, t: Cycle) -> CounterBlock {
    let mut hist: Vec<(Cycle, &CounterBlock)> = records
        .iter()
        .filter(|r| r.addr.page().index() == page && r.times.counter <= t)
        .map(|r| (r.times.counter, &r.counters_after))
        .collect();
    hist.sort_by_key(|(time, _)| *time);
    match hist.len() {
        0 | 1 => CounterBlock::default(),
        n => hist[n - 2].1.clone(),
    }
}

fn prior_mac(records: &[PersistRecord], addr: BlockAddr, t: Cycle) -> MacTag {
    let mut hist: Vec<(Cycle, MacTag)> = records
        .iter()
        .filter(|r| r.addr == addr && r.times.mac <= t)
        .map(|r| (r.times.mac, r.mac))
        .collect();
    hist.sort_by_key(|(time, _)| *time);
    match hist.len() {
        0 | 1 => MacTag::from_raw(0),
        n => hist[n - 2].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochId, PersistId, TupleTimes};
    use plp_bmt::BmtGeometry;
    use plp_crypto::{CtrEngine, MacEngine, SipKey};
    use std::collections::HashMap;

    fn key() -> SipKey {
        SipKey::new(1, 2)
    }

    fn geometry() -> BmtGeometry {
        BmtGeometry::new(8, 4)
    }

    /// n atomic persists, two writes per address so every component has
    /// a real predecessor.
    fn make_records(n: u64) -> Vec<PersistRecord> {
        let ctr_engine = CtrEngine::new(key());
        let mac_engine = MacEngine::new(key());
        let mut counters: HashMap<u64, CounterBlock> = HashMap::new();
        let mut out = Vec::new();
        for i in 0..n {
            let addr = BlockAddr::new((i / 2) * 3); // two persists per block
            let page = addr.page().index();
            let cb = counters.entry(page).or_default();
            let gamma = cb.bump(addr.slot_in_page()).value();
            let plaintext = DataBlock::from_u64(0xA000 + i);
            let ciphertext = ctr_engine.encrypt(plaintext, addr, gamma);
            let mac = mac_engine.compute(&ciphertext, addr, gamma);
            out.push(PersistRecord {
                id: PersistId(i),
                epoch: EpochId(0),
                addr,
                plaintext,
                ciphertext,
                counters_after: cb.clone(),
                mac,
                issued_at: Cycle::new(i * 100),
                times: TupleTimes::atomic(Cycle::new(i * 100 + 360)),
            });
        }
        out
    }

    fn image_at(records: &[PersistRecord], t: Cycle) -> PersistImage {
        PersistImage::at_time(records, t, geometry(), key())
    }

    #[test]
    fn torn_data_write_changes_exactly_one_line() {
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let clean = image_at(&records, t);
        let mut torn = clean.clone();
        let spec = FaultInjector::new(11)
            .torn_write_component(&mut torn, &records, t, TupleComponent::Ciphertext)
            .expect("tearable data exists");
        let FaultSpec::TornWrite {
            component, addr, ..
        } = spec
        else {
            panic!("wrong spec: {spec:?}")
        };
        assert_eq!(component, TupleComponent::Ciphertext);
        assert_ne!(torn.data[&addr], clean.data[&addr], "fault must be real");
        let diffs = clean.data.iter().filter(|(a, d)| torn.data[a] != **d).count();
        assert_eq!(diffs, 1, "only the victim line changes");
        assert_eq!(torn.macs, clean.macs);
        assert_eq!(torn.counters, clean.counters);
    }

    #[test]
    fn torn_counter_write_stays_decodable_and_differs() {
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let clean = image_at(&records, t);
        let mut torn = clean.clone();
        let spec = FaultInjector::new(5)
            .torn_write_component(&mut torn, &records, t, TupleComponent::Counter)
            .expect("tearable counter exists");
        let FaultSpec::TornWrite { addr, .. } = spec else {
            panic!("wrong spec")
        };
        let page = addr.page().index();
        assert_ne!(torn.counters[&page], clean.counters[&page]);
        // Decodability is enforced by construction (from_bytes in the
        // injector); round-trip to be sure.
        let bytes = torn.counters[&page].to_bytes();
        assert!(CounterBlock::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn torn_mac_line_reverts_the_victim_tag() {
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let clean = image_at(&records, t);
        let mut torn = clean.clone();
        let spec = FaultInjector::new(3)
            .torn_write_component(&mut torn, &records, t, TupleComponent::Mac)
            .expect("tearable MAC exists");
        let FaultSpec::TornWrite {
            addr,
            kept_old_words,
            ..
        } = spec
        else {
            panic!("wrong spec")
        };
        assert_ne!(torn.macs[&addr], clean.macs[&addr]);
        assert_ne!(kept_old_words, 0);
    }

    #[test]
    fn bit_flip_hits_exactly_one_bit() {
        let records = make_records(4);
        let t = Cycle::new(1_000_000);
        let clean = image_at(&records, t);
        for component in TupleComponent::ALL {
            let mut hit = clean.clone();
            let spec = FaultInjector::new(99)
                .bit_flip_component(&mut hit, component)
                .expect("state exists");
            let FaultSpec::BitFlip { .. } = spec else {
                panic!("wrong spec")
            };
            match component {
                TupleComponent::Ciphertext => {
                    let flipped_bits: u32 = clean
                        .data
                        .iter()
                        .map(|(a, d)| {
                            d.as_bytes()
                                .iter()
                                .zip(hit.data[a].as_bytes())
                                .map(|(x, y)| (x ^ y).count_ones())
                                .sum::<u32>()
                        })
                        .sum();
                    assert_eq!(flipped_bits, 1);
                }
                TupleComponent::Mac => {
                    let flipped: u32 = clean
                        .macs
                        .iter()
                        .map(|(a, m)| (m.raw() ^ hit.macs[a].raw()).count_ones())
                        .sum();
                    assert_eq!(flipped, 1);
                }
                TupleComponent::Counter => {
                    let flipped: u32 = clean
                        .counters
                        .iter()
                        .map(|(p, c)| {
                            c.to_bytes()
                                .iter()
                                .zip(hit.counters[p].to_bytes())
                                .map(|(x, y)| (x ^ y).count_ones())
                                .sum::<u32>()
                        })
                        .sum();
                    assert_eq!(flipped, 1);
                }
                TupleComponent::Root => {
                    assert_eq!((clean.root ^ hit.root).count_ones(), 1);
                }
            }
        }
    }

    #[test]
    fn drop_persist_removes_a_completed_record() {
        let records = make_records(4);
        let t = Cycle::new(500); // first two persists completed (360, 460)
        let (thinned, spec) = FaultInjector::new(42)
            .drop_persist(&records, t)
            .expect("completed persists exist");
        assert_eq!(thinned.len(), records.len() - 1);
        let FaultSpec::DroppedPersist { id, .. } = spec else {
            panic!("wrong spec")
        };
        assert!(id.0 < 2, "only completed persists may drop, got {id}");
        assert!(thinned.iter().all(|r| r.id != id));
    }

    #[test]
    fn empty_image_yields_no_faults_except_root_flip() {
        let records = make_records(4);
        let t = Cycle::ZERO; // nothing persisted yet
        let mut image = image_at(&records, t);
        let mut inj = FaultInjector::new(1);
        assert!(inj.torn_write(&mut image, &records, t).is_none());
        assert!(inj.drop_persist(&records, t).is_none());
        let spec = inj.bit_flip(&mut image).expect("root is always present");
        assert!(matches!(
            spec,
            FaultSpec::BitFlip {
                component: TupleComponent::Root,
                ..
            }
        ));
    }

    #[test]
    fn fault_streams_replay_from_the_seed() {
        let records = make_records(8);
        let t = Cycle::new(1_000_000);
        let base = image_at(&records, t);
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let (mut a, mut b) = (base.clone(), base.clone());
            let sa = FaultInjector::new(seed).torn_write(&mut a, &records, t);
            let sb = FaultInjector::new(seed).torn_write(&mut b, &records, t);
            assert_eq!(sa, sb);
            assert_eq!(a, b);
            let (mut a, mut b) = (base.clone(), base.clone());
            let fa = FaultInjector::new(seed).bit_flip(&mut a);
            let fb = FaultInjector::new(seed).bit_flip(&mut b);
            assert_eq!(fa, fb);
            assert_eq!(a, b);
        }
    }
}
