//! Allocation-regression pin: the persist hot path must be
//! heap-allocation-free in steady state — the arena-backed tree's
//! updates and commits, every ordered engine's scheduling, the NVM
//! device's bank schedule and write-combining map, the counter-mode
//! and MAC engines, the data and metadata caches, and the durable
//! sink's frame appends — so none of them can silently rot back into
//! per-persist `Vec`s or map nodes.
//!
//! A counting global allocator wraps `System`; each phase warms its
//! subject (first-touch growth — map resizes, `VecDeque` reservations,
//! lazy arena population — is allowed once), snapshots the allocation
//! counter, drives a measured burst, and demands the counter did not
//! move. Everything runs inside ONE `#[test]` so no sibling test can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use plp_bmt::{BmtGeometry, BonsaiTree, NodeLabel};
use plp_cache::{Hierarchy, WriteMode};
use plp_core::engine::{
    CoalescingEngine, EngineCtx, EngineStats, OooEngine, PipelinedEngine, SequentialEngine,
    UpdateEngine, UpdateRequest,
};
use plp_core::meta::MetadataCaches;
use plp_core::{
    DurableSink, Failpoint, FailpointPlan, FailpointRegistry, SimSetup, SystemConfig, UpdateScheme,
};
use plp_crypto::{CounterBlock, CounterValue, CtrEngine, DataBlock, MacEngine, SipKey};
use plp_events::addr::BlockAddr;
use plp_events::{splitmix64, Cycle};
use plp_nvm::{NvmConfig, NvmDevice};
use plp_trace::spec;

/// `System`, with every allocation and reallocation counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `burst` and returns how many heap allocations it performed.
fn count_allocs(mut burst: impl FnMut()) -> u64 {
    let before = allocations();
    burst();
    allocations() - before
}

struct Harness {
    geometry: BmtGeometry,
    meta: MetadataCaches,
    nvm: NvmDevice,
    stats: EngineStats,
    walk: Vec<NodeLabel>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            geometry: BmtGeometry::new(8, 9),
            meta: MetadataCaches::new(128 << 10, true),
            nvm: NvmDevice::new(NvmConfig::paper_default()),
            stats: EngineStats::default(),
            walk: Vec::new(),
        }
    }

    fn ctx(&mut self) -> EngineCtx<'_> {
        EngineCtx {
            geometry: self.geometry,
            mac_latency: Cycle::new(40),
            meta: &mut self.meta,
            nvm: &mut self.nvm,
            stats: &mut self.stats,
            tap: None,
            walk: &mut self.walk,
            failpoints: None,
        }
    }
}

const WARM_ROUNDS: u64 = 4;
const MEASURED_ROUNDS: u64 = 16;
const PAGES: u64 = 256;

#[test]
fn steady_state_persist_path_is_allocation_free() {
    // ---- Phase 1: the arena-backed tree itself. -------------------
    // An update queues its ancestors and a root read commits them. A
    // read after every eighth update puts both in the burst, so a
    // commit that re-allocated its per-level queues fails here too.
    let geometry = BmtGeometry::new(8, 9);
    let mut tree = BonsaiTree::new(geometry, SipKey::new(7, 11));
    let mut counters = CounterBlock::default();
    let touch = |tree: &mut BonsaiTree, counters: &mut CounterBlock, rounds: u64| {
        for r in 0..rounds {
            for page in 0..PAGES {
                counters.bump((page as usize + r as usize) % 64);
                tree.update_leaf(page * 37 % 4096, counters);
                if page % 8 == 7 {
                    std::hint::black_box(tree.root());
                }
            }
        }
    };
    touch(&mut tree, &mut counters, WARM_ROUNDS);
    let tree_allocs = count_allocs(|| touch(&mut tree, &mut counters, MEASURED_ROUNDS));
    assert_eq!(
        tree_allocs,
        0,
        "BonsaiTree::update_leaf and its commits allocated {tree_allocs} times over \
         {} warmed updates and {} root reads — the tree hot path must be allocation-free",
        MEASURED_ROUNDS * PAGES,
        MEASURED_ROUNDS * PAGES / 8
    );

    // ---- Phase 2: every engine's persist scheduling. --------------
    // Warm each engine over the same page pattern the measured burst
    // uses, then demand the burst itself never touches the heap.
    // (Epoch seals are excluded: sealing appends one completion record
    // per epoch by design; the per-persist budget is what's pinned.)

    let mut h = Harness::new();
    let mut seq = SequentialEngine::new();
    let mut now = 0u64;
    let mut drive_seq = |h: &mut Harness, e: &mut SequentialEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_seq(&mut h, &mut seq, WARM_ROUNDS);
    let n = count_allocs(|| drive_seq(&mut h, &mut seq, MEASURED_ROUNDS));
    assert_eq!(
        n, 0,
        "sequential persist allocated {n} times in steady state"
    );

    let mut h = Harness::new();
    let mut pipe = PipelinedEngine::new(9, 64);
    let mut now = 0u64;
    let mut drive_pipe = |h: &mut Harness, e: &mut PipelinedEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_pipe(&mut h, &mut pipe, WARM_ROUNDS);
    let n = count_allocs(|| drive_pipe(&mut h, &mut pipe, MEASURED_ROUNDS));
    assert_eq!(
        n, 0,
        "pipelined persist allocated {n} times in steady state"
    );

    let mut h = Harness::new();
    let mut o3 = OooEngine::new(9, 2);
    let mut now = 0u64;
    let mut drive_o3 = |h: &mut Harness, e: &mut OooEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_o3(&mut h, &mut o3, WARM_ROUNDS);
    let n = count_allocs(|| drive_o3(&mut h, &mut o3, MEASURED_ROUNDS));
    assert_eq!(n, 0, "o3 persist allocated {n} times in steady state");

    let mut h = Harness::new();
    let mut co = CoalescingEngine::new(9, 2);
    let mut now = 0u64;
    let mut drive_co = |h: &mut Harness, e: &mut CoalescingEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_co(&mut h, &mut co, WARM_ROUNDS);
    let n = count_allocs(|| drive_co(&mut h, &mut co, MEASURED_ROUNDS));
    assert_eq!(
        n, 0,
        "coalescing persist allocated {n} times in steady state"
    );

    // ---- Phase 3: the NVM device and the crypto engines. ----------
    // The engine phases above run with ideal metadata and barely touch
    // the device's banks. Here reads book at the present clock and
    // writes ahead of it, ~1600 cycles apart per bank, so every bank
    // holds more than the 1024-reservation trim threshold of a
    // 2M-cycle window: the warm-up grows each schedule to its peak, and
    // the measured burst books and trims against a full one.
    let mut nvm = NvmDevice::new(NvmConfig::paper_default());
    let (mut rng, mut now) = (7u64, 0u64);
    let mut drive_nvm = |nvm: &mut NvmDevice, commands: u64| {
        for i in 0..commands {
            now += 100;
            let draw = splitmix64(&mut rng);
            let addr = BlockAddr::new(i * 7 % 8192);
            if draw.is_multiple_of(4) {
                let _ = nvm.read(Cycle::new(now), addr);
            } else {
                let _ = nvm.write(Cycle::new(now + (draw >> 32) % 20_000), addr);
            }
        }
    };
    drive_nvm(&mut nvm, 60_000);
    let n = count_allocs(|| drive_nvm(&mut nvm, 60_000));
    assert_eq!(n, 0, "NVM device allocated {n} times in steady state");

    let (ctr, mac) = (
        CtrEngine::new(SipKey::new(3, 5)),
        MacEngine::new(SipKey::new(3, 5)),
    );
    let mut block = DataBlock::from_u64(1);
    let n = count_allocs(|| {
        for i in 0..4_096u64 {
            let (addr, counter) = (BlockAddr::new(i), CounterValue::new(i, (i % 128) as u8));
            block = ctr.encrypt(block, addr, counter);
            let tag = mac.compute(&block, addr, counter);
            block = DataBlock::from_u64(block.as_u64() ^ tag.raw());
        }
    });
    assert_eq!(n, 0, "CTR + MAC allocated {n} times in steady state");

    // ---- Phase 4: the data hierarchy and the metadata caches. -----
    // The engine phases run with ideal metadata, which never touches a
    // cache. Here a set reserves its ways on its first line, so the
    // warm-up streams more distinct blocks than the hierarchy holds
    // (and more than each metadata cache holds) to fill every set of
    // every level. Loads, write-through stores and metadata lookups
    // then allocate nothing; write-back stores allocate exactly once
    // per write-back they return (the outcome's `Vec`).
    let mut hier = Hierarchy::paper_default(4 << 20);
    let mut meta = MetadataCaches::new(128 << 10, false);
    let lines: u64 = hier
        .levels()
        .iter()
        .map(|c| c.config().lines() as u64)
        .sum();
    for i in 0..lines + lines / 4 {
        hier.load(BlockAddr::new(i));
    }
    for i in 0..8_192u64 {
        meta.access_counter(i, true);
        meta.access_mac(BlockAddr::new(i * 8), true);
        meta.access_bmt(NodeLabel::new(i * 8), true);
    }
    assert!(hier
        .levels()
        .iter()
        .all(|c| c.resident() == c.config().lines()));

    let mut writebacks = 0usize;
    let n = count_allocs(|| {
        for i in 0..50_000u64 {
            writebacks += hier
                .load(BlockAddr::new(2 * lines + i))
                .memory_writebacks
                .len();
            let store = BlockAddr::new(i * 7 % (3 * lines));
            writebacks += hier
                .store(store, WriteMode::WriteThrough)
                .memory_writebacks
                .len();
            meta.access_counter(i % 5_000, i % 3 == 0);
            meta.access_mac(BlockAddr::new(i * 3 % 40_000), true);
            meta.access_bmt(NodeLabel::new(i * 11 % 30_000), false);
        }
    });
    assert_eq!(writebacks, 0, "a clean hierarchy wrote back");
    assert_eq!(
        n, 0,
        "loads, write-through stores and metadata lookups allocated {n} times in steady state"
    );

    let n = count_allocs(|| {
        for i in 0..100_000u64 {
            let out = hier.store(BlockAddr::new(4 * lines + i), WriteMode::WriteBack);
            writebacks += out.memory_writebacks.len();
        }
    });
    // The first `lines` dirty blocks push clean lines out; every later
    // store pushes one dirty block out of L3.
    assert_eq!(writebacks as u64, 100_000 - lines);
    assert_eq!(
        n, writebacks as u64,
        "write-back stores allocated {n} times for {writebacks} write-backs"
    );

    // ---- Phase 5: the durable sink. -------------------------------
    // The sink builds each payload and encodes each frame in a reused
    // buffer, so what a sink-attached run allocates beyond the same run
    // without a sink (the file, the buffers' first growth) does not
    // grow with the number of frames appended. Both runs arm a
    // failpoint that never fires: a sink or an armed registry makes
    // the simulation read the root at every tuple, which changes how
    // far its lazily committed tree's queues grow, so the baseline
    // must read it too.
    let path = std::env::temp_dir().join(format!("plp-alloc-budget-{}.img", std::process::id()));
    let profile = spec::benchmark("gcc").unwrap();
    let inert = || {
        FailpointRegistry::observe(FailpointPlan {
            point: Failpoint::MidTuple,
            hit: u64::MAX,
        })
    };
    for scheme in [
        UpdateScheme::Unordered,
        UpdateScheme::Sp,
        UpdateScheme::Pipeline,
        UpdateScheme::O3,
        UpdateScheme::Coalescing,
        UpdateScheme::TriadNvm,
        UpdateScheme::Phoenix,
    ] {
        let setup = SimSetup::for_profile(SystemConfig::for_scheme(scheme), &profile, 7).unwrap();
        let sink_extra = |instructions: u64| {
            let trace = setup.generate_trace(instructions);
            let plain = count_allocs(|| {
                let mut sim = setup.simulation();
                sim.arm_failpoints(inert());
                drop(sim.run_with_state(&trace));
            });
            let with_sink = count_allocs(|| {
                let mut sim = setup.simulation();
                sim.arm_failpoints(inert());
                sim.attach_durable_sink(DurableSink::create(&path, setup.config(), 7).unwrap());
                drop(sim.run_with_state(&trace));
            });
            with_sink - plain
        };
        let (short, long) = (sink_extra(2_000), sink_extra(8_000));
        assert_eq!(
            short, long,
            "{scheme}: a sink-attached run allocated {short} times more than a plain one at \
             2 000 instructions and {long} more at 8 000 — appends must not allocate"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
