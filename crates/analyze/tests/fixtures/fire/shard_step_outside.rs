//@ path: crates/core/src/fx_shard_step.rs
//! L007 mutant: library code outside the sharded coordinator drives a
//! shard's stepping API directly, bypassing the root-of-roots barrier.

pub fn replay(sim: &mut Simulation, addrs: &[BlockAddr]) {
    for &addr in addrs {
        sim.step_load(addr, Cycle::ZERO); //~ ERROR no-cross-shard-state PLP-L007
    }
}
