//@ path: crates/bench/src/fx_retry.rs
//! L004 mutant: a library loop counting its own attempts instead of
//! taking its schedule from `plp_core::retry::RetryPolicy`.

pub fn flush(dev: &mut Device) -> bool {
    let mut attempt = 0;
    while !dev.flush() && attempt < 3 { //~ ERROR no-bare-retry-loop PLP-L004
        attempt += 1;
    }
    attempt < 3
}
