//! Functional security-metadata models for secure NVMM.
//!
//! This crate implements, from scratch, the three cryptographic
//! mechanisms the paper's secure-memory model relies on (§II):
//!
//! * **Counter-mode encryption** ([`CtrEngine`]) with the seed
//!   `(address, counter)` for spatial/temporal pad uniqueness;
//! * **Split counters** ([`CounterBlock`]) — one 64-bit major counter
//!   per 4 KiB page co-located with 64 seven-bit minor counters, with
//!   page-overflow semantics;
//! * **Stateful MACs** ([`MacEngine`]) over
//!   `(ciphertext, address, counter)`, the construction that lets a
//!   Bonsai Merkle Tree cover only counters.
//!
//! All three are built on one keyed PRF: a from-scratch, test-vector
//! verified [SipHash-2-4](SipKey) implementation. Timing (MAC latency
//! etc.) is modelled separately by the engine crates; this crate is the
//! *functional* layer that makes tampering, verification failure and
//! crash-recovery checks real rather than mocked.
//!
//! # Example: the full write-back transformation
//!
//! ```
//! use plp_crypto::{CounterBlock, CtrEngine, DataBlock, MacEngine, SipKey};
//! use plp_events::addr::BlockAddr;
//!
//! let master = SipKey::new(0xfeed, 0xbead);
//! let enc = CtrEngine::new(master);
//! let mac = MacEngine::new(master);
//!
//! let addr = BlockAddr::new(1234);
//! let mut counters = CounterBlock::new();
//!
//! // A store persists: bump the counter, encrypt, MAC.
//! let gamma = counters.bump(addr.slot_in_page()).value();
//! let plain = DataBlock::from_u64(42);
//! let cipher = enc.encrypt(plain, addr, gamma);
//! let tag = mac.compute(&cipher, addr, gamma);
//!
//! // Recovery: verify then decrypt.
//! assert!(mac.verify(&cipher, addr, gamma, tag));
//! assert_eq!(enc.decrypt(cipher, addr, gamma), plain);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]

mod counter;
mod ctr;
mod mac;
mod siphash;

pub use counter::{
    CounterBlock, CounterBump, CounterValue, InvalidCounterBlock, COUNTER_BLOCK_ACCOUNTING_SIZE,
    MINOR_MAX,
};
pub use ctr::{CtrEngine, DataBlock};
pub use mac::{MacEngine, MacTag};
pub use siphash::SipKey;
