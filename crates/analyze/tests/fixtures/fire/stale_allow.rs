//@ path: crates/core/src/fx_allow.rs
//! A002/A003 mutants: an allow directive suppressing nothing, and
//! one naming a rule that does not exist.

// lint: allow(no-node-hashmap) nothing keyed by label below anymore //~ ERROR unused-allow PLP-A002
pub fn calm() -> u64 {
    7
}

// lint: allow(no-such-rule) typo in the rule name //~ ERROR unused-allow PLP-A003
pub fn fine() -> u64 {
    9
}
