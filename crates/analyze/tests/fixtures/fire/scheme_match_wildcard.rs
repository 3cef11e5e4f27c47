//@ path: crates/core/src/fx_scheme.rs
//! L002 mutant: a `match` over the update scheme whose wildcard arm
//! would silently absorb the next scheme someone adds.

pub fn walk_cost(scheme: UpdateScheme) -> u64 {
    match scheme {
        UpdateScheme::Sp => 8,
        UpdateScheme::O3 => 2,
        _ => 1, //~ ERROR scheme-match-wildcard PLP-L002
    }
}
