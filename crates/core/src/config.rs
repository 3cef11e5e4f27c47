//! System configuration: every knob the paper's evaluation sweeps.

use plp_bmt::BmtGeometry;
use plp_crypto::SipKey;
use plp_events::Cycle;
use plp_nvm::NvmConfig;

use crate::sanitizer::SanitizerMode;
use crate::ConfigError;

/// Which BMT update mechanism the security engine uses — the six
/// schemes of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateScheme {
    /// `secure_WB`: write-back caches, no persistency model. LLC dirty
    /// evictions update the BMT sequentially. The normalization
    /// baseline.
    SecureWb,
    /// `unordered`: write-through persists without Invariant 2 (no BMT
    /// root-update ordering) — the paper's deliberately broken
    /// strawman. Fast but NOT crash-recovery correct. (The actual
    /// relaxed-tree design from the related literature is modeled by
    /// [`UpdateScheme::TriadNvm`], which persists a strict lower slice
    /// of the tree instead of nothing.)
    Unordered,
    /// `sp`: strict persistency with fully sequential leaf-to-root
    /// updates per persist.
    Sp,
    /// `pipeline`: strict persistency with PLP mechanism 1 — in-order
    /// pipelined BMT updates through the PTT.
    Pipeline,
    /// `o3`: epoch persistency with PLP mechanism 2 — out-of-order
    /// updates within an epoch, in-order (pipelined) across epochs via
    /// the ETT.
    O3,
    /// `coalescing`: `o3` plus PLP mechanism 3 — LCA update coalescing.
    Coalescing,
    /// `sp_ctree`: strict persistency over an SGX-style counter tree —
    /// the §V-D extension, where the *whole* update path must persist
    /// instead of just the root. Not part of the paper's Table IV; it
    /// quantifies why the paper sticks to Bonsai Merkle Trees.
    SpCounterTree,
    /// `triad_nvm`: relaxed tree-level persistence from the related
    /// literature — each persist strictly updates the leaf plus the
    /// [`SystemConfig::triad_persisted_levels`] deepest BMT levels and
    /// leaves everything above (root included) to the metadata cache,
    /// flushed lazily. Runtime sits between `unordered` and `sp`;
    /// recovery only rebuilds the small un-persisted upper slice. A
    /// crash inside the lazy-flush window strands the data/counter
    /// pair without its MAC, so losses are always *detected* (never
    /// silent), and only above the persisted level.
    TriadNvm,
    /// `phoenix`: a persistently secure counter tree with a dual-copy
    /// (shadow) root commit, from the related literature. Every node
    /// of the update path is written through to NVM and the root is
    /// committed twice (working + shadow copy), so recovery rebuilds
    /// nothing — the highest runtime in the zoo buys near-instant,
    /// size-independent recovery.
    Phoenix,
}

impl UpdateScheme {
    /// All schemes, in the paper's Table IV order.
    pub fn all() -> [UpdateScheme; 6] {
        [
            UpdateScheme::SecureWb,
            UpdateScheme::Unordered,
            UpdateScheme::Sp,
            UpdateScheme::Pipeline,
            UpdateScheme::O3,
            UpdateScheme::Coalescing,
        ]
    }

    /// Table IV's schemes plus this repo's §V-D counter-tree
    /// extension and the related-literature zoo.
    pub fn all_extended() -> [UpdateScheme; 9] {
        [
            UpdateScheme::SecureWb,
            UpdateScheme::Unordered,
            UpdateScheme::Sp,
            UpdateScheme::Pipeline,
            UpdateScheme::O3,
            UpdateScheme::Coalescing,
            UpdateScheme::SpCounterTree,
            UpdateScheme::TriadNvm,
            UpdateScheme::Phoenix,
        ]
    }

    /// The related-literature schemes (ROADMAP item 2's zoo): designs
    /// that trade runtime overhead against recovery latency, measured
    /// on this harness because no single paper ever could.
    pub fn zoo() -> [UpdateScheme; 2] {
        [UpdateScheme::TriadNvm, UpdateScheme::Phoenix]
    }

    /// The strict-persistency comparison schemes (Fig. 8): every
    /// write-through per-store scheme over the BMT, the unordered
    /// strawman included.
    pub fn strict() -> [UpdateScheme; 3] {
        [
            UpdateScheme::Unordered,
            UpdateScheme::Sp,
            UpdateScheme::Pipeline,
        ]
    }

    /// The epoch-persistency schemes (Fig. 10).
    pub fn epoch() -> [UpdateScheme; 2] {
        [UpdateScheme::O3, UpdateScheme::Coalescing]
    }

    /// Every persisting scheme the evaluation measures against the
    /// `secure_WB` baseline: [`UpdateScheme::strict`] then
    /// [`UpdateScheme::epoch`], in Table IV order.
    pub fn persisting() -> [UpdateScheme; 5] {
        [
            UpdateScheme::Unordered,
            UpdateScheme::Sp,
            UpdateScheme::Pipeline,
            UpdateScheme::O3,
            UpdateScheme::Coalescing,
        ]
    }

    /// The crash-recovery-correct persisting schemes — the ones that
    /// enforce Invariant 2 (or, for `phoenix`, persist the whole tree)
    /// and must pass the fault sweeps with no loss at any crash point.
    pub fn correct() -> [UpdateScheme; 5] {
        [
            UpdateScheme::Sp,
            UpdateScheme::Pipeline,
            UpdateScheme::O3,
            UpdateScheme::Coalescing,
            UpdateScheme::Phoenix,
        ]
    }

    /// The paper's name for the scheme.
    pub fn name(self) -> &'static str {
        match self {
            UpdateScheme::SecureWb => "secure_WB",
            UpdateScheme::Unordered => "unordered",
            UpdateScheme::Sp => "sp",
            UpdateScheme::Pipeline => "pipeline",
            UpdateScheme::O3 => "o3",
            UpdateScheme::Coalescing => "coalescing",
            UpdateScheme::SpCounterTree => "sp_ctree",
            UpdateScheme::TriadNvm => "triad_nvm",
            UpdateScheme::Phoenix => "phoenix",
        }
    }

    /// Parses a [`UpdateScheme::name`] rendering.
    pub fn parse(name: &str) -> Option<Self> {
        Self::all_extended().into_iter().find(|s| s.name() == name)
    }

    /// Whether the scheme persists stores through epochs (epoch
    /// persistency) rather than one by one (strict persistency).
    pub fn is_epoch_based(self) -> bool {
        matches!(self, UpdateScheme::O3 | UpdateScheme::Coalescing)
    }

    /// Whether every store is persisted individually and synchronously
    /// ordered (the strict-persistency family, plus the unordered
    /// strawman which persists per-store but skips root ordering).
    pub fn is_store_persisting(self) -> bool {
        matches!(
            self,
            UpdateScheme::Sp
                | UpdateScheme::Pipeline
                | UpdateScheme::Unordered
                | UpdateScheme::SpCounterTree
                | UpdateScheme::TriadNvm
                | UpdateScheme::Phoenix
        )
    }
}

impl std::fmt::Display for UpdateScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which memory regions persist (Table IV's `_full` suffix).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionScope {
    /// Persist only non-stack stores (the paper's default: heap and
    /// static/global regions).
    #[default]
    NonStack,
    /// Persist every store, stack included (`_full`).
    Full,
}

/// Full system configuration (Table III defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// BMT update scheme.
    pub scheme: UpdateScheme,
    /// Which stores persist.
    pub scope: ProtectionScope,
    /// MAC/hash unit latency in cycles (Table III default 40; Fig. 9
    /// sweeps {0, 20, 40, 80}).
    pub mac_latency: Cycle,
    /// Ideal metadata caches: never miss, zero-latency MAC (Fig. 9's
    /// `MDC` configuration).
    pub ideal_metadata: bool,
    /// Epoch size in stores (Table III default 32; Figs. 11–12 sweep
    /// 4..256).
    pub epoch_size: usize,
    /// Write-pending-queue entries (default 32; §VII sweeps 4..64).
    pub wpq_entries: usize,
    /// Persist-tracking-table entries (default 64).
    pub ptt_entries: usize,
    /// Epoch-tracking-table entries: concurrent epochs (default 2).
    pub ett_entries: usize,
    /// Last-level-cache capacity in bytes (default 4 MB; §VII sweeps
    /// 1–4 MB).
    pub llc_bytes: usize,
    /// Capacity of each metadata cache (counter/MAC/BMT) in bytes
    /// (default 128 KB; §VII sweeps 32–256 KB).
    pub metadata_cache_bytes: usize,
    /// BMT shape (default 8-ary, 9 levels — the paper's stated
    /// update-path length for 8 GB).
    pub bmt: BmtGeometry,
    /// How many of the *deepest* tree levels (the leaf level included)
    /// [`UpdateScheme::TriadNvm`] persists strictly; everything above
    /// is relaxed into the metadata cache. Default 3. Must be at least
    /// 1 and leave at least one relaxed level (`< bmt.levels()`).
    /// Ignored by every other scheme.
    pub triad_persisted_levels: u32,
    /// NVM device parameters (Table III).
    pub nvm: NvmConfig,
    /// Master key for the functional crypto.
    pub key: SipKey,
    /// Keep full per-persist records for crash-recovery analysis
    /// (memory-heavy; enable for tests, disable for long sweeps).
    pub record_persists: bool,
    /// Invariant sanitizer mode (default: on). The shadow verifier
    /// checks Invariants 1 and 2 plus WAW safety on every persist
    /// event; it observes timing without ever changing it, so turning
    /// it off alters only wall-clock cost, never results.
    pub sanitizer: SanitizerMode,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            scheme: UpdateScheme::SecureWb,
            scope: ProtectionScope::NonStack,
            mac_latency: Cycle::new(40),
            ideal_metadata: false,
            epoch_size: 32,
            wpq_entries: 32,
            ptt_entries: 64,
            ett_entries: 2,
            llc_bytes: 4 << 20,
            metadata_cache_bytes: 128 << 10,
            bmt: BmtGeometry::new(8, 9),
            triad_persisted_levels: 3,
            nvm: NvmConfig::paper_default(),
            key: SipKey::new(0x504c505f4b455930, 0x504c505f4b455931),
            record_persists: false,
            sanitizer: SanitizerMode::default(),
        }
    }
}

impl SystemConfig {
    /// A configuration for `scheme` with all other knobs at paper
    /// defaults.
    pub fn for_scheme(scheme: UpdateScheme) -> Self {
        SystemConfig {
            scheme,
            ..SystemConfig::default()
        }
    }

    /// Validates cross-field constraints, including the embedded NVM
    /// device configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epoch_size == 0 {
            return Err(ConfigError::EpochSizeZero);
        }
        if self.wpq_entries == 0 {
            return Err(ConfigError::EmptyTable { table: "WPQ" });
        }
        if self.ptt_entries == 0 {
            return Err(ConfigError::EmptyTable { table: "PTT" });
        }
        if self.ett_entries == 0 {
            return Err(ConfigError::EmptyTable { table: "ETT" });
        }
        if self.scheme == UpdateScheme::TriadNvm
            && (self.triad_persisted_levels == 0
                || self.triad_persisted_levels >= self.bmt.levels())
        {
            return Err(ConfigError::TriadLevels {
                persisted: self.triad_persisted_levels,
                levels: self.bmt.levels(),
            });
        }
        self.nvm.validate()?;
        Ok(())
    }

    /// The shallowest BMT level `triad_nvm` persists strictly (level 1
    /// is the root, `bmt.levels()` the leaves): levels `floor..=leaf`
    /// are durable per persist, levels `1..floor` are relaxed.
    pub fn triad_floor(&self) -> u32 {
        self.bmt
            .levels()
            .saturating_sub(self.triad_persisted_levels)
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let c = SystemConfig::default();
        assert_eq!(c.mac_latency, Cycle::new(40));
        assert_eq!(c.epoch_size, 32);
        assert_eq!(c.wpq_entries, 32);
        assert_eq!(c.ptt_entries, 64);
        assert_eq!(c.ett_entries, 2);
        assert_eq!(c.llc_bytes, 4 << 20);
        assert_eq!(c.metadata_cache_bytes, 128 << 10);
        assert_eq!(c.bmt.levels(), 9);
        assert_eq!(c.sanitizer, SanitizerMode::Check, "sanitizer defaults on");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scheme_names_match_table4() {
        let names: Vec<_> = UpdateScheme::all().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "secure_WB",
                "unordered",
                "sp",
                "pipeline",
                "o3",
                "coalescing"
            ]
        );
    }

    #[test]
    fn scheme_classification() {
        use UpdateScheme::*;
        assert!(O3.is_epoch_based() && Coalescing.is_epoch_based());
        assert!(!Sp.is_epoch_based());
        assert!(Sp.is_store_persisting() && Pipeline.is_store_persisting());
        assert!(Unordered.is_store_persisting());
        assert!(!SecureWb.is_store_persisting());
        assert!(TriadNvm.is_store_persisting() && Phoenix.is_store_persisting());
        assert!(!TriadNvm.is_epoch_based() && !Phoenix.is_epoch_based());
        assert_eq!(Coalescing.to_string(), "coalescing");
        assert_eq!(TriadNvm.to_string(), "triad_nvm");
        assert_eq!(Phoenix.to_string(), "phoenix");
        assert_eq!(UpdateScheme::parse("triad_nvm"), Some(TriadNvm));
        assert_eq!(UpdateScheme::parse("phoenix"), Some(Phoenix));
    }

    #[test]
    fn scheme_families_partition_consistently() {
        // persisting = strict ++ epoch, in Table IV order; all = the
        // baseline plus persisting; correct = persisting minus the
        // unordered strawman.
        let persisting: Vec<_> = UpdateScheme::strict()
            .into_iter()
            .chain(UpdateScheme::epoch())
            .collect();
        assert_eq!(persisting, UpdateScheme::persisting().to_vec());
        let all: Vec<_> = std::iter::once(UpdateScheme::SecureWb)
            .chain(UpdateScheme::persisting())
            .collect();
        assert_eq!(all, UpdateScheme::all().to_vec());
        // correct = (persisting minus the unordered strawman) plus the
        // zoo's fully-persistent phoenix; triad_nvm stays out — its
        // relaxed levels admit (detected) loss above the floor.
        let correct: Vec<_> = UpdateScheme::persisting()
            .into_iter()
            .filter(|s| *s != UpdateScheme::Unordered)
            .chain(std::iter::once(UpdateScheme::Phoenix))
            .collect();
        assert_eq!(correct, UpdateScheme::correct().to_vec());
        // all_extended = all ++ [sp_ctree] ++ zoo.
        let extended: Vec<_> = UpdateScheme::all()
            .into_iter()
            .chain(std::iter::once(UpdateScheme::SpCounterTree))
            .chain(UpdateScheme::zoo())
            .collect();
        assert_eq!(extended, UpdateScheme::all_extended().to_vec());
        assert!(!UpdateScheme::correct().contains(&UpdateScheme::TriadNvm));
    }

    #[test]
    fn triad_floor_splits_the_tree() {
        let mut c = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
        assert!(c.validate().is_ok());
        // Default 9-level tree, 3 persisted levels: floor at level 7,
        // so levels 7..=9 are durable and 1..=6 relaxed.
        assert_eq!(c.triad_floor(), 7);
        c.triad_persisted_levels = 0;
        assert!(matches!(c.validate(), Err(ConfigError::TriadLevels { .. })));
        c.triad_persisted_levels = 9;
        assert!(matches!(c.validate(), Err(ConfigError::TriadLevels { .. })));
        // Other schemes ignore the knob entirely.
        let c = SystemConfig {
            triad_persisted_levels: 0,
            ..SystemConfig::for_scheme(UpdateScheme::Sp)
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let c = SystemConfig {
            epoch_size: 0,
            ..SystemConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::EpochSizeZero));
        let c = SystemConfig {
            wpq_entries: 0,
            ..SystemConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::EmptyTable { table: "WPQ" }));
        let c = SystemConfig {
            ett_entries: 0,
            ..SystemConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::EmptyTable { table: "ETT" }));
    }

    #[test]
    fn validation_covers_the_nvm_device() {
        let mut c = SystemConfig::default();
        c.nvm.banks = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Nvm(plp_nvm::NvmError::ZeroBanks))
        ));
    }
}
