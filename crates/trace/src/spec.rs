//! The 15 SPEC CPU2006 benchmark profiles the paper evaluates,
//! calibrated to Table V.
//!
//! Persist rates (`store_ppki_full`, `store_ppki_nonstack`) are the
//! paper's published Table V columns verbatim. The remaining knobs are
//! synthesized, since the paper does not publish them:
//!
//! * `base_ipc` — only gamess's 2.45 is quoted (§VII); the rest are
//!   chosen from typical SPEC2006 single-core behaviour (memory-bound
//!   codes like milc/leslie3d/bwaves low, compute-dense codes like
//!   gamess/h264ref/povray high) and scaled so the strict-persistency
//!   overhead distribution matches Fig. 8's range (~2× to ~45×, geomean
//!   ≈ 7×).
//! * `store_repeat_fraction` — set to `1 − o3_ppki / sp_ppki` from
//!   Table V, so that unique-blocks-per-epoch (and hence the o3/epoch
//!   PPKI column) is reproduced by construction.
//! * `footprint_pages` — scaled with the Table V write-back PPKI column
//!   (streaming codes overflow the 4 MB LLC; resident codes do not).
//! * `page_run_len` — longer sequential runs for streaming FP codes.

use crate::WorkloadProfile;

/// Raw per-benchmark calibration record. One row per Table V entry.
struct SpecRow {
    name: &'static str,
    /// Table V: all stores PPKI (`sp_full`).
    sp_full: f64,
    /// Table V: LLC write-backs PPKI (`secure_WB full`).
    wb_full: f64,
    /// Table V: non-stack stores PPKI (`sp`).
    sp: f64,
    /// Table V: epoch stores PPKI at epoch 32 (`o3`).
    o3: f64,
    /// Synthesized baseline IPC (gamess's 2.45 is from the paper).
    ipc: f64,
    /// Synthesized mean sequential run length within a page.
    run: f64,
}

const ROWS: &[SpecRow] = &[
    SpecRow {
        name: "astar",
        sp_full: 83.48,
        wb_full: 0.35,
        sp: 13.21,
        o3: 1.97,
        ipc: 0.80,
        run: 6.0,
    },
    SpecRow {
        name: "bwaves",
        sp_full: 100.27,
        wb_full: 8.70,
        sp: 61.60,
        o3: 26.47,
        ipc: 0.40,
        run: 32.0,
    },
    SpecRow {
        name: "cactusADM",
        sp_full: 114.59,
        wb_full: 1.55,
        sp: 12.35,
        o3: 5.68,
        ipc: 0.70,
        run: 16.0,
    },
    SpecRow {
        name: "gamess",
        sp_full: 100.72,
        wb_full: 0.00,
        sp: 51.38,
        o3: 30.43,
        ipc: 2.45,
        run: 8.0,
    },
    SpecRow {
        name: "gcc",
        sp_full: 126.73,
        wb_full: 1.46,
        sp: 67.38,
        o3: 36.64,
        ipc: 0.60,
        run: 6.0,
    },
    SpecRow {
        name: "gobmk",
        sp_full: 125.16,
        wb_full: 0.17,
        sp: 34.41,
        o3: 14.63,
        ipc: 0.80,
        run: 4.0,
    },
    SpecRow {
        name: "gromacs",
        sp_full: 105.73,
        wb_full: 0.04,
        sp: 9.66,
        o3: 2.69,
        ipc: 1.50,
        run: 8.0,
    },
    SpecRow {
        name: "h264ref",
        sp_full: 101.17,
        wb_full: 0.00,
        sp: 48.80,
        o3: 10.45,
        ipc: 1.00,
        run: 12.0,
    },
    SpecRow {
        name: "leslie3d",
        sp_full: 108.79,
        wb_full: 7.78,
        sp: 58.47,
        o3: 17.58,
        ipc: 0.50,
        run: 32.0,
    },
    SpecRow {
        name: "milc",
        sp_full: 40.18,
        wb_full: 2.00,
        sp: 13.65,
        o3: 4.10,
        ipc: 0.30,
        run: 16.0,
    },
    SpecRow {
        name: "namd",
        sp_full: 133.10,
        wb_full: 0.18,
        sp: 19.66,
        o3: 2.07,
        ipc: 0.90,
        run: 8.0,
    },
    SpecRow {
        name: "povray",
        sp_full: 150.72,
        wb_full: 0.00,
        sp: 39.23,
        o3: 11.22,
        ipc: 1.00,
        run: 6.0,
    },
    SpecRow {
        name: "sphinx3",
        sp_full: 184.29,
        wb_full: 0.10,
        sp: 4.87,
        o3: 1.04,
        ipc: 0.90,
        run: 8.0,
    },
    SpecRow {
        name: "tonto",
        sp_full: 141.84,
        wb_full: 0.00,
        sp: 34.45,
        o3: 16.60,
        ipc: 0.80,
        run: 8.0,
    },
    SpecRow {
        name: "zeusmp",
        sp_full: 175.87,
        wb_full: 1.92,
        sp: 19.87,
        o3: 4.66,
        ipc: 0.70,
        run: 16.0,
    },
];

fn profile_from(row: &SpecRow) -> WorkloadProfile {
    // Unique-block fraction per epoch observed by the paper; a store
    // re-targets a recent block with the complementary probability.
    // The 1.28 factor corrects for repeats that land across an epoch
    // boundary (they count as unique in their epoch even though they
    // re-target a recent block); it was fitted so the measured
    // epoch-store PPKI at epoch size 32 reproduces Table V's o3 column.
    let repeat = (1.0 - (row.o3 / row.sp.max(1e-9)) / 1.28).clamp(0.0, 0.95);
    // Footprints: resident codes stay near 1 MB (256 pages); each
    // write-back PPKI point adds roughly 4 MB of streamed footprint.
    let footprint = 256 + (row.wb_full * 1024.0) as u64;
    WorkloadProfile::builder(row.name)
        .base_ipc(row.ipc)
        .store_ppki(row.sp_full, row.sp)
        .load_ppki(150.0)
        .locality(repeat, footprint, row.run)
        .paper_reference(row.o3, row.wb_full)
        .build()
}

/// All 15 benchmark profiles, in the paper's order.
///
/// # Example
///
/// ```
/// let all = plp_trace::spec::all_benchmarks();
/// assert_eq!(all.len(), 15);
/// assert_eq!(all[0].name, "astar");
/// ```
pub fn all_benchmarks() -> Vec<WorkloadProfile> {
    ROWS.iter().map(profile_from).collect()
}

/// Looks up one benchmark profile by name (case-sensitive, as the
/// paper spells them, e.g. `"cactusADM"`).
///
/// # Example
///
/// ```
/// let gamess = plp_trace::spec::benchmark("gamess").unwrap();
/// assert!((gamess.base_ipc - 2.45).abs() < 1e-12); // quoted in §VII
/// assert!(plp_trace::spec::benchmark("nonesuch").is_none());
/// ```
pub fn benchmark(name: &str) -> Option<WorkloadProfile> {
    ROWS.iter().find(|r| r.name == name).map(profile_from)
}

/// The paper's Table V reference values for a benchmark:
/// `(sp_full, secure_wb_full, sp, o3)` PPKI columns.
pub fn table5_reference(name: &str) -> Option<(f64, f64, f64, f64)> {
    ROWS.iter()
        .find(|r| r.name == name)
        .map(|r| (r.sp_full, r.wb_full, r.sp, r.o3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_benchmarks() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 15);
        let names: Vec<_> = all.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"gamess"));
        assert!(names.contains(&"zeusmp"));
    }

    #[test]
    fn table5_averages_match_paper() {
        // The paper quotes averages 119.51 / 1.61 / 32.60 / 12.41.
        let all = all_benchmarks();
        let n = all.len() as f64;
        let avg_full: f64 = all.iter().map(|p| p.store_ppki_full).sum::<f64>() / n;
        let avg_sp: f64 = all.iter().map(|p| p.store_ppki_nonstack).sum::<f64>() / n;
        let avg_o3: f64 = all.iter().filter_map(|p| p.paper_epoch_ppki).sum::<f64>() / n;
        let avg_wb: f64 = all
            .iter()
            .filter_map(|p| p.paper_writeback_ppki)
            .sum::<f64>()
            / n;
        assert!((avg_full - 119.51).abs() < 0.2, "got {avg_full}");
        assert!((avg_sp - 32.60).abs() < 0.2, "got {avg_sp}");
        assert!((avg_o3 - 12.41).abs() < 0.2, "got {avg_o3}");
        assert!((avg_wb - 1.61).abs() < 0.2, "got {avg_wb}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("cactusADM").is_some());
        assert!(benchmark("CactusADM").is_none());
        let (full, wb, sp, o3) = table5_reference("gcc").unwrap();
        assert_eq!((full, wb, sp, o3), (126.73, 1.46, 67.38, 36.64));
    }

    #[test]
    fn repeat_fraction_tracks_epoch_ratio() {
        let astar = benchmark("astar").unwrap();
        // 1 - (1.97/13.21)/1.28 = 0.8835
        assert!((astar.store_repeat_fraction - 0.8835).abs() < 1e-3);
        let gamess = benchmark("gamess").unwrap();
        assert!((gamess.store_repeat_fraction - (1.0 - (30.43 / 51.38) / 1.28)).abs() < 1e-9);
        // Higher-locality paper ratio -> higher repeat fraction.
        let namd = benchmark("namd").unwrap();
        assert!(namd.store_repeat_fraction > astar.store_repeat_fraction);
    }

    #[test]
    fn streaming_codes_have_large_footprints() {
        let bwaves = benchmark("bwaves").unwrap();
        let gamess = benchmark("gamess").unwrap();
        assert!(bwaves.footprint_pages > 8 * gamess.footprint_pages);
    }
}
