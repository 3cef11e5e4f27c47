//! The declarative experiment registry: every table and figure of the
//! paper as an [`ExperimentSpec`] — what runs it needs and how to
//! render them — instead of a hand-rolled binary loop.
//!
//! A spec is two pure functions over [`RunSettings`]: `requests`
//! declares the `(benchmark, config)` runs the artefact is computed
//! from, and `render` turns the keyed [`ResultSet`] into the exact
//! text the artefact prints. The split is what buys the harness its
//! speed: the [`crate::matrix`] executes the union of every spec's
//! requests once — deduplicated, in parallel, through the run cache —
//! and rendering stays deterministic because it never runs anything.

use std::fmt::Write as _;

use plp_core::{
    run_with_crash, sgx, with_component_lost, with_component_reordered, ObserverExpectation,
    PersistImage, ProtectionScope, RecoveryChecker, RunReport, ShardTopology, SystemConfig,
    TupleComponent, UpdateScheme,
};
use plp_events::stats::geometric_mean;
use plp_events::Cycle;
use plp_trace::{spec, TraceGenerator};

use crate::matrix::{ResultSet, RunRequest};
use crate::{banner_string, RunSettings, SeriesTable};

/// One paper artefact: its identity, the runs it needs and its
/// renderer.
pub struct ExperimentSpec {
    /// Artefact name (`fig8`, `table5`, …): the id `all --only`
    /// selects it by, and the stem of its committed `results/<id>.txt`.
    pub id: &'static str,
    /// Banner title (`Fig. 8`, `Table V`, …).
    pub title: &'static str,
    /// Banner description.
    pub what: &'static str,
    /// Settings adjustment (e.g. the crash tables clamp instruction
    /// count because per-persist records are memory-heavy).
    pub adjust: fn(RunSettings) -> RunSettings,
    /// The matrix runs the artefact needs at the given (already
    /// adjusted) settings.
    pub requests: fn(RunSettings) -> Vec<RunRequest>,
    /// Renders the artefact body (everything after the banner) from
    /// the executed matrix.
    pub render: fn(&ResultSet, RunSettings) -> String,
}

impl ExperimentSpec {
    /// This spec's effective settings for raw command-line settings.
    pub fn settings(&self, raw: RunSettings) -> RunSettings {
        (self.adjust)(raw)
    }

    /// The matrix runs this spec needs, at raw command-line settings.
    pub fn runs_needed(&self, raw: RunSettings) -> Vec<RunRequest> {
        (self.requests)(self.settings(raw))
    }

    /// The artefact's complete text: banner plus rendered body, as
    /// `all` prints it (alone under `--only`, or as one blank-line
    /// separated section of the full run).
    pub fn output(&self, results: &ResultSet, raw: RunSettings) -> String {
        let s = self.settings(raw);
        format!(
            "{}{}",
            banner_string(self.title, self.what, s),
            (self.render)(results, s)
        )
    }
}

/// Every registered artefact, in `all`-binary output order.
pub fn all_specs() -> &'static [ExperimentSpec] {
    &ALL_SPECS
}

/// Looks an artefact up by id.
pub fn find(id: &str) -> Option<&'static ExperimentSpec> {
    ALL_SPECS.iter().find(|s| s.id == id)
}

fn identity(s: RunSettings) -> RunSettings {
    s
}

/// The crash-analysis tables keep full per-persist records, which are
/// memory-heavy — they clamp the instruction count.
fn clamp_for_records(mut s: RunSettings) -> RunSettings {
    s.instructions = s.instructions.min(20_000);
    s
}

fn cfg(scheme: UpdateScheme) -> SystemConfig {
    SystemConfig::for_scheme(scheme)
}

fn scoped(scheme: UpdateScheme, scope: ProtectionScope) -> SystemConfig {
    let mut c = cfg(scheme);
    c.scope = scope;
    c
}

fn req(bench: &str, config: SystemConfig, s: RunSettings) -> RunRequest {
    RunRequest::new(bench, config, s)
}

// ---------------------------------------------------------------- fig8

fn fig8_table(results: &ResultSet, scope: ProtectionScope, s: RunSettings) -> SeriesTable {
    let cols = UpdateScheme::strict().map(|u| u.name());
    let mut table = SeriesTable::new("bench", &cols);
    for profile in spec::all_benchmarks() {
        let base = results.report(&profile.name, &scoped(UpdateScheme::SecureWb, scope), s);
        let row = UpdateScheme::strict()
            .iter()
            .map(|&scheme| {
                results
                    .report(&profile.name, &scoped(scheme, scope), s)
                    .normalized_to(base)
            })
            .collect();
        table.push(&profile.name, row);
    }
    table
}

fn fig8_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for scope in [ProtectionScope::NonStack, ProtectionScope::Full] {
        for profile in spec::all_benchmarks() {
            reqs.push(req(&profile.name, scoped(UpdateScheme::SecureWb, scope), s));
            for scheme in UpdateScheme::strict() {
                reqs.push(req(&profile.name, scoped(scheme, scope), s));
            }
        }
    }
    reqs
}

fn fig8_render(results: &ResultSet, s: RunSettings) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- default scope (non-stack persists)");
    out.push_str(&fig8_table(results, ProtectionScope::NonStack, s).render());
    out.push('\n');
    let _ = writeln!(out, "-- full-memory scope (all stores persist)");
    out.push_str(&fig8_table(results, ProtectionScope::Full, s).render());
    out.push('\n');
    let _ = writeln!(
        out,
        "paper reference gmeans: sp 7.2 (30.7 full), pipeline 2.1 (6.9 full)"
    );
    out
}

// ---------------------------------------------------------------- fig9

const FIG9_MACS: [u64; 4] = [0, 20, 40, 80];

fn fig9_configs() -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for mac in FIG9_MACS {
        let mut c = cfg(UpdateScheme::Sp);
        c.mac_latency = Cycle::new(mac);
        configs.push(c);
    }
    let mut ideal = cfg(UpdateScheme::Sp);
    ideal.ideal_metadata = true;
    configs.push(ideal);
    configs
}

fn fig9_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        reqs.push(req(&profile.name, cfg(UpdateScheme::SecureWb), s));
        for c in fig9_configs() {
            reqs.push(req(&profile.name, c, s));
        }
    }
    reqs
}

fn fig9_render(results: &ResultSet, s: RunSettings) -> String {
    let mut table = SeriesTable::new("bench", &["mac0", "mac20", "mac40", "mac80", "MDC"]);
    for profile in spec::all_benchmarks() {
        let base = results.report(&profile.name, &cfg(UpdateScheme::SecureWb), s);
        let row = fig9_configs()
            .iter()
            .map(|c| results.report(&profile.name, c, s).normalized_to(base))
            .collect();
        table.push(&profile.name, row);
    }
    let mut out = table.render();
    out.push('\n');
    let _ = writeln!(
        out,
        "paper reference: overhead ~ proportional to MAC latency; MDC ~ 1.0"
    );
    out
}

// --------------------------------------------------------------- fig10

fn fig10_table(results: &ResultSet, scope: ProtectionScope, s: RunSettings) -> SeriesTable {
    let cols = UpdateScheme::epoch().map(|u| u.name());
    let mut table = SeriesTable::new("bench", &cols);
    for profile in spec::all_benchmarks() {
        let base = results.report(&profile.name, &scoped(UpdateScheme::SecureWb, scope), s);
        let row = UpdateScheme::epoch()
            .iter()
            .map(|&scheme| {
                results
                    .report(&profile.name, &scoped(scheme, scope), s)
                    .normalized_to(base)
            })
            .collect();
        table.push(&profile.name, row);
    }
    table
}

fn fig10_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for scope in [ProtectionScope::NonStack, ProtectionScope::Full] {
        for profile in spec::all_benchmarks() {
            reqs.push(req(&profile.name, scoped(UpdateScheme::SecureWb, scope), s));
            for scheme in UpdateScheme::epoch() {
                reqs.push(req(&profile.name, scoped(scheme, scope), s));
            }
        }
    }
    reqs
}

fn fig10_render(results: &ResultSet, s: RunSettings) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- default scope (non-stack persists)");
    out.push_str(&fig10_table(results, ProtectionScope::NonStack, s).render());
    out.push('\n');
    let _ = writeln!(out, "-- full-memory scope");
    out.push_str(&fig10_table(results, ProtectionScope::Full, s).render());
    out.push('\n');
    let _ = writeln!(
        out,
        "paper reference gmeans: o3 1.207 (2.42 full), coalescing 1.202 (2.35 full)"
    );
    out
}

// --------------------------------------------------------- fig11/fig12

const EPOCH_SWEEP: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];
const EPOCH_COLUMNS: [&str; 7] = ["ep4", "ep8", "ep16", "ep32", "ep64", "ep128", "ep256"];

fn epoch_cfg(epoch: usize) -> SystemConfig {
    let mut c = cfg(UpdateScheme::Coalescing);
    c.epoch_size = epoch;
    c
}

fn fig11_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        for epoch in EPOCH_SWEEP {
            reqs.push(req(&profile.name, epoch_cfg(epoch), s));
        }
    }
    reqs
}

fn fig11_render(results: &ResultSet, s: RunSettings) -> String {
    let mut table = SeriesTable::new("bench", &EPOCH_COLUMNS);
    for profile in spec::all_benchmarks() {
        let row = EPOCH_SWEEP
            .iter()
            .map(|&epoch| {
                results
                    .report(&profile.name, &epoch_cfg(epoch), s)
                    .persist_ppki()
            })
            .collect();
        table.push(&profile.name, row);
    }
    let mut out = table.precision(2).render();
    out.push('\n');
    let _ = writeln!(
        out,
        "paper reference: monotonically decreasing; Table V's o3 column is ep32"
    );
    out
}

fn fig12_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = fig11_requests(s);
    for profile in spec::all_benchmarks() {
        reqs.push(req(&profile.name, cfg(UpdateScheme::SecureWb), s));
    }
    reqs
}

fn fig12_render(results: &ResultSet, s: RunSettings) -> String {
    let mut table = SeriesTable::new("bench", &EPOCH_COLUMNS);
    for profile in spec::all_benchmarks() {
        let base = results.report(&profile.name, &cfg(UpdateScheme::SecureWb), s);
        let row = EPOCH_SWEEP
            .iter()
            .map(|&epoch| {
                results
                    .report(&profile.name, &epoch_cfg(epoch), s)
                    .normalized_to(base)
            })
            .collect();
        table.push(&profile.name, row);
    }
    let mut out = table.render();
    out.push('\n');
    let _ = writeln!(
        out,
        "paper reference: falling with epoch size, with a late-sweep upturn on some benchmarks"
    );
    out
}

// -------------------------------------------------------------- table5

fn table5_configs() -> [SystemConfig; 4] {
    [
        scoped(UpdateScheme::Sp, ProtectionScope::Full),
        scoped(UpdateScheme::SecureWb, ProtectionScope::Full),
        cfg(UpdateScheme::Sp),
        cfg(UpdateScheme::O3),
    ]
}

fn table5_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        for c in table5_configs() {
            reqs.push(req(&profile.name, c, s));
        }
    }
    reqs
}

fn table5_render(results: &ResultSet, s: RunSettings) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "bench", "sp_full", "(paper)", "wb_full", "(paper)", "sp", "(paper)", "o3", "(paper)"
    );
    let (mut s1, mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0, 0.0);
    let n = spec::all_benchmarks().len() as f64;
    let [full_cfg, wb_cfg, sp_cfg, o3_cfg] = table5_configs();
    for profile in spec::all_benchmarks() {
        #[expect(
            clippy::expect_used,
            reason = "the reference table covers every registered benchmark"
        )]
        let (p_full, p_wb, p_sp, p_o3) =
            spec::table5_reference(&profile.name).expect("known benchmark");
        let full = results.report(&profile.name, &full_cfg, s).persist_ppki();
        let wb_report = results.report(&profile.name, &wb_cfg, s);
        let wb = wb_report.writebacks as f64 * 1000.0 / wb_report.instructions as f64;
        let sp = results.report(&profile.name, &sp_cfg, s).persist_ppki();
        let o3 = results.report(&profile.name, &o3_cfg, s).persist_ppki();
        let _ = writeln!(
            out,
            "{:<11} {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2}",
            profile.name, full, p_full, wb, p_wb, sp, p_sp, o3, p_o3
        );
        s1 += full;
        s2 += wb;
        s3 += sp;
        s4 += o3;
    }
    let _ = writeln!(
        out,
        "{:<11} {:>9.2} {:>9} | {:>9.2} {:>9} | {:>9.2} {:>9} | {:>9.2} {:>9}",
        "average",
        s1 / n,
        "119.51",
        s2 / n,
        "1.61",
        s3 / n,
        "32.60",
        s4 / n,
        "12.41"
    );
    out
}

// ----------------------------------------------------------- §VII sweeps

const WPQ_SWEEP: [usize; 5] = [4, 8, 16, 32, 64];

fn wpq_cfg(entries: usize) -> SystemConfig {
    let mut c = cfg(UpdateScheme::Coalescing);
    c.wpq_entries = entries;
    c
}

fn wpq_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        reqs.push(req(&profile.name, cfg(UpdateScheme::SecureWb), s));
        for entries in WPQ_SWEEP {
            reqs.push(req(&profile.name, wpq_cfg(entries), s));
        }
    }
    reqs
}

fn wpq_render(results: &ResultSet, s: RunSettings) -> String {
    let mut table = SeriesTable::new("bench", &["wpq4", "wpq8", "wpq16", "wpq32", "wpq64"]);
    for profile in spec::all_benchmarks() {
        let base = results.report(&profile.name, &cfg(UpdateScheme::SecureWb), s);
        let row = WPQ_SWEEP
            .iter()
            .map(|&entries| {
                results
                    .report(&profile.name, &wpq_cfg(entries), s)
                    .normalized_to(base)
            })
            .collect();
        table.push(&profile.name, row);
    }
    let mut out = table.render();
    out.push('\n');
    let _ = writeln!(
        out,
        "paper reference: ~12% penalty at 4 entries vs 32; flat at >= 32"
    );
    out
}

const MDC_SWEEP: [usize; 4] = [32, 64, 128, 256];

fn mdc_cfg(kb: usize) -> SystemConfig {
    let mut c = cfg(UpdateScheme::Coalescing);
    c.metadata_cache_bytes = kb << 10;
    c
}

fn mdc_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        reqs.push(req(&profile.name, cfg(UpdateScheme::SecureWb), s));
        for kb in MDC_SWEEP {
            reqs.push(req(&profile.name, mdc_cfg(kb), s));
        }
    }
    reqs
}

fn mdc_render(results: &ResultSet, s: RunSettings) -> String {
    let mut table = SeriesTable::new("bench", &["32KB", "64KB", "128KB", "256KB"]);
    for profile in spec::all_benchmarks() {
        let base = results.report(&profile.name, &cfg(UpdateScheme::SecureWb), s);
        let row = MDC_SWEEP
            .iter()
            .map(|&kb| {
                results
                    .report(&profile.name, &mdc_cfg(kb), s)
                    .normalized_to(base)
            })
            .collect();
        table.push(&profile.name, row);
    }
    let mut out = table.render();
    out.push('\n');
    let _ = writeln!(out, "paper reference: <= ~2% spread across capacities");
    out
}

const LLC_SWEEP: [usize; 3] = [1, 2, 4];

fn llc_cfg(scheme: UpdateScheme, mb: usize) -> SystemConfig {
    let mut c = cfg(scheme);
    c.llc_bytes = mb << 20;
    c
}

fn llc_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        for mb in LLC_SWEEP {
            reqs.push(req(&profile.name, llc_cfg(UpdateScheme::SecureWb, mb), s));
            reqs.push(req(&profile.name, llc_cfg(UpdateScheme::Coalescing, mb), s));
        }
    }
    reqs
}

fn llc_render(results: &ResultSet, s: RunSettings) -> String {
    let mut table = SeriesTable::new("bench", &["llc1MB", "llc2MB", "llc4MB"]);
    for profile in spec::all_benchmarks() {
        let row = LLC_SWEEP
            .iter()
            .map(|&mb| {
                let base = results.report(&profile.name, &llc_cfg(UpdateScheme::SecureWb, mb), s);
                results
                    .report(&profile.name, &llc_cfg(UpdateScheme::Coalescing, mb), s)
                    .normalized_to(base)
            })
            .collect();
        table.push(&profile.name, row);
    }
    let mut out = table.render();
    out.push('\n');
    let _ = writeln!(out, "paper reference: 22.8% (1MB) -> 20.2% (4MB) overhead");
    out
}

// --------------------------------------------------------- sgx_compare

fn sgx_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        for scheme in [
            UpdateScheme::SecureWb,
            UpdateScheme::Sp,
            UpdateScheme::SpCounterTree,
        ] {
            reqs.push(req(&profile.name, cfg(scheme), s));
        }
    }
    reqs
}

fn sgx_render(results: &ResultSet, s: RunSettings) -> String {
    let mut table = SeriesTable::new("bench", &["sp(BMT)", "sp_ctree", "ratio"]);
    for profile in spec::all_benchmarks() {
        let base = results.report(&profile.name, &cfg(UpdateScheme::SecureWb), s);
        let bmt = results
            .report(&profile.name, &cfg(UpdateScheme::Sp), s)
            .normalized_to(base);
        let ctree = results
            .report(&profile.name, &cfg(UpdateScheme::SpCounterTree), s)
            .normalized_to(base);
        table.push(&profile.name, vec![bmt, ctree, ctree / bmt]);
    }
    let mut out = table.render();
    out.push('\n');
    let g = SystemConfig::default().bmt;
    let _ = writeln!(
        out,
        "analytic write amplification at this geometry: {:.0}x NVM persists per store",
        sgx::sgx_write_amplification(g)
    );
    let _ = writeln!(
        out,
        "paper §V-D: 'we focus only on BMT due to the extra cost incurred by the counter tree'"
    );
    out
}

// -------------------------------------------------------------- summary

fn summary_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for profile in spec::all_benchmarks() {
        reqs.push(req(&profile.name, cfg(UpdateScheme::SecureWb), s));
        for scheme in UpdateScheme::persisting() {
            reqs.push(req(&profile.name, cfg(scheme), s));
        }
    }
    reqs
}

fn summary_render(results: &ResultSet, s: RunSettings) -> String {
    let mut out = String::new();
    let profiles = spec::all_benchmarks();
    let reports_for = |scheme: UpdateScheme| -> Vec<&RunReport> {
        profiles
            .iter()
            .map(|p| results.report(&p.name, &cfg(scheme), s))
            .collect()
    };
    let base = reports_for(UpdateScheme::SecureWb);
    let mut gmeans = Vec::new();
    for scheme in UpdateScheme::persisting() {
        let runs = reports_for(scheme);
        let values: Vec<f64> = runs
            .iter()
            .zip(&base)
            .map(|(r, b)| r.normalized_to(b))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "cycle counts are positive, so normalized times are too"
        )]
        let g = geometric_mean(&values).expect("positive normalized times");
        gmeans.push((scheme, g, runs));
    }

    let _ = writeln!(out, "normalized execution time (gmean over benchmarks):");
    let paper = [
        ("unordered", "n/a (incorrect under crash)"),
        ("sp", "~8.2x (720% overhead)"),
        ("pipeline", "~3.1x (210% overhead)"),
        ("o3", "1.207x (20.7% overhead)"),
        ("coalescing", "1.202x (20.2% overhead)"),
    ];
    for ((scheme, g, _), (_, p)) in gmeans.iter().zip(paper) {
        let _ = writeln!(out, "  {:<11} {:>6.2}x   paper: {}", scheme.name(), g, p);
    }
    out.push('\n');

    #[expect(
        clippy::panic,
        reason = "gmeans covers every persisting scheme by construction"
    )]
    let by_scheme = |want: UpdateScheme| {
        gmeans
            .iter()
            .find(|(s, ..)| *s == want)
            .unwrap_or_else(|| panic!("gmean missing for {}", want.name()))
    };
    let sp = by_scheme(UpdateScheme::Sp);
    let pipe = by_scheme(UpdateScheme::Pipeline);
    let o3 = by_scheme(UpdateScheme::O3);
    let co = by_scheme(UpdateScheme::Coalescing);

    let _ = writeln!(
        out,
        "pipelining speedup over sequential sp: {:.2}x (paper: 3.4x)",
        sp.1 / pipe.1
    );
    let _ = writeln!(
        out,
        "o3+coalescing speedup over sequential sp: {:.2}x (paper: 5.99x)",
        sp.1 / co.1
    );
    let _ = writeln!(
        out,
        "best-to-worst overhead ratio: {:.1}x (paper: 36x)",
        (sp.1 - 1.0) / (co.1 - 1.0).max(1e-9)
    );
    out.push('\n');

    let o3_updates: u64 = o3.2.iter().map(|r| r.engine.node_updates).sum();
    let co_updates: u64 = co.2.iter().map(|r| r.engine.node_updates).sum();
    let _ = writeln!(
        out,
        "coalescing BMT node-update reduction vs o3: {:.1}% (paper: 26.1%)",
        (1.0 - co_updates as f64 / o3_updates as f64) * 100.0
    );
    out.push('\n');

    let g = SystemConfig::default().bmt;
    let _ = writeln!(
        out,
        "SGX counter-tree persist amplification at the default geometry: {:.0}x\n\
         ({} NVM persists per store vs 1 for a BMT; paper §V-D)",
        sgx::sgx_write_amplification(g),
        sgx::sgx_persist_cost(g).nvm_persists
    );
    out
}

// ------------------------------------------------------------- ablation

const ABLATION_BENCH: &str = "gcc";
const ABLATION_ETTS: [usize; 4] = [1, 2, 4, 8];
const ABLATION_LEVELS: [u32; 5] = [7, 8, 9, 10, 11];

fn ett_cfg(ett: usize) -> SystemConfig {
    let mut c = cfg(UpdateScheme::Coalescing);
    c.ett_entries = ett;
    c
}

fn height_cfg(scheme: UpdateScheme, levels: u32) -> SystemConfig {
    let mut c = cfg(scheme);
    c.bmt = plp_bmt::BmtGeometry::new(8, levels);
    c
}

fn mac_cfg(mac: u64) -> SystemConfig {
    let mut c = cfg(UpdateScheme::Sp);
    c.mac_latency = Cycle::new(mac);
    c
}

fn ablation_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for scheme in UpdateScheme::all() {
        reqs.push(req(ABLATION_BENCH, cfg(scheme), s));
    }
    for ett in ABLATION_ETTS {
        reqs.push(req(ABLATION_BENCH, ett_cfg(ett), s));
    }
    for levels in ABLATION_LEVELS {
        reqs.push(req(ABLATION_BENCH, height_cfg(UpdateScheme::Sp, levels), s));
        reqs.push(req(
            ABLATION_BENCH,
            height_cfg(UpdateScheme::Pipeline, levels),
            s,
        ));
    }
    for mac in FIG9_MACS {
        reqs.push(req(ABLATION_BENCH, mac_cfg(mac), s));
    }
    reqs
}

fn ablation_render(results: &ResultSet, s: RunSettings) -> String {
    let mut out = String::new();
    let base = results.report(ABLATION_BENCH, &cfg(UpdateScheme::SecureWb), s);
    let norm = |config: &SystemConfig| -> (f64, &RunReport) {
        let r = results.report(ABLATION_BENCH, config, s);
        (r.normalized_to(base), r)
    };

    let (sp, _) = norm(&cfg(UpdateScheme::Sp));
    let (un, _) = norm(&cfg(UpdateScheme::Unordered));
    let _ = writeln!(out, "D1 root-ordering enforcement (sp vs unordered):");
    let _ = writeln!(
        out,
        "   sp {sp:.2}x vs unordered {un:.2}x -> correctness costs {:.2}x",
        sp / un
    );
    out.push('\n');

    let (pipe, _) = norm(&cfg(UpdateScheme::Pipeline));
    let (o3, o3r) = norm(&cfg(UpdateScheme::O3));
    let _ = writeln!(out, "D2 in-order pipeline vs OOO epochs:");
    let _ = writeln!(
        out,
        "   pipeline {pipe:.2}x vs o3 {o3:.2}x -> relaxing intra-epoch order buys {:.2}x",
        pipe / o3
    );
    out.push('\n');

    let (co, cor) = norm(&cfg(UpdateScheme::Coalescing));
    let _ = writeln!(out, "D3 LCA coalescing on top of o3:");
    let _ = writeln!(
        out,
        "   runtime {co:.2}x (o3 {o3:.2}x); node updates {} -> {} (-{:.1}%)",
        o3r.engine.node_updates,
        cor.engine.node_updates,
        cor.node_update_reduction_vs(o3r) * 100.0
    );
    out.push('\n');

    let _ = writeln!(
        out,
        "D4 ETT entries (concurrent epochs), coalescing scheme:"
    );
    for ett in ABLATION_ETTS {
        let (n, _) = norm(&ett_cfg(ett));
        let _ = writeln!(out, "   ett={ett}: {n:.3}x");
    }
    out.push('\n');

    let _ = writeln!(out, "D5 BMT height (memory size), sp vs pipeline:");
    for levels in ABLATION_LEVELS {
        let (sp_n, _) = norm(&height_cfg(UpdateScheme::Sp, levels));
        let (pipe_n, _) = norm(&height_cfg(UpdateScheme::Pipeline, levels));
        let _ = writeln!(
            out,
            "   {levels} levels: sp {sp_n:5.2}x   pipeline {pipe_n:5.2}x   (ratio {:.2})",
            sp_n / pipe_n
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "paper §IV-A2: 'with larger memories, the degree of PLP increases and\n\
         pipelined BMT updates becomes even more effective versus non-pipelined'"
    );

    out.push('\n');
    let _ = writeln!(out, "MAC-latency scaling, sp scheme:");
    for mac in FIG9_MACS {
        let (n, _) = norm(&mac_cfg(mac));
        let _ = writeln!(out, "   mac={mac:>2}: {n:.2}x");
    }
    out
}

// ------------------------------------------------------- table1/table2

fn crash_requests(_s: RunSettings) -> Vec<RunRequest> {
    // Crash analysis needs per-persist records, which are never cached
    // or shared through the matrix; these specs run their own
    // record-enabled simulation at render time.
    Vec::new()
}

fn table1_render(_results: &ResultSet, settings: RunSettings) -> String {
    let mut out = String::new();
    let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
    cfg.record_persists = true;
    #[expect(
        clippy::expect_used,
        reason = "static registry lookup of a benchmark this file names"
    )]
    let profile = spec::benchmark("milc").expect("known benchmark");
    let trace = TraceGenerator::new(profile.clone(), settings.seed).generate(settings.instructions);
    let (report, _, _) = run_with_crash(&cfg, profile.base_ipc, &trace, None);
    // The victim must be the *last* persist to its address, or a later
    // persist re-supplies the lost component.
    let Some(victim) = report.records.len().checked_sub(1) else {
        let _ = writeln!(out, "no persists in this run: no tuple component to lose");
        return out;
    };
    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);
    // A finite crash point after everything drained: the lost
    // component (stamped `Cycle::MAX`) is the only thing missing.
    let crash_at = report.total_cycles + Cycle::new(1_000_000);

    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>6}   paper outcome",
        "lost", "BMT", "MAC", "P"
    );
    let expected_text = [
        (TupleComponent::Root, "BMT failure"),
        (TupleComponent::Mac, "MAC failure"),
        (
            TupleComponent::Counter,
            "wrong plaintext, BMT & MAC failure",
        ),
        (TupleComponent::Ciphertext, "wrong plaintext, MAC failure"),
    ];
    for (component, paper) in expected_text {
        let faulty = with_component_lost(&report.records, victim, component);
        let image = PersistImage::at_time(&faulty, crash_at, cfg.bmt, cfg.key);
        let expected = ObserverExpectation::at_time(&report.records, crash_at);
        let rec = checker.check(&image, &expected);
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>6}   {}",
            format!("{component:?}"),
            if rec.bmt_failure { "FAIL" } else { "ok" },
            if rec.mac_failures.is_empty() {
                "ok"
            } else {
                "FAIL"
            },
            if rec.plaintext_failures.is_empty() {
                "ok"
            } else {
                "WRONG"
            },
            paper
        );
    }
    out.push('\n');
    let _ = writeln!(out, "(control: nothing lost)");
    let image = PersistImage::at_time(&report.records, crash_at, cfg.bmt, cfg.key);
    let expected = ObserverExpectation::at_time(&report.records, crash_at);
    let rec = checker.check(&image, &expected);
    let _ = writeln!(out, "all components persisted -> {rec}");
    out
}

fn table2_render(_results: &ResultSet, settings: RunSettings) -> String {
    let mut out = String::new();
    let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
    cfg.record_persists = true;
    #[expect(
        clippy::expect_used,
        reason = "static registry lookup of a benchmark this file names"
    )]
    let profile = spec::benchmark("milc").expect("known benchmark");
    let trace = TraceGenerator::new(profile.clone(), settings.seed).generate(settings.instructions);
    let (report, _, _) = run_with_crash(&cfg, profile.base_ipc, &trace, None);
    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);

    // Pick two adjacent persists to *different* pages so the component
    // swap is meaningful, and crash between their completions: the
    // first such pair in the second half of the run, else in the first.
    let records = &report.records;
    if records.is_empty() {
        let _ = writeln!(out, "no persists in this run: no pair to reorder");
        return out;
    }
    let half = records.len() / 2;
    let Some(first) = (half..records.len().saturating_sub(1))
        .chain(0..half)
        .find(|&i| records[i].addr.page() != records[i + 1].addr.page())
    else {
        let _ = writeln!(
            out,
            "all {} persists are to one page: no different-page pair to reorder",
            records.len()
        );
        return out;
    };
    let second = first + 1;
    let t1 = report.records[first].completed_at();
    let t2 = report.records[second].completed_at();
    let crash_at = Cycle::new((t1.get() + t2.get()) / 2);

    let _ = writeln!(
        out,
        "α1 = {} ({}), α2 = {} ({}), crash between their persists",
        report.records[first].id,
        report.records[first].addr,
        report.records[second].id,
        report.records[second].addr
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>6}   paper outcome",
        "violated", "BMT", "MAC", "P"
    );
    let rows = [
        (TupleComponent::Counter, "plaintext P1 not recoverable"),
        (TupleComponent::Mac, "MAC failure"),
        (TupleComponent::Root, "BMT failure for C1"),
    ];
    for (component, paper) in rows {
        let faulty = with_component_reordered(&report.records, first, second, component);
        let image = PersistImage::at_time(&faulty, crash_at, cfg.bmt, cfg.key);
        let expected = ObserverExpectation::at_time(&report.records, crash_at);
        let rec = checker.check(&image, &expected);
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>6}   {}",
            format!("{component:?}"),
            if rec.bmt_failure { "FAIL" } else { "ok" },
            if rec.mac_failures.is_empty() {
                "ok"
            } else {
                "FAIL"
            },
            if rec.plaintext_failures.is_empty() {
                "ok"
            } else {
                "WRONG"
            },
            paper
        );
    }
    out
}

// ------------------------------------------------------------------ zoo

/// Benchmarks the zoo artefact measures: a light/heavy persist-rate
/// pair, matching the shard sweep's choice, keeps the matrix small.
const ZOO_BENCHES: [&str; 2] = ["gcc", "milc"];

/// The zoo's comparison columns: the paper's strict baseline bracketed
/// by the two literature schemes at opposite ends of the
/// runtime-vs-recovery frontier.
fn zoo_schemes() -> [UpdateScheme; 3] {
    let [triad, phoenix] = UpdateScheme::zoo();
    [UpdateScheme::Sp, triad, phoenix]
}

fn zoo_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for bench in ZOO_BENCHES {
        reqs.push(req(bench, cfg(UpdateScheme::SecureWb), s));
        for scheme in zoo_schemes() {
            reqs.push(req(bench, cfg(scheme), s));
        }
    }
    reqs
}

fn zoo_render(results: &ResultSet, s: RunSettings) -> String {
    let cols = zoo_schemes().map(|u| u.name());
    let mut table = SeriesTable::new("bench", &cols);
    let mut updates = [0u64; 3];
    for bench in ZOO_BENCHES {
        let base = results.report(bench, &cfg(UpdateScheme::SecureWb), s);
        let row = zoo_schemes()
            .iter()
            .enumerate()
            .map(|(i, &scheme)| {
                let r = results.report(bench, &cfg(scheme), s);
                updates[i] += r.engine.node_updates;
                r.normalized_to(base)
            })
            .collect();
        table.push(bench, row);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- execution time normalized to secure_WB (runtime axis of the Pareto frontier)"
    );
    out.push_str(&table.render());
    out.push('\n');
    let [sp_u, triad_u, phoenix_u] = updates;
    let _ = writeln!(
        out,
        "-- BMT node updates: sp {sp_u}, triad_nvm {triad_u} ({:.1}% of sp), phoenix {phoenix_u}",
        triad_u as f64 * 100.0 / sp_u.max(1) as f64
    );
    let _ = writeln!(
        out,
        "recovery axis: see recovery_sweep (results/recovery_pareto.txt)"
    );
    out
}

// ---------------------------------------------------------- shard_sweep

/// The sweep's topology points: shards ∈ {1, 2, 4, 8}, one client
/// stream per shard. The 1×1 point is the unsharded simulator.
pub const SHARD_POINTS: [(u32, u32); 4] = [(1, 1), (2, 2), (4, 4), (8, 8)];

/// Benchmarks the sweep scales; a light/heavy persist-rate pair keeps
/// the matrix small while still exercising imbalanced shards.
const SHARD_BENCHES: [&str; 2] = ["gcc", "milc"];

/// The schemes the sweep compares: one strict, one epoch out-of-order,
/// one coalescing, plus the two zoo schemes so the truncated-walk and
/// dual-copy engines are exercised under cross-shard coordination.
const SHARD_SCHEMES: [UpdateScheme; 5] = [
    UpdateScheme::Sp,
    UpdateScheme::O3,
    UpdateScheme::Coalescing,
    UpdateScheme::TriadNvm,
    UpdateScheme::Phoenix,
];

/// Sharded runs multiply total simulated work by the stream count;
/// clamp so the 8×8 point stays interactive.
fn clamp_for_shards(mut s: RunSettings) -> RunSettings {
    s.instructions = s.instructions.min(60_000);
    s
}

fn shard_requests(s: RunSettings) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for (streams, shards) in SHARD_POINTS {
        let topology = ShardTopology::new(streams, shards);
        for scheme in SHARD_SCHEMES {
            for bench in SHARD_BENCHES {
                reqs.push(req(bench, cfg(scheme), s).with_topology(topology));
            }
        }
    }
    reqs
}

fn shard_render(results: &ResultSet, s: RunSettings) -> String {
    let cols = SHARD_SCHEMES.map(|u| u.name());
    let mut table = SeriesTable::new("topology", &cols).precision(3);
    let mut persists = Vec::new();
    for (streams, shards) in SHARD_POINTS {
        let topology = ShardTopology::new(streams, shards);
        let mut total_persists = 0u64;
        let row = SHARD_SCHEMES
            .iter()
            .map(|&scheme| {
                let vals: Vec<f64> = SHARD_BENCHES
                    .iter()
                    .map(|bench| {
                        let r = results.get(&req(bench, cfg(scheme), s).with_topology(topology));
                        let base = results
                            .get(&req(bench, cfg(scheme), s).with_topology(ShardTopology::unit()));
                        total_persists += r.persists;
                        // Per-instruction cycles, so an N-stream point
                        // is compared per unit of work, not raw wall.
                        let cpi = r.total_cycles.get() as f64 / r.instructions.max(1) as f64;
                        let base_cpi =
                            base.total_cycles.get() as f64 / base.instructions.max(1) as f64;
                        cpi / base_cpi
                    })
                    .collect();
                geometric_mean(&vals).unwrap_or(1.0)
            })
            .collect();
        table.push(&topology.to_string(), row);
        persists.push((topology, total_persists));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- cycles per instruction, normalized to the 1x1 (unsharded) point"
    );
    out.push_str(&table.render());
    out.push('\n');
    let _ = writeln!(
        out,
        "-- persists folded into the root-of-roots per topology"
    );
    for (topology, p) in persists {
        let _ = writeln!(out, "{:<11} {p:>9}", topology.to_string());
    }
    out
}

/// The shard-sweep artefact. Deliberately *not* registered in
/// [`all_specs`]: `all`'s stdout (and run set) stays byte-identical to
/// the pre-sharding harness; the sweep has its own `shard_sweep`
/// binary.
pub fn shard_spec() -> &'static ExperimentSpec {
    &SHARD_SPEC
}

static SHARD_SPEC: ExperimentSpec = ExperimentSpec {
    id: "shard_sweep",
    title: "Shard sweep",
    what: "N client streams over M subtree engines with a root-of-roots",
    adjust: clamp_for_shards,
    requests: shard_requests,
    render: shard_render,
};

// ------------------------------------------------------------- registry

static ALL_SPECS: [ExperimentSpec; 15] = [
    // Figure 8: execution time of strict-persistency schemes
    // (`unordered`, `sp`, `pipeline`) normalized to `secure_WB`, for the
    // default non-stack protection scope and (second table) full-memory
    // protection. The paper's reference geometric means: sp ≈ 7.2×
    // (30.7× full), pipeline ≈ 2.1× (6.9× full); ordering
    // unordered < pipeline ≪ sp.
    ExperimentSpec {
        id: "fig8",
        title: "Fig. 8",
        what: "SP-scheme execution time normalized to secure_WB",
        adjust: identity,
        requests: fig8_requests,
        render: fig8_render,
    },
    // Figure 9: strict persistency (`sp`) normalized to `secure_WB`
    // while sweeping the MAC latency {0, 20, 40, 80} cycles, plus the
    // ideal-metadata-cache configuration (`MDC`: never-miss caches,
    // zero-cycle MAC). The paper's reference shape: overhead scales
    // nearly proportionally with MAC latency, and MDC shows negligible
    // overhead — persisting the data itself is cheap; the leaf-to-root
    // MAC chain is the bottleneck.
    ExperimentSpec {
        id: "fig9",
        title: "Fig. 9",
        what: "sp vs MAC latency and ideal metadata caches",
        adjust: identity,
        requests: fig9_requests,
        render: fig9_render,
    },
    // Figure 10: epoch-persistency schemes (`o3`, `coalescing`)
    // normalized to `secure_WB`, default epoch size 32. Paper reference
    // gmeans: o3 ≈ 1.207, coalescing ≈ 1.202 (2.42× / 2.35× for full
    // memory); some benchmarks match or beat secure_WB because evictions
    // in the baseline update the BMT sequentially.
    ExperimentSpec {
        id: "fig10",
        title: "Fig. 10",
        what: "EP-scheme execution time normalized to secure_WB",
        adjust: identity,
        requests: fig10_requests,
        render: fig10_render,
    },
    // Figure 11: persists per kilo-instruction (PPKI) under epoch
    // persistency as the epoch size sweeps {4, 8, 16, 32, 64, 128, 256}
    // stores. Paper reference shape: PPKI falls monotonically with epoch
    // size — larger epochs let more stores coalesce onto the same cache
    // block before the flush.
    ExperimentSpec {
        id: "fig11",
        title: "Fig. 11",
        what: "PPKI vs epoch size (coalescing scheme)",
        adjust: identity,
        requests: fig11_requests,
        render: fig11_render,
    },
    // Figure 12: `coalescing` execution time normalized to `secure_WB`
    // as the epoch size sweeps {4..256}. Paper reference shape: overhead
    // generally falls with epoch size, but very large epochs can *hurt*
    // some benchmarks (gamess, milc, zeusmp at 256) because small epochs
    // smooth the write traffic and reduce memory-controller queueing.
    ExperimentSpec {
        id: "fig12",
        title: "Fig. 12",
        what: "coalescing execution time vs epoch size, normalized to secure_WB",
        adjust: identity,
        requests: fig12_requests,
        render: fig12_render,
    },
    // Table I: recovery failure cases due to persist failure.
    //
    // For each memory-tuple component, build a run in which that
    // component of one persist silently fails to reach the persistence
    // domain, crash, recover, and report which verifications fail.
    // Expected outcomes (the paper's Table I):
    //
    // | lost | outcome |
    // |---|---|
    // | R | BMT (verification) failure |
    // | M | MAC (verification) failure |
    // | γ | wrong plaintext, BMT & MAC failure |
    // | C | wrong plaintext, MAC failure |
    ExperimentSpec {
        id: "table1",
        title: "Table I",
        what: "recovery failures due to persist failure",
        adjust: clamp_for_records,
        requests: crash_requests,
        render: table1_render,
    },
    // Table II: recovery failures due to memory-tuple ordering
    // violations.
    //
    // Two ordered persists α1 → α2; one tuple component's persists are
    // swapped in time and the system crashes between them. Expected
    // outcomes (the paper's Table II):
    //
    // | violated | outcome |
    // |---|---|
    // | γ1 → γ2 | plaintext P1 not recoverable |
    // | M1 → M2 | MAC failure |
    // | R1 → R2 | BMT failure for C1 |
    ExperimentSpec {
        id: "table2",
        title: "Table II",
        what: "recovery failures due to ordering violations",
        adjust: clamp_for_records,
        requests: crash_requests,
        render: table2_render,
    },
    // Table V: persists per kilo-instruction, measured vs the paper.
    //
    // Four columns per benchmark: all stores (`sp_full`), `secure_WB`
    // write-backs, non-stack stores (`sp`) and epoch stores at epoch 32
    // (`o3`). Measured values come from actual runs; the paper's
    // published numbers print alongside. Paper averages:
    // 119.51 / 1.61 / 32.60 / 12.41.
    ExperimentSpec {
        id: "table5",
        title: "Table V",
        what: "persists per kilo-instruction (PPKI)",
        adjust: identity,
        requests: table5_requests,
        render: table5_render,
    },
    // §VII WPQ-size sweep: `coalescing` execution time normalized to
    // `secure_WB` with WPQ = {4, 8, 16, 32, 64} entries. Paper
    // reference: sizes below 32 add overhead (~12% at 4 entries); sizes
    // above 32 add nothing — which is why 32 is the default.
    ExperimentSpec {
        id: "wpq_sweep",
        title: "WPQ sweep",
        what: "coalescing vs WPQ entries",
        adjust: identity,
        requests: wpq_requests,
        render: wpq_render,
    },
    // §VII metadata-cache sweep: each of the three metadata caches
    // (counter/MAC/BMT) sized {32, 64, 128, 256} KB, `coalescing` scheme,
    // normalized to `secure_WB`. Paper reference: at most ~2% difference
    // across sizes for any scheme.
    ExperimentSpec {
        id: "mdc_sweep",
        title: "MDC sweep",
        what: "coalescing vs metadata-cache capacity",
        adjust: identity,
        requests: mdc_requests,
        render: mdc_render,
    },
    // §VII LLC-capacity sweep: `coalescing` with a {1, 2, 4} MB
    // last-level cache, normalized to `secure_WB` at the *same* LLC size.
    // Paper reference: overhead varies modestly, 20.2% at 4MB to 22.8%
    // at 1MB.
    ExperimentSpec {
        id: "llc_sweep",
        title: "LLC sweep",
        what: "coalescing vs LLC capacity",
        adjust: identity,
        requests: llc_requests,
        render: llc_render,
    },
    // §V-D ablation: strict persistency over a Bonsai Merkle Tree vs an
    // SGX-style counter tree.
    //
    // The counter tree must persist the *entire* update path (its MAC
    // chain needs parent counters), so each persist issues `levels` NVM
    // writes instead of one and crash recovery depends on all of them.
    // This artefact quantifies the cost the paper cites as the reason to
    // focus on BMTs.
    ExperimentSpec {
        id: "sgx_compare",
        title: "SGX ablation",
        what: "sp over a BMT vs sp over an SGX-style counter tree",
        adjust: identity,
        requests: sgx_requests,
        render: sgx_render,
    },
    // The paper's headline results in one artefact (§VII "Summary" plus
    // the §V-D counter-tree observation):
    //
    // * scheme overheads vs `secure_WB` (paper: sp 720%, pipeline 210%,
    //   o3 20.7%, coalescing 20.2%);
    // * pipelining speedup over sequential SP (paper: 3.4×);
    // * o3+coalescing speedup over sequential (paper: 5.99×);
    // * coalescing's BMT node-update reduction vs o3 (paper: 26.1%);
    // * best-to-worst overhead ratio (paper: 36×);
    // * SGX counter-tree persist amplification (paper §V-D: scales with
    //   tree height).
    ExperimentSpec {
        id: "summary",
        title: "Summary",
        what: "headline results across all 15 benchmarks",
        adjust: identity,
        requests: summary_requests,
        render: summary_render,
    },
    // Design-choice ablations (DESIGN.md D1–D5): isolate what each
    // mechanism and each structural parameter buys, on one representative
    // benchmark, normalized to `secure_WB`.
    ExperimentSpec {
        id: "ablation",
        title: "Ablations",
        what: "design-choice isolation on gcc",
        adjust: identity,
        requests: ablation_requests,
        render: ablation_render,
    },
    // The scheme zoo from PAPERS.md (DESIGN.md §15), not a paper
    // artefact: `triad_nvm` and `phoenix` against the `sp` baseline on a
    // light and a heavy persist-rate benchmark, the runtime axis of the
    // runtime-vs-recovery frontier that `recovery_sweep` completes.
    ExperimentSpec {
        id: "zoo",
        title: "Scheme zoo",
        what: "triad_nvm and phoenix runtime overhead vs the sp baseline",
        adjust: identity,
        requests: zoo_requests,
        render: zoo_render,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut ids: Vec<&str> = all_specs().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 15);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15, "duplicate spec ids");
        assert!(find("fig8").is_some());
        assert!(find("zoo").is_some());
        assert!(find("nonesuch").is_none());
    }

    #[test]
    fn requests_are_declared_for_every_matrix_spec() {
        let s = RunSettings {
            instructions: 1_000,
            seed: 1,
        };
        for spec in all_specs() {
            let reqs = spec.runs_needed(s);
            // The crash tables run record-enabled simulations at
            // render time; every other artefact declares its matrix.
            if spec.id == "table1" || spec.id == "table2" {
                assert!(reqs.is_empty());
            } else {
                assert!(!reqs.is_empty(), "{} declares no runs", spec.id);
                for r in &reqs {
                    assert!(
                        !r.config.record_persists,
                        "{}: matrix runs must be record-free",
                        spec.id
                    );
                }
            }
        }
    }

    #[test]
    fn shard_spec_is_unregistered_but_complete() {
        // The sweep stays out of `all` (its run set and stdout are
        // pinned) but declares a full topology matrix of its own.
        assert!(find("shard_sweep").is_none());
        let spec = shard_spec();
        let s = RunSettings {
            instructions: 1_000,
            seed: 1,
        };
        let reqs = spec.runs_needed(s);
        assert_eq!(
            reqs.len(),
            SHARD_POINTS.len() * SHARD_SCHEMES.len() * SHARD_BENCHES.len()
        );
        assert!(reqs.iter().any(|r| r.topology.is_unit()));
        assert!(reqs.iter().any(|r| r.topology == ShardTopology::new(8, 8)));
        for r in &reqs {
            assert!(!r.config.record_persists);
        }
        // Unit-topology requests keep the pre-sharding cache key.
        let unit = reqs.iter().find(|r| r.topology.is_unit()).unwrap();
        assert!(!unit.key().contains("streams="));
        let sharded = reqs.iter().find(|r| !r.topology.is_unit()).unwrap();
        assert!(sharded.key().contains("|streams="));
    }

    #[test]
    fn shard_sweep_clamps_instruction_count() {
        let big = RunSettings {
            instructions: 400_000,
            seed: 7,
        };
        assert_eq!(shard_spec().settings(big).instructions, 60_000);
    }

    #[test]
    fn crash_tables_render_at_every_seed() {
        let mut empty_runs = 0;
        for instructions in [1, 10, 10_000] {
            for seed in 1..=8 {
                let s = RunSettings { instructions, seed };
                let table1 = find("table1").unwrap().output(&ResultSet::default(), s);
                let table2 = find("table2").unwrap().output(&ResultSet::default(), s);
                let at = format!("{instructions} instructions, seed {seed}");
                // Both tables simulate the same run, so they agree on
                // whether it persisted anything; only a short run may not.
                let empty = table1.contains("no persists in this run");
                assert_eq!(
                    table2.contains("no persists in this run"),
                    empty,
                    "{at}: {table2}"
                );
                if empty {
                    assert!(instructions < 10_000, "{at}: {table1}");
                    empty_runs += 1;
                    continue;
                }
                assert!(
                    table1.contains("all components persisted"),
                    "{at}: {table1}"
                );
                // Some seeds persist to one page only: table2 says so.
                assert!(
                    table2.contains("crash between their persists")
                        || table2.contains("persists are to one page"),
                    "{at}: {table2}"
                );
            }
        }
        // Most 1- and 10-instruction runs persist nothing (all but seed
        // 1, and seed 6 at 10): the guard must actually be reached.
        assert!(empty_runs > 0, "no run without persists");
    }

    /// `scripts/verify.sh` compares `all 400000 7 --only ID` with
    /// `results/ID.txt` for every registered id, so each spec needs a
    /// committed paper-length artefact under its own banner.
    #[test]
    fn every_registered_artefact_is_committed() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for spec in all_specs() {
            let path = results.join(format!("{}.txt", spec.id));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: no committed artefact ({e})", path.display()));
            let banner =
                banner_string(spec.title, spec.what, spec.settings(RunSettings::default()));
            assert!(
                text.starts_with(&banner),
                "{}: not the paper-length {} artefact",
                path.display(),
                spec.id
            );
        }
    }

    #[test]
    fn crash_tables_clamp_instruction_count() {
        let big = RunSettings {
            instructions: 400_000,
            seed: 7,
        };
        assert_eq!(find("table1").unwrap().settings(big).instructions, 20_000);
        assert_eq!(find("table2").unwrap().settings(big).instructions, 20_000);
        assert_eq!(find("fig8").unwrap().settings(big).instructions, 400_000);
    }
}
