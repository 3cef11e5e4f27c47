//! The six workspace lint rules: the domain rules clippy cannot
//! express.
//!
//! The lexical rules here are patterns over the [`SourceModel`]
//! (comments and literals already blanked, test regions marked); the
//! semantic ones ([`ENGINE_CONTRACT`], [`FAILPOINT_COVERAGE`],
//! [`UNUSED_ALLOW`]) run in [`crate::passes`].
//! Rules fire only outside test code, and every hit can be excused in
//! the source with a reasoned `// lint: allow(<rule>) <why>` directive
//! — a directive without a reason is itself a finding
//! ([`ALLOW_REASON`]).
//!
//! The generic source rules are clippy's job: the panic family and
//! `exit` in library code, narrowing casts in plp-core and plp-bmt,
//! wall-clock reads and `Child::kill` (see the root `clippy.toml`).

use super::scan::{parse_allows, SourceModel};

/// Stable rule identifier (the name used in allow directives).
pub type RuleId = &'static str;

/// `match`es over an update scheme must stay exhaustive — a `_ =>`
/// arm silently absorbs the next scheme someone adds.
pub const SCHEME_MATCH_WILDCARD: RuleId = "scheme-match-wildcard";
/// Library retry loops must go through the shared `plp_core::retry`
/// policy instead of hand-rolling attempt counting and backoff: a
/// loop header that mentions retrying without mentioning a policy is
/// a bare retry loop.
pub const NO_BARE_RETRY_LOOP: RuleId = "no-bare-retry-loop";
/// BMT node storage must stay arena-backed: a map keyed by
/// `NodeLabel` in the address-math crates reintroduces the hash-probe
/// hot path the dense arena replaced. Tests (golden oracles) are
/// exempt, as is any hit with a reasoned allow directive.
pub const NO_NODE_HASHMAP: RuleId = "no-node-hashmap";
/// On every path through an `UpdateEngine` persist method, each
/// update must be reported through `EngineCtx::note_update` before the
/// batch is sealed, and no early return may leave noted updates
/// unsealed. Checked by CFG dataflow in `passes::engine_contract`.
pub const ENGINE_CONTRACT: RuleId = "engine-contract";
/// Every path through the system persist drivers (`persist_block`,
/// `seal_epoch`) and the durable recovery driver (`recover_image`)
/// must cross at least one named failpoint from the crash-harness
/// catalog, so SIGKILL sweeps — single- and double-kill — can never
/// silently lose coverage of a new code path. Checked in
/// `passes::failpoint_cover`.
pub const FAILPOINT_COVERAGE: RuleId = "failpoint-coverage";
/// A `// lint: allow(...)` directive that no longer suppresses any
/// finding is stale and must be deleted; an allow naming an unknown
/// rule never suppressed anything. Checked in `passes::unused_allow`.
pub const UNUSED_ALLOW: RuleId = "unused-allow";
/// An allow directive without a reason.
pub const ALLOW_REASON: RuleId = "allow-reason";

/// All real rules, in reporting order ([`ALLOW_REASON`] is meta).
pub const RULES: [RuleId; 6] = [
    SCHEME_MATCH_WILDCARD,
    NO_BARE_RETRY_LOOP,
    NO_NODE_HASHMAP,
    ENGINE_CONTRACT,
    FAILPOINT_COVERAGE,
    UNUSED_ALLOW,
];

/// Default diagnostic code for a rule's lexical findings. Semantic
/// passes attach more specific codes (`PLP-E001`…); this covers the
/// scanner-produced rules and the meta rule.
pub fn code_for(rule: RuleId) -> &'static str {
    match rule {
        SCHEME_MATCH_WILDCARD => "PLP-L002",
        NO_BARE_RETRY_LOOP => "PLP-L004",
        NO_NODE_HASHMAP => "PLP-L005",
        ENGINE_CONTRACT => "PLP-E000",
        FAILPOINT_COVERAGE => "PLP-F001",
        UNUSED_ALLOW => "PLP-A002",
        _ => "PLP-A001",
    }
}

/// One rule hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Stable diagnostic code (`PLP-L001`, `PLP-E002`, …).
    pub code: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column; 0 when the finding is line-granular.
    pub col: usize,
    /// The offending pattern, for the report.
    pub snippet: String,
    /// Whether a reasoned allow directive covers the hit.
    pub allowed: bool,
}

/// Where a file sits, which decides which rules see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Under some crate's `src/`, excluding `src/bin/` — code other
    /// crates link against.
    pub library: bool,
    /// In `plp-core` or `plp-bmt`, the crates doing address and
    /// geometry math.
    pub address_math: bool,
    /// An `UpdateEngine` implementation file — subject to the
    /// persist-order contract ([`ENGINE_CONTRACT`]).
    pub engine: bool,
    /// The deliberate bug factory (`engine/mutant.rs`): its seeded
    /// contract violations are the sanitizer's test corpus, so the
    /// engine-contract pass skips it by design.
    pub mutant_factory: bool,
    /// The system persist drivers — subject to failpoint-coverage
    /// ([`FAILPOINT_COVERAGE`]).
    pub persist_driver: bool,
    /// The durable recovery writeback driver (`crash::recover_image`)
    /// — its repair paths are subject to the same failpoint-coverage
    /// obligation, against the *recovery* failpoint catalog.
    pub recovery_driver: bool,
}

impl FileScope {
    /// Classifies a repo-relative path.
    pub fn classify(path: &str) -> Self {
        let library = path.contains("/src/") && !path.contains("/src/bin/");
        let address_math =
            library && (path.starts_with("crates/core/") || path.starts_with("crates/bmt/"));
        let engine = path.starts_with("crates/core/src/engine/");
        let mutant_factory = path == "crates/core/src/engine/mutant.rs";
        let persist_driver = path == "crates/core/src/system.rs";
        let recovery_driver = path == "crates/core/src/crash.rs";
        FileScope {
            library,
            address_math,
            engine,
            mutant_factory,
            persist_driver,
            recovery_driver,
        }
    }
}

/// Runs every applicable rule over `model`, returning hits (allowed
/// ones included, flagged) in line order.
pub fn run(path: &str, model: &SourceModel, scope: FileScope) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |rule: RuleId, line: usize, snippet: &str| {
        findings.push(Finding {
            rule,
            code: if rule == ALLOW_REASON {
                "PLP-A001"
            } else {
                code_for(rule)
            },
            path: path.to_string(),
            line: line + 1,
            col: 0,
            snippet: snippet.to_string(),
            allowed: model.allows(line, rule),
        });
    };

    // Depth of the innermost scheme-`match` block still open, if any.
    let mut scheme_match: Option<i64> = None;
    let mut depth: i64 = 0;

    for (idx, line) in model.lines.iter().enumerate() {
        for d in parse_allows(&line.comment) {
            if !d.has_reason {
                push(
                    ALLOW_REASON,
                    idx,
                    &format!("lint: allow({}) without a reason", d.rule),
                );
            }
        }
        if line.in_test {
            depth += brace_delta(&line.code);
            continue;
        }
        let code = line.code.as_str();

        if scope.address_math {
            for hit in node_map_types(code) {
                push(NO_NODE_HASHMAP, idx, &hit);
            }
        }
        if scope.library && is_bare_retry_loop(code) {
            push(NO_BARE_RETRY_LOOP, idx, "bare retry loop");
        }

        // Exhaustive-scheme-match tracking: once inside a `match` whose
        // scrutinee mentions a scheme, a `_ =>` arm at any depth above
        // the match body is a wildcard over schemes.
        if scheme_match.is_none() && code.contains("match ") && mentions_scheme(code) {
            scheme_match = Some(depth);
        }
        if let Some(open) = scheme_match {
            if code.contains("_ =>") || code.contains("_ if ") {
                push(SCHEME_MATCH_WILDCARD, idx, "_ =>");
            }
            depth += brace_delta(code);
            if depth <= open {
                scheme_match = None;
            }
        } else {
            depth += brace_delta(code);
        }
    }
    findings
}

fn brace_delta(code: &str) -> i64 {
    let open = code.matches('{').count() as i64;
    let close = code.matches('}').count() as i64;
    open - close
}

fn mentions_scheme(code: &str) -> bool {
    let after = &code[code.find("match ").unwrap_or(0)..];
    after.contains("scheme") || after.contains("UpdateScheme")
}

/// Whether a code line is a loop header that counts retries/backs off
/// by hand. A loop header mentioning a policy (`RetryPolicy`, a
/// `policy.…` bound) is the blessed pattern — the schedule comes from
/// `plp_core::retry` — so it is exempt.
fn is_bare_retry_loop(code: &str) -> bool {
    let is_header = code.contains("while ")
        || (code.contains("for ") && code.contains(" in "))
        || code.trim_start().starts_with("loop");
    if !is_header {
        return false;
    }
    let lowered = code.to_lowercase();
    let retries = ["retry", "retries", "attempt", "backoff"]
        .iter()
        .any(|w| lowered.contains(w));
    // "olicy" covers both `policy.max_retries` and `RetryPolicy`.
    retries && !lowered.contains("olicy")
}

/// Every map type keyed by a BMT node label on a blanked code line:
/// `…Map<NodeLabel, …>` (any path prefix on the key type). Matches
/// `HashMap`, `BTreeMap`, `FastMap` and friends by suffix, so a new
/// alias can't dodge the rule.
fn node_map_types(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in code.match_indices("Map<") {
        // The key type is everything up to the first comma at this
        // nesting level; a path-qualified `plp_bmt::NodeLabel` counts.
        let args = &code[pos + 4..];
        let key = args.split([',', '>']).next().unwrap_or("");
        if key.trim().split("::").last() == Some("NodeLabel") {
            out.push(format!("Map<{}", key.trim()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: FileScope = FileScope {
        library: true,
        address_math: true,
        engine: false,
        mutant_factory: false,
        persist_driver: false,
        recovery_driver: false,
    };

    fn hits(src: &str, scope: FileScope) -> Vec<Finding> {
        run("crates/core/src/x.rs", &SourceModel::parse(src), scope)
    }

    #[test]
    fn scope_flags_for_engine_and_driver_files() {
        let eng = FileScope::classify("crates/core/src/engine/pipeline.rs");
        assert!(eng.engine && !eng.mutant_factory);
        let mutant = FileScope::classify("crates/core/src/engine/mutant.rs");
        assert!(mutant.engine && mutant.mutant_factory);
        let sys = FileScope::classify("crates/core/src/system.rs");
        assert!(sys.persist_driver);
        let rec = FileScope::classify("crates/core/src/crash.rs");
        assert!(rec.recovery_driver && !rec.persist_driver);
        assert!(!sys.recovery_driver);
    }

    #[test]
    fn every_rule_has_a_stable_code() {
        let mut codes: Vec<&str> = RULES.iter().map(|r| code_for(r)).collect();
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), before, "codes must be distinct");
        assert!(codes.iter().all(|c| c.starts_with("PLP-")));
    }

    #[test]
    fn scheme_match_wildcards_are_flagged() {
        let src = concat!(
            "match config.scheme {\n",
            "    UpdateScheme::Sp => a(),\n",
            "    _ => b(),\n",
            "}\n",
            "match unrelated {\n",
            "    _ => c(),\n",
            "}\n",
        );
        let f = hits(src, LIB);
        let wild: Vec<_> = f
            .iter()
            .filter(|f| f.rule == SCHEME_MATCH_WILDCARD)
            .collect();
        assert_eq!(wild.len(), 1);
        assert_eq!(wild[0].line, 3);
    }

    #[test]
    fn node_label_maps_are_flagged_in_address_crates() {
        let src = concat!(
            "nodes: HashMap<NodeLabel, NodeValue>,\n",
            "dirty: BTreeMap<plp_bmt::NodeLabel, Cycle>,\n",
            "fast: FastMap<NodeLabel, (EpochId, Cycle)>,\n",
            "fine: HashMap<u64, NodeValue>,\n",
            "also_fine: Vec<NodeLabel>,\n",
        );
        let f = hits(src, LIB);
        let maps: Vec<_> = f.iter().filter(|f| f.rule == NO_NODE_HASHMAP).collect();
        assert_eq!(maps.len(), 3, "{maps:?}");
        assert_eq!(maps[0].line, 1);
        assert_eq!(maps[2].line, 3);
    }

    #[test]
    fn node_label_maps_exempt_in_tests_and_outside_address_math() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    struct Golden { nodes: HashMap<NodeLabel, NodeValue> }\n",
            "}\n",
        );
        let f = hits(src, LIB);
        assert!(f.iter().all(|f| f.rule != NO_NODE_HASHMAP));

        let other = FileScope::classify("crates/trace/src/lib.rs");
        let f = run(
            "crates/trace/src/lib.rs",
            &SourceModel::parse("x: HashMap<NodeLabel, u64>,\n"),
            other,
        );
        assert!(f.iter().all(|f| f.rule != NO_NODE_HASHMAP));
    }

    #[test]
    fn reasoned_allows_mark_findings_allowed() {
        let src = concat!(
            "// lint: allow(no-node-hashmap) a sparse golden oracle, off the hot path\n",
            "nodes: HashMap<NodeLabel, NodeValue>,\n",
            "dirty: HashMap<NodeLabel, Cycle>,\n",
        );
        let f = hits(src, LIB);
        let maps: Vec<_> = f.iter().filter(|f| f.rule == NO_NODE_HASHMAP).collect();
        assert_eq!(maps.len(), 2);
        assert!(maps[0].allowed);
        assert!(!maps[1].allowed);
    }

    #[test]
    fn bare_retry_loops_are_flagged_policy_loops_are_not() {
        let src = concat!(
            "while failed && attempt < max_retries {\n",
            "    attempt += 1;\n",
            "}\n",
            "for attempt in 0..=policy.max_retries {\n",
            "    go(attempt);\n",
            "}\n",
            "let backoff = policy.delay_ns(token, attempt);\n",
            "loop {\n",
            "    next();\n",
            "}\n",
        );
        let f = hits(src, LIB);
        let bare: Vec<_> = f.iter().filter(|f| f.rule == NO_BARE_RETRY_LOOP).collect();
        assert_eq!(bare.len(), 1, "{bare:?}");
        assert_eq!(bare[0].line, 1);
    }

    #[test]
    fn retry_loops_outside_libraries_are_exempt() {
        let scope = FileScope::classify("crates/bench/src/bin/all.rs");
        let f = run(
            "crates/bench/src/bin/all.rs",
            &SourceModel::parse("while retries < 3 { retries += 1; }\n"),
            scope,
        );
        assert!(f.iter().all(|f| f.rule != NO_BARE_RETRY_LOOP));
    }

    #[test]
    fn reasonless_allow_is_a_finding() {
        let src = "// lint: allow(no-node-hashmap)\nnodes: HashMap<NodeLabel, u64>,\n";
        let f = hits(src, LIB);
        assert!(f.iter().any(|f| f.rule == ALLOW_REASON));
        assert!(f.iter().any(|f| f.rule == NO_NODE_HASHMAP && !f.allowed));
    }
}
