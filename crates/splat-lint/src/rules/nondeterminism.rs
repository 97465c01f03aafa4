//! `no-nondeterminism`: bit-exact rendering is the project's core
//! invariant (golden digests are pinned across threads, SIMD widths,
//! span modes and boundary methods), so library code must not introduce
//! sources of run-to-run variation:
//!
//! * `HashMap`/`HashSet` — iteration order varies per process,
//! * `Instant::now` / `SystemTime` — wall clocks, allowed only in the
//!   designated timing modules (`StageCounts` timing, sessions, bench
//!   harness) listed in `splat-lint.toml`,
//! * RNG construction — allowed only in the local seeded-xoshiro helper
//!   and the deterministic scene synthesizer.

use crate::config::{Config, Severity};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::{FileKind, Workspace};

use super::{code_tokens, finding, Rule};

/// Entropy-seeded RNG constructors (none exist in the offline workspace,
/// but the rule keeps them out).
const ENTROPY_IDENTS: [&str; 5] = ["thread_rng", "from_entropy", "OsRng", "getrandom", "StdRng"];

/// Flags hash-order iteration, wall-clock reads and RNG construction in
/// runtime-crate library code.
pub struct NoNondeterminism;

impl Rule for NoNondeterminism {
    fn id(&self) -> &'static str {
        "no-nondeterminism"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, workspace: &Workspace, config: &Config, out: &mut Vec<Diagnostic>) {
        for file in workspace
            .files
            .iter()
            .filter(|f| f.is_runtime_crate() && f.kind == FileKind::Lib)
        {
            let timing_allowed = allowed(&file.path, &config.timing_allow);
            let rng_allowed = allowed(&file.path, &config.rng_allow);
            let code = code_tokens(file);
            for w in 0..code.len() {
                let (idx, token) = code[w];
                if token.kind != TokenKind::Ident || file.in_test_code(idx) {
                    continue;
                }
                let text = token.text(&file.text);
                // `Type::member` — the member two punct tokens ahead.
                let path_member = (code.get(w + 1).is_some_and(|(_, t)| t.is_punct(':'))
                    && code.get(w + 2).is_some_and(|(_, t)| t.is_punct(':')))
                .then(|| code.get(w + 3))
                .flatten()
                .filter(|(_, t)| t.kind == TokenKind::Ident)
                .map(|(_, t)| t.text(&file.text));
                let message = match text {
                    "HashMap" | "HashSet" => format!(
                        "`{text}` in library code: iteration order is nondeterministic; \
                         use `BTreeMap`/`BTreeSet` or a sorted `Vec`"
                    ),
                    "Instant" if path_member == Some("now") && !timing_allowed => {
                        "`Instant::now` outside the designated timing modules: wall-clock \
                         reads belong in `StageCounts` timing; list the module under \
                         `timing-allow` if it is a timing surface"
                            .to_string()
                    }
                    "SystemTime" if !timing_allowed => {
                        "`SystemTime` outside the designated timing modules: render and \
                         engine paths must not read wall clocks"
                            .to_string()
                    }
                    "Rng" if path_member.is_some() && !rng_allowed => format!(
                        "`Rng::{}` outside the RNG helpers: render/engine paths must be \
                         deterministic; randomized inputs belong in the seeded scene \
                         synthesizer or in tests",
                        path_member.unwrap_or_default()
                    ),
                    _ if ENTROPY_IDENTS.contains(&text) && !rng_allowed => format!(
                        "`{text}` in library code: entropy-seeded randomness breaks \
                         bit-exact reproducibility"
                    ),
                    _ => continue,
                };
                out.push(finding(file, &token, self, message));
            }
        }
    }
}

fn allowed(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config, path: &str, src: &str) -> Vec<Diagnostic> {
        let workspace = Workspace::from_sources(vec![(path, src)]);
        let mut out = Vec::new();
        NoNondeterminism.check(&workspace, config, &mut out);
        out
    }

    #[test]
    fn hash_collections_fire() {
        let out = run(
            &Config::default(),
            "crates/splat-engine/src/x.rs",
            "use std::collections::HashMap;\npub fn f() { let _m: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        assert_eq!(out.len(), 3); // use + type + constructor mentions
        assert!(out[0].message.contains("BTreeMap"));
    }

    #[test]
    fn instant_now_respects_the_allowlist() {
        let src = "use std::time::Instant;\npub fn f() { let _t = Instant::now(); }\n";
        let out = run(&Config::default(), "crates/gstg/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);

        let mut config = Config::default();
        config.timing_allow.push("crates/gstg/src/x.rs".to_string());
        assert!(run(&config, "crates/gstg/src/x.rs", src).is_empty());
    }

    #[test]
    fn rng_construction_fires_outside_helpers_and_tests() {
        let src = "pub fn f() { let _r = Rng::seed_from_u64(1); }\n";
        assert_eq!(
            run(&Config::default(), "crates/splat-render/src/x.rs", src).len(),
            1
        );

        let mut config = Config::default();
        config
            .rng_allow
            .push("crates/splat-scene/src/synth.rs".to_string());
        assert!(run(&config, "crates/splat-scene/src/synth.rs", src).is_empty());

        let test_src = "#[cfg(test)]\nmod tests { fn t() { let _r = Rng::seed_from_u64(1); } }\n";
        assert!(run(&Config::default(), "crates/splat-render/src/x.rs", test_src).is_empty());
    }
}
