//! Tier-1 gate: the live tree is lint-clean.
//!
//! * **Clippy** — `cargo clippy --workspace --all-targets -- -D warnings`
//!   must pass. Besides the workspace's `clippy::all = deny`, that holds
//!   the panic and determinism invariants: each runtime crate root denies
//!   `clippy::{unwrap_used, expect_used, panic, todo, unimplemented}` and
//!   the `clippy.toml` lists (hash collections, wall clocks, RNG
//!   construction) for non-test library code, and every exemption is a
//!   reasoned `#[expect]` that fails the run once it suppresses nothing.
//! * **`splat-lint`** (the same pass as `cargo run -p splat-lint -- check`)
//!   must report zero error-severity findings: every `lock-discipline`
//!   violation is fixed or carries an inline `// lint:allow(rule): reason`
//!   waiver, and every waiver suppresses something.
//! * **The audited `no-index-panic` count** — computed index expressions
//!   in hot-loop library code are warn-severity by policy (SoA lane and
//!   scratch-buffer indexing is the kernel idiom), but the *count* is
//!   pinned so a new indexing site must either be audited here (bump the
//!   number in the same PR, reviewer sees it) or rewritten with `.get()`.

use std::path::Path;
use std::process::Command;

/// Runs clippy into its own target directory (`target/clippy-gate`), so it
/// never waits on the build lock of the `cargo test` that runs it. About
/// 10 s on a cold directory and under a second warm.
#[test]
fn clippy_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-gate"))
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    assert!(
        output.status.success(),
        "cargo clippy -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn workspace_has_no_lint_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = splat_lint::check_workspace(root).expect("workspace walks cleanly");
    let errors: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == splat_lint::Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "lint errors in the live tree (fix or waive with a reason):\n{}",
        errors.join("\n")
    );
}

#[test]
fn index_audit_count_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = splat_lint::check_workspace(root).expect("workspace walks cleanly");
    let index_warnings = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-index-panic")
        .count();
    // The audited baseline. If you added a computed index expression to
    // library code, re-audit the new site (bounds established locally?)
    // and bump this number in the same change; if you removed one, lower
    // it so the ratchet only moves down by default.
    //
    // 148 -> 145: the two per-pipeline `sort.rs` bodies (`projected[slot]`
    // in each sort key and each sortedness check) collapsed onto the one
    // generic `sort_bins_by_depth` / `is_sorted_by_depth` in `splat-core`.
    //
    // 145 -> 143: both identification loops zip the per-splat bin counter
    // (`tiles_per_gaussian[slot]`, `groups_per_gaussian[slot]`) instead of
    // indexing it; the group scatter and the per-tile hit tallies were
    // written with `get_mut` / `split_at` and add no site.
    //
    // 143 -> 129: the engine's synchronous pool-scan path (six sites in
    // `splat-engine/src/lib.rs`), the whole-path trajectory handle (one in
    // `job.rs`) and the serving half of `splat-bench/src/lib.rs` (seven)
    // are gone.
    //
    // 129 -> 122: `splat-scene/src/stats.rs` (three, in `percentile`) is
    // deleted and `HarnessOptions::parse` walks an iterator instead of
    // `args[i]` / `args[i + 1]` (four).
    //
    // 122 -> 118: the owned tile kernels are gone — the span twin's pixel
    // composition (four, in `span.rs`) and the full walk's
    // `pixels[row_start..]` (one, in `blend.rs`) — and the one kernel per
    // walk writes through `Framebuffer::row_mut` (one, in `image.rs`).
    //
    // 118 -> 117: the allocating `sh::eval_basis` (`basis[..count]`) is
    // gone; callers go through `eval_color`.
    //
    // 117 -> 105: the wide tile kernel shades 16×16 blocks. The deleted
    // 8-pixel chunk walk and its scalar tail held 20 sites (per-lane
    // `xs` / `m` / `active` / `trans` / `acc_*` / `out`, the splat load and
    // `row[..]`); the block walk holds 8 (`state[..height]`, the splat
    // load, `m[lane]` and five per-lane state reads and writes) and writes
    // each row out through an iterator.
    let audited = 105;
    assert!(
        index_warnings <= audited,
        "no-index-panic count grew past the audited baseline ({index_warnings} > {audited}): \
         audit the new index expressions and bump the baseline deliberately"
    );
    assert!(
        index_warnings == audited,
        "no-index-panic count dropped below the audited baseline ({index_warnings} < {audited}): \
         lower the baseline to ratchet the audit"
    );
}
