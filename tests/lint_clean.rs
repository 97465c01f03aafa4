//! Tier-1 gate: the live tree is lint-clean.
//!
//! * **Clippy** — `cargo clippy --workspace --all-targets -- -D warnings`
//!   must pass. Besides the workspace's `clippy::all = deny`, that holds
//!   the panic and determinism invariants: each runtime crate root denies
//!   `clippy::{unwrap_used, expect_used, panic, todo, unimplemented}` and
//!   the `clippy.toml` lists (hash collections, wall clocks, RNG
//!   construction) for non-test library code, and every exemption is a
//!   reasoned `#[expect]` that fails the run once it suppresses nothing.
//! * **The index audit** — `clippy::indexing_slicing` sites (`xs[i]`,
//!   `&xs[a..b]`) in the library code of the ten runtime crates. SoA lane
//!   and scratch-buffer indexing is the kernel idiom, so the lint is not
//!   denied, but its *count* is pinned: a new site must either be audited
//!   here (bump the number in the same change, reviewer sees it) or be
//!   rewritten with `.get()`, and a removed site lowers the pin.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `cargo clippy --offline <args>` from the workspace root into
/// `target/<dir>`, its own target directory, so it never waits on the
/// build lock of the `cargo test` that runs it (nor on the other clippy
/// run here).
fn clippy(dir: &str, args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    Command::new(cargo)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", root.join("target").join(dir))
        .args(["clippy", "--offline"])
        .args(args)
        .output()
        .expect("cargo clippy runs")
}

/// About 10 s on a cold directory and under a second warm.
#[test]
fn clippy_is_clean() {
    let output = clippy(
        "clippy-gate",
        &["--workspace", "--all-targets", "--", "-D", "warnings"],
    );
    assert!(
        output.status.success(),
        "cargo clippy -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// About 3 s on a cold directory and 0.1 s warm. A toolchain bump may move
/// the count: clippy's idea of an indexing site is the pin's definition.
#[test]
fn index_audit_count_is_pinned() {
    let output = clippy(
        "clippy-index",
        &[
            "--workspace",
            "--exclude",
            "gs-tg",
            "--lib",
            "--message-format=json",
            "--",
            "--force-warn",
            "clippy::indexing_slicing",
        ],
    );
    assert!(
        output.status.success(),
        "cargo clippy failed (clippy_is_clean names the error):\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let sites = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|line| line.contains(r#""code":{"code":"clippy::indexing_slicing""#))
        .count();
    // `clippy::indexing_slicing` over the ten runtime crates' lib targets.
    let audited = 71;
    assert!(
        sites <= audited,
        "indexing_slicing count grew past the audited baseline ({sites} > {audited}): \
         audit the new index expressions and bump the baseline deliberately"
    );
    assert!(
        sites == audited,
        "indexing_slicing count dropped below the audited baseline ({sites} < {audited}): \
         lower the baseline to ratchet the audit"
    );
}
