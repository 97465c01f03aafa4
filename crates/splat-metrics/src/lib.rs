//! Summary statistics, report tables and frame digests for GS-TG
//! experiments.
//!
//! The figure-regeneration binaries in `splat-bench` use this crate to
//! compute means and geometric means (as the paper does for its
//! speedup/energy summaries) and to print aligned markdown tables. The
//! [`digest`] module holds canonical FNV-1a ([`digest::Fnv1a64`], the
//! golden-image frame digest) and its eight-lane word variant
//! ([`digest::Fnv1a64Lanes`], the digest the server sends as
//! `X-Splat-Digest`).
//!
//! ```
//! use splat_metrics::{geometric_mean, Table};
//!
//! let speedups = [1.2, 1.4, 1.3];
//! let geomean = geometric_mean(&speedups).unwrap();
//! assert!(geomean > 1.2 && geomean < 1.4);
//!
//! let mut table = Table::new(["scene", "speedup"]);
//! table.add_row(["train".to_string(), format!("{geomean:.2}")]);
//! assert!(table.to_markdown().contains("train"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod digest;
mod summary;
mod table;

pub use summary::{geometric_mean, mean};
pub use table::Table;
