//! Compiles the repo benchmark's seam to the product inside tier-1.
//!
//! `benchmark/` is a cargo package of its own, so the root workspace never
//! builds it; a product change that breaks the frozen `use` block of
//! `benchmark/src/adapter.rs` would otherwise surface only when the
//! benchmark is next built. Including the two files here (read-only, by
//! path) turns that into a `cargo test` failure, and runs the unit tests
//! they carry.
#![allow(dead_code)]

#[path = "../benchmark/src/adapter.rs"]
mod adapter;
#[path = "../benchmark/src/stats.rs"]
mod stats;
