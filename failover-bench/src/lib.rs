//! Failover benchmark for the ST-TCP reproduction.
//!
//! One single-threaded command runs a named failover workload through
//! the public builders, checks every output for correctness, and prints
//! end-to-end metrics; a traced run prints per-layer metrics instead.
//! See `README.md` for the metric definitions and the layer map.

pub mod alloc;
pub mod codec;
pub mod report;
pub mod traced;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
