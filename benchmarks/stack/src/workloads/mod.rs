//! The five workloads. Each file's header says what one op is, which
//! layers do the work, which idle, and why the workload exists.

pub mod engine;
pub mod index_plus;
pub mod live_repair;
pub mod online_lazy;
pub mod routed_miss;
pub mod serve_hit;
pub mod served;
