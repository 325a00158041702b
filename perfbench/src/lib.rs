//! The tepdb benchmark: three closed-loop workloads (`ingest`, `fetch`,
//! `audit`) measured end to end, plus a separate traced run that times the
//! calls into each layer (`tep-crypto`, `tep-core`, `tep-storage`,
//! `tep-net`, `tep-query`) from this crate's own code. Nothing inside the
//! library is instrumented for the benchmark; the traced run reads only
//! what the public API already returns ([`tep_core::Metrics`], transfer
//! counters, the server's metric registry) and replays public calls on the
//! inputs of each operation.
//!
//! See `README.md` next to this crate for the workloads, the sizes, and the
//! layer-to-end-to-end map.

pub mod audit;
mod common;
pub mod fetch;
pub mod ingest;
mod net;

pub use common::{
    context_json, Config, Metric, Outcome, Scale, Workload, END_TO_END, FETCH_LAYER, PER_LAYER,
};

/// Runs the configured workload and returns its outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Ingest => ingest::run(cfg),
        Workload::Fetch => fetch::run(cfg),
        Workload::Audit => audit::run(cfg),
    }
}
