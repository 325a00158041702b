//! Configuration, fixtures and measurement helpers shared by the workloads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tep_core::prelude::*;
use tep_core::record::checksum_message;
use tep_core::ProvenanceRecord;
use tep_model::ObjectId;

/// Hash algorithm of every fixture (the paper's choice).
pub(crate) const ALG: HashAlgorithm = HashAlgorithm::Sha1;

/// RSA modulus size of every key (the paper's 1024-bit keys, 128-byte
/// checksums).
pub(crate) const KEY_BITS: usize = 1024;

/// Keys come from a fixed seed, not the workload seed: prime search takes
/// a seed-dependent time, and key generation is part of `setup_s`, so a
/// fixed seed keeps set-up time comparable across workload seeds.
const KEY_SEED: u64 = 0x7E9D_B0B5;

/// End-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("records_per_s", "1/s"),
    ("bytes_per_record", "bytes"),
    ("op_ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`, as
/// `(name, unit)`. A layer the workload does not enter reports 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("crypto.sign_us_per_record", "us"),
    ("crypto.sign_share", "ratio"),
    ("crypto.verify_us_per_record", "us"),
    ("core.hash_in_us", "us"),
    ("core.hash_out_us", "us"),
    ("core.nodes_hashed_per_op", "count"),
    ("core.records_per_op", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.verify_slice_us", "us"),
    ("storage.append_us_per_record", "us"),
    ("storage.sync_us", "us"),
    ("storage.syncs_per_op", "count"),
    ("net.offer_us", "us"),
    ("net.encode_us_per_frame", "us"),
    ("net.decode_us_per_frame", "us"),
    ("net.frames_per_op", "count"),
    ("net.server_turnaround_us", "us"),
    ("net.wakeups_per_op", "count"),
    ("net.retries", "count"),
    ("net.sheds", "count"),
    ("query.execute_us", "us"),
    ("query.execute_audit_us", "us"),
    ("query.sync_us", "us"),
    ("query.slice_records", "count"),
    ("query.proof_bytes", "bytes"),
    ("trace.residual_us_per_op", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Per-layer metrics only `fetch` enters, reported after [`PER_LAYER`] by
/// its traced runs.
pub const FETCH_LAYER: [(&str, &str); 3] = [
    ("core.collect_us", "us"),
    ("core.stream_verify_us_per_record", "us"),
    ("core.data_hash_us", "us"),
];

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Tracked operations signed and appended to a durable log.
    Ingest,
    /// Verified object fetches over loopback TCP.
    Fetch,
    /// Verified provenance queries interleaved with tracked writes.
    Audit,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Fetch, Workload::Audit];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Fetch => "fetch",
            Workload::Audit => "audit",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Fixture sizes: `Full` is what the benchmark measures; `Tiny` exists for
/// the self-tests, which need every code path in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The documented benchmark sizes.
    Full,
    /// Minimal sizes for smoke tests.
    Tiny,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds (split in two halves, untraced then traced, when
    /// `trace` is set).
    pub seconds: f64,
    /// Produce per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fixture sizes.
    pub scale: Scale,
    /// Caps the operations of each measured phase, so that two runs do
    /// exactly the same work (used by the determinism self-test).
    pub max_ops: Option<u64>,
    /// Serve a catalog with one record altered (`fetch` only): every fetch
    /// of that object must then fail verification.
    pub tamper: bool,
    /// Directory for the durable log and other run files; created if
    /// missing, removed when the run ends.
    pub scratch: PathBuf,
}

impl Config {
    /// The configuration the command line uses.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, scratch: PathBuf) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            max_ops: None,
            tamper: false,
            scratch,
        }
    }
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed an output check
    /// (plus failed post-run checks).
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Run description: `(key, JSON value)`.
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The machine's available parallelism.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub(crate) fn git_revision() -> String {
    fn read(p: &Path) -> Option<String> {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    }
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Renders the run context as one JSON object.
pub fn context_json(context: &[(&'static str, String)]) -> String {
    let body: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Context entries every workload shares.
pub(crate) fn base_context(cfg: &Config, setup_times: &[f64]) -> Vec<(&'static str, String)> {
    let setups: Vec<String> = setup_times.iter().map(|s| format!("{s:.6}")).collect();
    vec![
        ("workload", json_str(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", cfg.trace.to_string()),
        ("nproc", nproc().to_string()),
        ("git_revision", json_str(&git_revision())),
        ("key_bits", KEY_BITS.to_string()),
        ("hash_alg", json_str(&format!("{ALG:?}"))),
        ("setup_runs_s", format!("[{}]", setups.join(", "))),
    ]
}

/// A certificate authority's key directory plus `n` enrolled participants
/// (ids `1..=n`).
pub(crate) struct Keys {
    pub participants: Vec<Participant>,
    pub dir: KeyDirectory,
}

pub(crate) fn make_keys(n: usize) -> Keys {
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    let ca = CertificateAuthority::new(KEY_BITS, ALG, &mut rng);
    let mut dir = KeyDirectory::new(ca.public_key().clone(), ALG);
    let participants: Vec<Participant> = (1..=n as u64)
        .map(|id| ca.enroll(ParticipantId(id), KEY_BITS, &mut rng))
        .collect();
    for p in &participants {
        dir.register(p.certificate().clone())
            .expect("the CA just issued this certificate");
    }
    Keys { participants, dir }
}

/// Set-up runs at least this many times; `setup_s` is the median.
const SETUPS: usize = 3;

/// Set-up repeats until this much time has passed, so that a short set-up
/// (`ingest`: under 0.1 s) is sampled over seconds rather than over one
/// moment of the machine.
const SETUP_SECONDS: f64 = 2.0;

/// Runs `setup` at least [`SETUPS`] times and for at least
/// [`SETUP_SECONDS`], and keeps the last fixture; returns it with each
/// run's wall time in seconds. Earlier fixtures are dropped before the
/// next set-up starts, so at most one is alive.
pub(crate) fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let start = Instant::now();
    let mut kept = None;
    let mut times = Vec::new();
    while times.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(times.len())?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// The median of `xs` (mean of the middle two for even lengths).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `xs`.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// when `/proc/self/status` does not give it.
fn peak_rss_mib() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
}

/// How long a measured phase runs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Budget {
    pub seconds: f64,
    pub max_ops: Option<u64>,
    /// Operations per window of the windowed statistics.
    pub window_ops: usize,
}

impl Budget {
    /// The measured phases of a run: one untraced phase, or an untraced
    /// and a traced half. `window_ops` is a whole number of cycles of the
    /// workload's operation pattern, so that every window holds the same
    /// mix of operations; it should be at least 1000, so that each
    /// window's 99th percentile still has ten samples beyond it.
    pub fn phases(cfg: &Config, window_ops: usize) -> (Budget, Option<Budget>) {
        let budget = Budget {
            seconds: if cfg.trace {
                cfg.seconds / 2.0
            } else {
                cfg.seconds
            },
            max_ops: cfg.max_ops,
            window_ops,
        };
        (budget, cfg.trace.then_some(budget))
    }
}

/// One operation's outcome as the closed loop sees it.
pub(crate) struct Sample {
    /// Time from request to verified reply (or to the tracked operation's
    /// return, including its sync on the operations that sync).
    pub ns: u64,
    /// The operation succeeded and passed its output checks.
    pub ok: bool,
    /// Records signed (ingest) or verified (fetch, audit) by the operation.
    pub records: u64,
}

/// `peak_rss_mib` is read when a phase has completed this many operations
/// (or when it ends, if it completes fewer). `ingest` memory grows with
/// every operation, so a reading at the end of a fixed-time run would
/// grow with throughput; a reading after a fixed amount of work does not.
const RSS_AT_OPS: u64 = 5000;

/// The operations of one measured phase.
#[derive(Default)]
pub(crate) struct Phase {
    pub lat_ns: Vec<u64>,
    /// Records of each operation, parallel to `lat_ns`.
    pub op_records: Vec<u64>,
    pub failed: u64,
    /// Operations per window of the windowed statistics.
    pub window_ops: usize,
    /// Peak resident memory in MiB after [`RSS_AT_OPS`] operations.
    pub peak_rss_mib: Option<f64>,
}

/// Rate, median and 99th-percentile latency of one window of operations.
struct Window {
    ops_per_s: f64,
    records_per_s: f64,
    p50_ns: u64,
    p99_ns: u64,
}

impl Phase {
    /// Runs `op(i)` for i = 0, 1, … in a closed loop until the budget is
    /// spent. Work `op` does besides the timed request (output checks,
    /// trace replays) counts toward the wall-clock budget but not toward
    /// the operation's latency.
    pub fn run(budget: Budget, mut op: impl FnMut(u64) -> Sample) -> Phase {
        let mut phase = Phase {
            window_ops: budget.window_ops,
            ..Phase::default()
        };
        let deadline = Instant::now() + Duration::from_secs_f64(budget.seconds);
        let mut i = 0u64;
        while budget.max_ops.is_none_or(|m| i < m)
            && (budget.max_ops.is_some() || Instant::now() < deadline)
        {
            let s = op(i);
            phase.lat_ns.push(s.ns);
            phase.op_records.push(s.records);
            if !s.ok {
                phase.failed += 1;
            }
            i += 1;
            if i == RSS_AT_OPS {
                phase.peak_rss_mib = peak_rss_mib();
            }
        }
        if i < RSS_AT_OPS {
            phase.peak_rss_mib = peak_rss_mib();
        }
        phase
    }

    pub fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Records signed or verified by the phase's operations.
    pub fn records(&self) -> u64 {
        self.op_records.iter().sum()
    }

    /// Total time spent inside operations.
    pub fn busy_ns(&self) -> u64 {
        self.lat_ns.iter().sum()
    }

    /// Consecutive windows of `window_ops` operations (a trailing partial
    /// window is dropped), or one window of every operation when the
    /// phase is shorter than that.
    fn windows(&self) -> Vec<Window> {
        let size = if self.lat_ns.len() < self.window_ops {
            self.lat_ns.len().max(1)
        } else {
            self.window_ops
        };
        self.lat_ns
            .chunks_exact(size)
            .zip(self.op_records.chunks_exact(size))
            .map(|(lat, rec)| {
                let busy_s = lat.iter().sum::<u64>().max(1) as f64 / 1e9;
                let mut sorted = lat.to_vec();
                sorted.sort_unstable();
                Window {
                    ops_per_s: lat.len() as f64 / busy_s,
                    records_per_s: rec.iter().sum::<u64>() as f64 / busy_s,
                    p50_ns: percentile(&sorted, 0.50),
                    p99_ns: percentile(&sorted, 0.99),
                }
            })
            .collect()
    }

    /// How many windows the windowed statistics are medians over.
    pub fn window_count(&self) -> usize {
        self.windows().len()
    }

    /// Median over windows of each window's operations per second.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.windows().iter().map(|w| w.ops_per_s).collect();
        median(&rates)
    }
}

/// The end-to-end metrics of an untraced phase. Rates and latency
/// percentiles are medians over windows of `window_ops` operations, so a
/// few seconds of interference from other tenants of a shared machine move
/// them less than they would move a whole-run figure.
pub(crate) fn end_to_end(
    phase: &Phase,
    setup_times: &[f64],
    bytes_per_record: f64,
) -> Result<Vec<Metric>, String> {
    let windows = phase.windows();
    let med = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let attempted = phase.ops().max(1) as f64;
    let values = [
        med(|w| w.ops_per_s),
        med(|w| w.p50_ns as f64) / 1e3,
        med(|w| w.p99_ns as f64) / 1e3,
        med(|w| w.records_per_s),
        bytes_per_record,
        (attempted - phase.failed as f64) / attempted,
        median(setup_times),
        phase.peak_rss_mib.ok_or("no VmHWM in /proc/self/status")?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect())
}

/// Assembles a run's outcome: the end-to-end metrics of the untraced
/// phase, or the layer metrics when a traced phase ran. `post_failed`
/// counts failed checks made after timing.
pub(crate) fn finish(
    untraced: &Phase,
    traced: Option<(Phase, Layers)>,
    setup_times: &[f64],
    bytes_per_record: f64,
    post_failed: u64,
    mut context: Vec<(&'static str, String)>,
) -> Result<Outcome, String> {
    context.push(("op_samples", untraced.ops().to_string()));
    context.push(("windows", untraced.window_count().to_string()));
    context.push(("window_ops", untraced.window_ops.to_string()));
    let mut attempted = untraced.ops();
    let mut failed = untraced.failed + post_failed;
    let metrics = match traced {
        None => end_to_end(untraced, setup_times, bytes_per_record)?,
        Some((tp, layers)) => {
            context.push(("traced_op_samples", tp.ops().to_string()));
            attempted += tp.ops();
            failed += tp.failed;
            layers.into_metrics()
        }
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        context,
    })
}

/// Per-layer values of a traced phase; every [`PER_LAYER`] name not set
/// reports 0.
#[derive(Default)]
pub(crate) struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER
                .iter()
                .chain(&FETCH_LAYER)
                .any(|(n, _)| *n == name),
            "{name}"
        );
        self.0.insert(name, value);
    }

    /// Sets the tracing figures: the share of operation time the timed
    /// layer calls account for, the per-operation remainder, and how much
    /// slower the traced phase ran than the untraced one.
    pub fn set_trace(&mut self, untraced: &Phase, traced: &Phase, accounted_ns: f64) {
        let busy = traced.busy_ns().max(1) as f64;
        let ops = traced.ops().max(1) as f64;
        self.set("trace.coverage", accounted_ns / busy);
        self.set(
            "trace.residual_us_per_op",
            (busy - accounted_ns) / ops / 1e3,
        );
        self.set(
            "trace.overhead",
            1.0 - traced.ops_per_s() / untraced.ops_per_s(),
        );
    }

    /// Every [`PER_LAYER`] metric, then the [`FETCH_LAYER`] metrics that
    /// were set.
    pub fn into_metrics(self) -> Vec<Metric> {
        let fetch_only = FETCH_LAYER
            .iter()
            .filter(|(name, _)| self.0.contains_key(name));
        PER_LAYER
            .iter()
            .chain(fetch_only)
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Mean of a sum over a count, 0 when nothing was counted.
pub(crate) fn per(sum: f64, count: f64) -> f64 {
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// Nanoseconds `f` took, with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Times one RSA signature check per record with the signer's public key,
/// over the same message the verifiers rebuild. `checksums` must hold the
/// checksum of every predecessor a record chains to. Returns the total
/// nanoseconds spent inside `RsaPublicKey::verify`, or `None` if a
/// signature does not check out.
pub(crate) fn time_rsa_verify(
    keys: &KeyDirectory,
    records: &[ProvenanceRecord],
    checksums: &HashMap<(ObjectId, u64), Vec<u8>>,
) -> Option<u64> {
    let mut ns = 0u64;
    for r in records {
        let prevs: Vec<&[u8]> = r
            .inputs
            .iter()
            .filter_map(|i| i.prev_seq.map(|s| (i.oid, s)))
            .map(|k| checksums.get(&k).map(Vec::as_slice))
            .collect::<Option<_>>()?;
        let msg = checksum_message(
            ALG,
            r.kind,
            r.seq_id,
            &r.inputs,
            r.output_oid,
            &r.output_hash,
            &r.annotation,
            &prevs,
        );
        let key = keys.public_key(r.participant).ok()?;
        let (res, t) = timed(|| key.verify(ALG, &msg, &r.checksum));
        res.ok()?;
        ns += t;
    }
    Some(ns)
}

/// Removes the run's scratch directory when dropped.
pub(crate) struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir(path.to_path_buf()))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
