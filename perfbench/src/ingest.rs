//! `ingest`: one producer drives the paper's Setup C operation mix, plus
//! aggregates, through the tracker onto a durable log, syncing after every
//! tenth operation.

use crate::common::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tep_core::prelude::*;
use tep_core::{collect, Metrics};
use tep_model::relational::{RowHandle, TableHandle};
use tep_model::{AggregateMode, Forest, ObjectId, PrimitiveOp, Value};
use tep_obs::Registry;
use tep_workloads::{
    build_database, paper_database, setup_c_mix, TablePlan, TableSpec, PAPER_C_MIXES, PAPER_TABLES,
};

/// Aggregates appended after each 500-operation Setup C mix (5%).
const AGGREGATES_PER_MIX: usize = 25;

/// The paper's Setup C mixes (`PAPER_C_MIXES` indexes) the run cycles
/// through. Their deletes and inserts nearly cancel (net −24 rows per
/// cycle of 2000 operations), so the table keeps its size however long the
/// run lasts and the per-operation cost does not drift. The fourth mix (78%
/// deletes) would shrink the table by 342 rows per mix.
const MIX_CYCLE: [usize; 4] = [0, 1, 0, 2];

/// Objects whose provenance is re-verified after the run.
const VERIFY_SAMPLE: usize = 16;

/// Every this-many-th operation ends with `ProvenanceDb::sync` (group
/// commit). Syncing after every operation let fsync stalls from other
/// tenants of a shared disk decide the 99th percentile: in three of four
/// trial runs, more than half of the slowest 1% of operations of a window
/// held an fsync of over 1 ms.
const SYNC_EVERY: u64 = 10;

/// The flush policy, stated in every result.
const FLUSH_POLICY: &str =
    "group commit: ProvenanceDb::sync after every 10th operation and at the end of each measured phase";

/// One operation of the stream.
enum Op {
    /// One Setup C complex operation (row delete, row insert or cell
    /// update).
    Complex(Vec<PrimitiveOp>),
    /// An atomic aggregate over live rows, chosen when it runs.
    Aggregate,
}

/// The operation stream: Setup C mixes generated against the table's live
/// state, each followed by aggregates.
///
/// A [`TablePlan`] assigns ids to planned inserts assuming nothing else
/// allocates ids, while each aggregate allocates one. So a mix is planned
/// from the live table only after the previous mix's aggregates ran.
struct OpStream {
    seed: u64,
    mixes: u64,
    queue: VecDeque<Op>,
}

impl OpStream {
    fn next(&mut self, forest: &Forest, table: ObjectId) -> Op {
        if self.queue.is_empty() {
            let mut plan = TablePlan::new(
                &table_handle(forest, table),
                PAPER_TABLES[0].num_attrs,
                forest.next_id_hint(),
            );
            let mix = PAPER_C_MIXES[MIX_CYCLE[self.mixes as usize % MIX_CYCLE.len()]];
            let mix_seed = self.seed ^ self.mixes.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.mixes += 1;
            self.queue.extend(
                setup_c_mix(&mut plan, mix, mix_seed)
                    .into_iter()
                    .map(Op::Complex),
            );
            self.queue
                .extend(std::iter::repeat_with(|| Op::Aggregate).take(AGGREGATES_PER_MIX));
        }
        self.queue.pop_front().expect("queue refilled above")
    }
}

/// The live rows and cells of `table`.
fn table_handle(forest: &Forest, table: ObjectId) -> TableHandle {
    let children = |id| {
        forest
            .node(id)
            .map(|n| n.children().collect::<Vec<_>>())
            .unwrap_or_default()
    };
    TableHandle {
        id: table,
        rows: children(table)
            .into_iter()
            .map(|id| RowHandle {
                id,
                cells: children(id),
            })
            .collect(),
    }
}

struct Fixture {
    keys: Keys,
    tracker: ProvenanceTracker,
    db: Arc<ProvenanceDb>,
    log: PathBuf,
    table: ObjectId,
}

fn setup(cfg: &Config, i: usize) -> Result<Fixture, String> {
    let keys = make_keys(1);
    let synthetic = match cfg.scale {
        Scale::Full => paper_database(1, cfg.seed),
        Scale::Tiny => build_database(
            &[TableSpec {
                name: "table1",
                num_attrs: PAPER_TABLES[0].num_attrs,
                num_rows: 400,
            }],
            cfg.seed,
        ),
    };
    let table = synthetic.tables[0].id;
    let dir = cfg.scratch.join(format!("ingest-{i}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let log = dir.join("provenance.teplog");
    let db = Arc::new(ProvenanceDb::durable(&log).map_err(|e| format!("opening log: {e}"))?);
    let mut tracker = ProvenanceTracker::adopt(
        synthetic.forest,
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    tracker
        .record_genesis(&keys.participants[0])
        .map_err(|e| format!("genesis: {e}"))?;
    db.sync().map_err(|e| format!("sync: {e}"))?;
    Ok(Fixture {
        keys,
        tracker,
        db,
        log,
        table,
    })
}

/// Per-layer sums over a traced phase.
#[derive(Default)]
struct Traced {
    metrics: Metrics,
    sync_ns: u64,
    syncs: u64,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let _scratch = ScratchDir::create(&cfg.scratch)?;
    let (mut fx, setup_times) = repeat_setup(|i| setup(cfg, i))?;
    let signer = fx.keys.participants[0].clone();
    let mut stream = OpStream {
        seed: cfg.seed,
        mixes: 0,
        queue: VecDeque::new(),
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA66E_6A7E);
    let mut touched: BTreeSet<ObjectId> = BTreeSet::new();
    let log_len = |path: &PathBuf| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);

    let cycle_ops = MIX_CYCLE
        .iter()
        .map(|&m| PAPER_C_MIXES[m].total() + AGGREGATES_PER_MIX)
        .sum();
    let (untraced_budget, traced_budget) = Budget::phases(cfg, cycle_ops);
    let mut traced = Traced::default();
    let log_start = log_len(&fx.log);
    let mut measure = |fx: &mut Fixture, traced: Option<&mut Traced>, i: u64| -> Sample {
        let op = stream.next(fx.tracker.forest(), fx.table);
        let inputs = match op {
            Op::Aggregate => live_rows(fx.tracker.forest(), fx.table, &mut rng),
            Op::Complex(_) => Vec::new(),
        };
        let value = Value::Int(rng.gen_range(0..1_000_000));
        let t = Instant::now();
        let result = match &op {
            Op::Complex(ops) => fx.tracker.complex(&signer, ops).map(|r| (r.metrics, None)),
            Op::Aggregate => fx
                .tracker
                .aggregate(&signer, &inputs, value, AggregateMode::Atomic)
                .map(|(out, m)| (m, Some(out))),
        };
        let syncs = i % SYNC_EVERY == SYNC_EVERY - 1;
        let (synced, sync_ns) = if syncs {
            timed(|| fx.db.sync())
        } else {
            (Ok(()), 0)
        };
        let ns = t.elapsed().as_nanos() as u64;
        match (result, synced) {
            (Ok((m, created)), Ok(())) => {
                if let Some(t) = traced {
                    t.metrics.accumulate(&m);
                    t.sync_ns += sync_ns;
                    t.syncs += u64::from(syncs);
                }
                touched.extend(op_targets(&op).chain(created));
                Sample {
                    ns,
                    ok: m.records > 0,
                    records: m.records,
                }
            }
            _ => Sample {
                ns,
                ok: false,
                records: 0,
            },
        }
    };

    let untraced = Phase::run(untraced_budget, |i| measure(&mut fx, None, i));
    fx.db.sync().map_err(|e| format!("sync: {e}"))?;
    let bytes = per(
        log_len(&fx.log).saturating_sub(log_start) as f64,
        untraced.records() as f64,
    );
    let layers = traced_budget.map(|budget| {
        let registry = Registry::new();
        fx.tracker.attach_obs(&registry);
        let tp = Phase::run(budget, |i| measure(&mut fx, Some(&mut traced), i));
        let l = layer_metrics(&untraced, &tp, &traced, &registry);
        (tp, l)
    });
    fx.db.sync().map_err(|e| format!("sync: {e}"))?;

    let check = post_check(fx, &touched, cfg.seed)?;
    let mut context = base_context(cfg, &setup_times);
    context.push(("flush_policy", json_str(FLUSH_POLICY)));
    context.push(("sign_threads", "1".to_string()));
    context.push(("table_rows_at_start", rows_at_start(cfg).to_string()));
    let cycle: Vec<String> = MIX_CYCLE
        .iter()
        .map(|&m| format!("{:?}", PAPER_C_MIXES[m]))
        .collect();
    context.push(("setup_c_mix_cycle", json_str(&cycle.join(", "))));
    context.push(("aggregates_per_mix", AGGREGATES_PER_MIX.to_string()));
    context.push(("post_check", json_str(&check.summary)));
    finish(
        &untraced,
        layers,
        &setup_times,
        bytes,
        check.failed,
        context,
    )
}

fn rows_at_start(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Full => PAPER_TABLES[0].num_rows,
        Scale::Tiny => 400,
    }
}

/// Two to four distinct live rows of `table`.
fn live_rows(forest: &Forest, table: ObjectId, rng: &mut StdRng) -> Vec<ObjectId> {
    let rows: Vec<ObjectId> = forest
        .node(table)
        .map(|n| n.children().collect())
        .unwrap_or_default();
    let want = rng.gen_range(2..5usize).min(rows.len());
    let mut picked = BTreeSet::new();
    while picked.len() < want {
        picked.insert(rows[rng.gen_range(0..rows.len())]);
    }
    picked.into_iter().collect()
}

/// Objects a complex operation inserts or updates (each gets a record,
/// besides the inherited records of their ancestors).
fn op_targets(op: &Op) -> impl Iterator<Item = ObjectId> + '_ {
    let ops: &[PrimitiveOp] = match op {
        Op::Complex(ops) => ops,
        Op::Aggregate => &[],
    };
    ops.iter().filter_map(|p| match p {
        PrimitiveOp::Update { id, .. } => Some(*id),
        PrimitiveOp::Insert { id, .. } => *id,
        _ => None,
    })
}

fn layer_metrics(untraced: &Phase, tp: &Phase, t: &Traced, registry: &Registry) -> Layers {
    let m = &t.metrics;
    let ops = tp.ops() as f64;
    let records = m.records as f64;
    let hits = registry.counter_value("tep_core_cache_hits_total") as f64;
    let misses = registry.counter_value("tep_core_cache_misses_total") as f64;
    let mut l = Layers::default();
    l.set(
        "crypto.sign_us_per_record",
        per(m.sign_ns as f64, records) / 1e3,
    );
    l.set(
        "crypto.sign_share",
        per(m.sign_ns as f64, tp.busy_ns() as f64),
    );
    l.set("core.hash_in_us", per(m.hash_input_ns as f64, ops) / 1e3);
    l.set("core.hash_out_us", per(m.hash_output_ns as f64, ops) / 1e3);
    l.set("core.nodes_hashed_per_op", per(m.nodes_hashed as f64, ops));
    l.set("core.records_per_op", per(records, ops));
    l.set("core.cache_hit_ratio", per(hits, hits + misses));
    l.set(
        "storage.append_us_per_record",
        per(m.store_ns as f64, records) / 1e3,
    );
    l.set(
        "storage.sync_us",
        per(t.sync_ns as f64, t.syncs as f64) / 1e3,
    );
    l.set("storage.syncs_per_op", per(t.syncs as f64, ops));
    let accounted = (m.total_ns() + t.sync_ns) as f64;
    l.set_trace(untraced, tp, accounted);
    l
}

struct Check {
    failed: u64,
    summary: String,
}

/// Reopens the durable log from disk and checks that it holds every record
/// the run appended (the run synced after the last operation of each
/// phase), then
/// re-verifies a seeded sample of the touched objects against their
/// current hashes.
fn post_check(mut fx: Fixture, touched: &BTreeSet<ObjectId>, seed: u64) -> Result<Check, String> {
    let appended = fx.db.all_records();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A3F_1E00);
    let live: Vec<ObjectId> = touched
        .iter()
        .copied()
        .filter(|&o| fx.tracker.forest().contains(o))
        .collect();
    let mut sample: BTreeSet<ObjectId> = BTreeSet::from([fx.table]);
    while sample.len() < (VERIFY_SAMPLE + 1).min(live.len() + 1) {
        sample.insert(live[rng.gen_range(0..live.len())]);
    }
    let mut expected = Vec::with_capacity(sample.len());
    for &oid in &sample {
        let hash = fx
            .tracker
            .object_hash(oid)
            .map_err(|e| format!("hashing {oid}: {e}"))?;
        expected.push((oid, hash));
    }
    // The tracker holds the store open; close both before reopening.
    let Fixture {
        keys,
        tracker,
        db,
        log,
        ..
    } = fx;
    drop(tracker);
    drop(db);

    let reopened = ProvenanceDb::durable(&log).map_err(|e| format!("reopening log: {e}"))?;
    let present = reopened.all_records();
    let intact = present == appended && !reopened.recovery().is_degraded();
    let mut failed = u64::from(!intact);
    let verifier = Verifier::new(&keys.dir, ALG);
    let mut bad = 0;
    for (oid, hash) in &expected {
        let ok = collect(&reopened, *oid)
            .map(|prov| verifier.verify(hash, &prov).verified())
            .unwrap_or(false);
        if !ok {
            bad += 1;
        }
    }
    failed += bad;
    Ok(Check {
        failed,
        summary: format!(
            "log reopened {} with {} of {} appended records, {} of {} sampled objects verified",
            if intact { "intact" } else { "DAMAGED" },
            present.len(),
            appended.len(),
            expected.len() as u64 - bad,
            expected.len()
        ),
    })
}
