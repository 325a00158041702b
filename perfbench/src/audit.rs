//! `audit`: one client asks provenance queries of an in-process server and
//! re-verifies every slice proof, while one operation in twenty is a
//! tracked write to the store being served.

use crate::common::*;
use crate::net::{handshake, ServerSnap, WireReplay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tep_core::prelude::*;
use tep_core::{Metrics, QueryBounds};
use tep_model::{AggregateMode, ObjectId, Value};
use tep_net::{serve, Catalog, Client, ClientConfig, Message, ServerConfig, ServerHandle};
use tep_obs::Registry;
use tep_query::QueryEngine;

/// Every this-many-th operation is a tracked write.
const WRITE_EVERY: u64 = 20;

/// Reads cycle through the four per-object operators six times, then ask
/// for one audit slice: audit slices are the rare, large reads. A fixed
/// cycle, rather than a random draw per read, gives every stretch of the
/// run the same share of audit slices.
const READ_CYCLE: usize = 25;

/// The operator of read number `r`.
fn read_op(r: u64) -> QueryOp {
    const PER_OBJECT: [QueryOp; 4] = [
        QueryOp::Ancestors,
        QueryOp::Descendants,
        QueryOp::LineageSlice,
        QueryOp::Polynomial,
    ];
    match (r % READ_CYCLE as u64) as usize {
        i if i == READ_CYCLE - 1 => QueryOp::AuditSlice,
        i => PER_OBJECT[i % PER_OBJECT.len()],
    }
}

/// Objects offered for plain fetches; queries reach every object.
const OFFERED: usize = 4;

/// DAG shape.
struct Sizes {
    participants: usize,
    records: usize,
    /// Records per derivation cluster: updates and aggregates draw their
    /// inputs from the current cluster only, which bounds every backward
    /// closure.
    cluster: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            participants: 5,
            records: 5000,
            cluster: 48,
        },
        Scale::Tiny => Sizes {
            participants: 3,
            records: 240,
            cluster: 24,
        },
    }
}

struct Fixture {
    keys: Keys,
    tracker: ProvenanceTracker,
    /// The benchmark's own engine over the served store: it answers every
    /// query again so the received answers can be checked.
    engine: QueryEngine,
    catalog: Arc<Catalog>,
    server: ServerHandle,
    /// Objects of each cluster, in creation order.
    clusters: Vec<Vec<ObjectId>>,
    /// Each cluster's last aggregate (or last object): backward-query
    /// targets whose closure spans the cluster.
    closers: Vec<ObjectId>,
    /// Each cluster's first object: forward-query targets.
    firsts: Vec<ObjectId>,
}

fn setup(cfg: &Config) -> Result<Fixture, String> {
    let sz = sizes(cfg.scale);
    let keys = make_keys(sz.participants);
    let db = Arc::new(ProvenanceDb::in_memory());
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    let err = |e: tep_core::CoreError| e.to_string();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut clusters, mut closers, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    let mut cur: Vec<ObjectId> = Vec::new();
    let mut last_agg: Option<ObjectId> = None;
    let mut ops = 0usize;
    // The operation mix of `tep_workloads::lineage` (30% insert, 50%
    // update, 20% aggregate of 2–4 cluster objects), but signed for real.
    for n in 0..=sz.records {
        if ops == sz.cluster || n == sz.records {
            closers.push(last_agg.take().unwrap_or(cur[cur.len() - 1]));
            firsts.push(cur[0]);
            clusters.push(std::mem::take(&mut cur));
            ops = 0;
        }
        if n == sz.records {
            break;
        }
        ops += 1;
        let who = &keys.participants[rng.gen_range(0..sz.participants)];
        let value = Value::Int(rng.gen_range(0..1_000_000));
        let roll = rng.gen_range(0..100u32);
        if roll < 30 || cur.len() < 2 {
            let (oid, _) = tracker.insert(who, value, None).map_err(err)?;
            cur.push(oid);
        } else if roll < 80 {
            let oid = cur[rng.gen_range(0..cur.len())];
            tracker.update(who, oid, value).map_err(err)?;
        } else {
            let inputs = pick_distinct(&cur, rng.gen_range(2..5usize), &mut rng);
            let (oid, _) = tracker
                .aggregate(who, &inputs, value, AggregateMode::Atomic)
                .map_err(err)?;
            cur.push(oid);
            last_agg = Some(oid);
        }
    }

    let engine = QueryEngine::new(Arc::clone(&db), ALG);
    engine.sync();
    let catalog = Arc::new(Catalog::new(
        tracker.forest().clone(),
        Arc::clone(&db),
        ALG,
        firsts.iter().take(OFFERED).copied().collect(),
    ));
    let server = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0".parse().expect("literal address"),
        ServerConfig::default(),
    )
    .map_err(|e| format!("starting server: {e}"))?;
    // The server's engine builds its index on the first query.
    Client::new(server.addr(), ClientConfig::new(ALG))
        .query(&QuerySpec::audit(ParticipantId(1)), &keys.dir)
        .map_err(|e| format!("warm-up query: {e}"))?;
    Ok(Fixture {
        keys,
        tracker,
        engine,
        catalog,
        server,
        clusters,
        closers,
        firsts,
    })
}

/// `n` distinct objects of `from` (all of them if it has fewer).
fn pick_distinct(from: &[ObjectId], n: usize, rng: &mut StdRng) -> Vec<ObjectId> {
    let mut picked = BTreeSet::new();
    while picked.len() < n.min(from.len()) {
        picked.insert(from[rng.gen_range(0..from.len())]);
    }
    picked.into_iter().collect()
}

/// Per-layer sums over a traced phase.
#[derive(Default)]
struct Traced {
    reads: u64,
    writes: u64,
    write_metrics: Metrics,
    offer_ns: u64,
    sync_ns: u64,
    fresh_syncs: u64,
    fresh_sync_ns: u64,
    execute_ns: u64,
    executes: u64,
    audit_execute_ns: u64,
    audits: u64,
    verify_slice_ns: u64,
    rsa_ns: u64,
    slice_records: u64,
    proof_bytes: u64,
    wire: WireReplay,
    mismatches: u64,
}

/// The query of read number `r`, with a uniformly drawn target.
fn read_spec(fx: &Fixture, r: u64, rng: &mut StdRng) -> QuerySpec {
    let op = read_op(r);
    let target = match op {
        QueryOp::AuditSlice => {
            let participants = fx.keys.participants.len() as u64;
            return QuerySpec::audit(ParticipantId(1 + rng.gen_range(0..participants)));
        }
        QueryOp::Descendants => fx.firsts[rng.gen_range(0..fx.firsts.len())],
        _ => fx.closers[rng.gen_range(0..fx.closers.len())],
    };
    QuerySpec {
        op,
        target,
        participant: None,
        bounds: QueryBounds::default(),
    }
}

/// One tracked write: alternately an update of any object, or an
/// aggregate of two or three objects of one cluster.
fn write(fx: &mut Fixture, w: u64, rng: &mut StdRng) -> (Result<Metrics, String>, u64) {
    let who = fx.keys.participants[rng.gen_range(0..fx.keys.participants.len())].clone();
    let value = Value::Int(rng.gen_range(0..1_000_000));
    let c = rng.gen_range(0..fx.clusters.len());
    if w.is_multiple_of(2) {
        let oid = fx.clusters[c][rng.gen_range(0..fx.clusters[c].len())];
        let (res, ns) = timed(|| fx.tracker.update(&who, oid, value));
        (res.map_err(|e| e.to_string()), ns)
    } else {
        let inputs = pick_distinct(&fx.clusters[c], rng.gen_range(2..4usize), rng);
        let (res, ns) = timed(|| {
            fx.tracker
                .aggregate(&who, &inputs, value, AggregateMode::Atomic)
        });
        match res {
            Ok((oid, m)) => {
                fx.clusters[c].push(oid);
                (Ok(m), ns)
            }
            Err(e) => (Err(e.to_string()), ns),
        }
    }
}

/// Re-runs the query on the benchmark's own engine and checks that the
/// received proof is exactly the one it produces; when traced, also times
/// each layer's share of the operation on the received proof.
fn check_read(fx: &Fixture, spec: &QuerySpec, proof: &SliceProof, t: Option<&mut Traced>) -> bool {
    let (fresh, sync_ns) = timed(|| fx.engine.sync());
    let (reference, execute_ns) = timed(|| fx.engine.execute(spec));
    let same = reference.as_ref().ok() == Some(proof);
    let Some(t) = t else {
        return same;
    };
    let (offer, offer_ns) = timed(|| fx.catalog.offer_entries());
    let (verified, verify_ns) = timed(|| Verifier::new(&fx.keys.dir, ALG).verify_slice(proof));
    let checksums: HashMap<(ObjectId, u64), Vec<u8>> = proof
        .records
        .iter()
        .map(|r| ((r.output_oid, r.seq_id), r.checksum.clone()))
        .chain(
            proof
                .boundary
                .iter()
                .map(|b| ((b.oid, b.seq), b.checksum.clone())),
        )
        .collect();
    let rsa_ns = time_rsa_verify(&fx.keys.dir, &proof.records, &checksums);
    let bytes = proof.to_bytes();
    let proof_bytes = bytes.len() as u64;
    let mut msgs = handshake(offer);
    msgs.push(Message::Query { spec: *spec });
    msgs.push(Message::QResult { proof: bytes });
    let wire_ok = t.wire.replay(&msgs);

    t.reads += 1;
    t.offer_ns += offer_ns;
    t.sync_ns += sync_ns;
    if fresh > 0 {
        t.fresh_syncs += 1;
        t.fresh_sync_ns += sync_ns;
    }
    if spec.op == QueryOp::AuditSlice {
        t.audits += 1;
        t.audit_execute_ns += execute_ns;
    } else {
        t.executes += 1;
        t.execute_ns += execute_ns;
    }
    t.verify_slice_ns += verify_ns;
    t.rsa_ns += rsa_ns.unwrap_or(0);
    t.slice_records += proof.records.len() as u64;
    t.proof_bytes += proof_bytes;
    let ok = same && verified.verified() && rsa_ns.is_some() && wire_ok;
    if !ok {
        t.mismatches += 1;
    }
    ok
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sz = sizes(cfg.scale);
    let (mut fx, setup_times) = repeat_setup(|_| setup(cfg))?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA0D1_7000);
    let mut client = Client::new(fx.server.addr(), ClientConfig::new(ALG));
    let mut traced = Traced::default();

    let mut measure = |fx: &mut Fixture,
                       client: &mut Client,
                       mut traced: Option<&mut Traced>,
                       i: u64|
     -> Sample {
        if i % WRITE_EVERY == WRITE_EVERY - 1 {
            let (res, ns) = write(fx, i / WRITE_EVERY, &mut rng);
            let ok = matches!(&res, Ok(m) if m.records == 1);
            if let (Some(t), Ok(m)) = (traced.as_deref_mut(), &res) {
                t.writes += 1;
                t.write_metrics.accumulate(m);
            }
            return Sample { ns, ok, records: 0 };
        }
        let spec = read_spec(fx, i - i / WRITE_EVERY, &mut rng);
        let (res, ns) = timed(|| client.query(&spec, &fx.keys.dir));
        let Ok(report) = res else {
            return Sample {
                ns,
                ok: false,
                records: 0,
            };
        };
        let ok = report.verification.verified() && check_read(fx, &spec, &report.proof, traced);
        Sample {
            ns,
            ok,
            records: if ok {
                report.proof.records.len() as u64
            } else {
                0
            },
        }
    };

    // 20 operations hold 19 reads, so the read cycle and the writes line
    // up again every 20 × 25 = 500 operations.
    let cycle_ops = WRITE_EVERY as usize * READ_CYCLE;
    let (untraced_budget, traced_budget) = Budget::phases(cfg, 2 * cycle_ops);
    let c0 = client.counters();
    let untraced = Phase::run(untraced_budget, |i| measure(&mut fx, &mut client, None, i));
    let c1 = client.counters();
    let bytes = per(
        (c1.bytes_received - c0.bytes_received) as f64,
        untraced.records() as f64,
    );

    let layers = traced_budget.map(|budget| {
        let registry = Registry::new();
        client.attach_obs(&registry);
        fx.tracker.attach_obs(&registry);
        let client_before = client.counters();
        let server_before = ServerSnap::take(fx.server.registry());
        let tp = Phase::run(budget, |i| {
            measure(&mut fx, &mut client, Some(&mut traced), i)
        });
        let client_after = client.counters();
        let server_after = ServerSnap::take(fx.server.registry());

        let t = &traced;
        let m = &t.write_metrics;
        let (ops, reads, writes) = (tp.ops() as f64, t.reads as f64, t.writes as f64);
        let hits = registry.counter_value("tep_core_cache_hits_total") as f64;
        let misses = registry.counter_value("tep_core_cache_misses_total") as f64;
        let mut l = Layers::default();
        l.set(
            "crypto.sign_us_per_record",
            per(m.sign_ns as f64, m.records as f64) / 1e3,
        );
        l.set(
            "crypto.sign_share",
            per(m.sign_ns as f64, tp.busy_ns() as f64),
        );
        l.set(
            "crypto.verify_us_per_record",
            per(t.rsa_ns as f64, t.slice_records as f64) / 1e3,
        );
        l.set("core.hash_in_us", per(m.hash_input_ns as f64, writes) / 1e3);
        l.set(
            "core.hash_out_us",
            per(m.hash_output_ns as f64, writes) / 1e3,
        );
        l.set(
            "core.nodes_hashed_per_op",
            per(m.nodes_hashed as f64, writes),
        );
        l.set(
            "core.records_per_op",
            per((t.slice_records + m.records) as f64, ops),
        );
        l.set("core.cache_hit_ratio", per(hits, hits + misses));
        l.set(
            "core.verify_slice_us",
            per(t.verify_slice_ns as f64, reads) / 1e3,
        );
        l.set(
            "storage.append_us_per_record",
            per(m.store_ns as f64, m.records as f64) / 1e3,
        );
        l.set(
            "query.execute_us",
            per(t.execute_ns as f64, t.executes as f64) / 1e3,
        );
        l.set(
            "query.execute_audit_us",
            per(t.audit_execute_ns as f64, t.audits as f64) / 1e3,
        );
        l.set(
            "query.sync_us",
            per(t.fresh_sync_ns as f64, t.fresh_syncs as f64) / 1e3,
        );
        l.set("query.slice_records", per(t.slice_records as f64, reads));
        l.set("query.proof_bytes", per(t.proof_bytes as f64, reads));
        crate::net::set_layers(
            &mut l,
            ops,
            (client_before, client_after),
            (server_before, server_after),
            &t.wire,
            t.offer_ns,
        );
        let accounted = (t.offer_ns
            + t.sync_ns
            + t.execute_ns
            + t.audit_execute_ns
            + t.wire.encode_ns
            + t.wire.decode_ns
            + t.verify_slice_ns
            + m.total_ns()) as f64;
        l.set_trace(&untraced, &tp, accounted);
        (tp, l)
    });

    let mut context = base_context(cfg, &setup_times);
    context.push((
        "flush_policy",
        json_str("none: in-memory store, writes appended in place"),
    ));
    context.push((
        "dag",
        format!(
            "{{\"participants\": {}, \"records_at_start\": {}, \"cluster_records\": {}, \"clusters\": {}}}",
            sz.participants,
            sz.records,
            sz.cluster,
            fx.closers.len()
        ),
    ));
    context.push(("write_every", WRITE_EVERY.to_string()));
    let cycle: Vec<&str> = (0..READ_CYCLE as u64).map(|r| read_op(r).name()).collect();
    context.push(("read_cycle", json_str(&cycle.join(" "))));
    context.push(("replay_mismatches", traced.mismatches.to_string()));
    let outcome = finish(&untraced, layers, &setup_times, bytes, 0, context);
    fx.server.shutdown();
    outcome
}
