//! `fetch`: one client fetches signed objects from an in-process server
//! and verifies each on receipt. Keys follow a Zipf skew over a catalog of
//! thousands of small rows and a few large tables.

use crate::common::*;
use crate::net::{handshake, ServerSnap, WireReplay};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use tep_core::attack::{apply_tamper, Tamper};
use tep_core::prelude::*;
use tep_core::streaming::DepthStreamHasher;
use tep_core::{collect, ProvenanceRecord};
use tep_model::encode::value_bytes;
use tep_model::{Forest, ObjectId, PrimitiveOp, Value};
use tep_net::wire::DATA_CHUNK_BYTES;
use tep_net::{
    serve, Catalog, Client, ClientConfig, DataEntry, Message, ServerConfig, ServerHandle,
};
use tep_obs::Registry;

/// Zipf exponent of the key draw.
const ZIPF_S: f64 = 0.99;

/// One fetch in this many asks for a table; the rest ask for rows.
const TABLE_EVERY: u64 = 10;

/// Row updates per set-up complex operation.
const UPDATES_PER_OP: usize = 50;

/// Catalog shape.
struct Sizes {
    /// Standalone row objects.
    rows: usize,
    /// Cells per row (rows inside tables too).
    cells: usize,
    /// Table objects.
    tables: usize,
    /// Rows per table.
    table_rows: usize,
    /// Records on each table's chain.
    table_records: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            rows: 2000,
            cells: 4,
            tables: 8,
            table_rows: 48,
            table_records: 160,
        },
        Scale::Tiny => Sizes {
            rows: 40,
            cells: 2,
            tables: 2,
            table_rows: 6,
            table_records: 12,
        },
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

struct Fixture {
    keys: Keys,
    /// Rows in popularity order (rank 0 is the hottest).
    rows: Vec<ObjectId>,
    /// Tables in popularity order.
    tables: Vec<ObjectId>,
    /// Each offered object's hash, from the tracker that built it.
    hashes: HashMap<ObjectId, Vec<u8>>,
    /// What the server serves, kept for the traced run's replays.
    forest: Forest,
    served: Arc<ProvenanceDb>,
    catalog: Arc<Catalog>,
    records: usize,
    server: ServerHandle,
}

fn setup(cfg: &Config) -> Result<Fixture, String> {
    let sz = sizes(cfg.scale);
    let keys = make_keys(1);
    let signer = &keys.participants[0];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut value = || Value::Int(rng.gen_range(0..1_000_000));

    // Rows and tables are separate roots; each gets a genesis record.
    let mut forest = Forest::new();
    let model = |e: tep_model::ModelError| e.to_string();
    let mut row_cells = Vec::with_capacity(sz.rows);
    for _ in 0..sz.rows {
        let row = forest.insert(Value::text("row"), None).map_err(model)?;
        let cells = (0..sz.cells)
            .map(|_| forest.insert(value(), Some(row)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(model)?;
        row_cells.push((row, cells));
    }
    let mut table_cells = Vec::with_capacity(sz.tables);
    for t in 0..sz.tables {
        let table = forest
            .insert(Value::text(format!("table{t}")), None)
            .map_err(model)?;
        let mut cells = Vec::new();
        for _ in 0..sz.table_rows {
            let row = forest.insert(Value::Null, Some(table)).map_err(model)?;
            for _ in 0..sz.cells {
                cells.push(forest.insert(value(), Some(row)).map_err(model)?);
            }
        }
        table_cells.push((table, cells));
    }
    let db = Arc::new(ProvenanceDb::in_memory());
    let mut tracker = ProvenanceTracker::adopt(
        forest,
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    let err = |e: tep_core::CoreError| e.to_string();
    tracker.record_genesis(signer).map_err(err)?;
    let threads = nproc().min(2);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF37C_4000);
    let update = |cells: &[ObjectId], rng: &mut StdRng| PrimitiveOp::Update {
        id: cells[rng.gen_range(0..cells.len())],
        value: Value::Int(rng.gen_range(0..1_000_000)),
    };
    // Each row gets one update on average, so rows carry 1 to ~6 records.
    let row_ops: Vec<PrimitiveOp> = (0..sz.rows)
        .map(|_| update(&row_cells[rng.gen_range(0..sz.rows)].1, &mut rng))
        .collect();
    for batch in row_ops.chunks(UPDATES_PER_OP) {
        tracker.record_batch(signer, batch, threads).map_err(err)?;
    }
    // Each table operation updates one cell per table, adding one record
    // to every table's chain.
    for _ in 1..sz.table_records {
        let ops: Vec<PrimitiveOp> = table_cells
            .iter()
            .map(|(_, cells)| update(cells, &mut rng))
            .collect();
        tracker.record_batch(signer, &ops, threads).map_err(err)?;
    }

    let mut rows: Vec<ObjectId> = row_cells.iter().map(|(r, _)| *r).collect();
    let mut tables: Vec<ObjectId> = table_cells.iter().map(|(t, _)| *t).collect();
    rows.shuffle(&mut rng);
    tables.shuffle(&mut rng);
    let mut hashes = HashMap::new();
    for &oid in rows.iter().chain(&tables) {
        hashes.insert(oid, tracker.object_hash(oid).map_err(err)?);
    }
    let served = if cfg.tamper {
        Arc::new(tampered_copy(&db, rows[0])?)
    } else {
        db
    };
    let forest = tracker.forest().clone();
    let offered: Vec<ObjectId> = rows.iter().chain(&tables).copied().collect();
    let catalog = Arc::new(Catalog::new(
        forest.clone(),
        Arc::clone(&served),
        ALG,
        offered,
    ));
    let server = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0".parse().expect("literal address"),
        ServerConfig::default(),
    )
    .map_err(|e| format!("starting server: {e}"))?;

    // One fetch of each size brings up the connection path before timing.
    let mut client = Client::new(server.addr(), ClientConfig::new(ALG));
    for oid in [rows[rows.len() - 1], tables[tables.len() - 1]] {
        client
            .fetch_verified(oid, &keys.dir)
            .map_err(|e| format!("warm-up fetch of {oid}: {e}"))?;
    }
    Ok(Fixture {
        keys,
        rows,
        tables,
        hashes,
        forest,
        records: served.len(),
        served,
        catalog,
        server,
    })
}

/// A copy of `db` in which the newest record of `oid` claims a different
/// output hash — what an attacker with write access to the store can do.
fn tampered_copy(db: &ProvenanceDb, oid: ObjectId) -> Result<ProvenanceDb, String> {
    let latest = db.latest_for(oid).ok_or("tamper target has no records")?;
    let tamper = Tamper::FlipOutputHash {
        oid,
        seq: latest.seq_id,
    };
    let copy = ProvenanceDb::in_memory();
    for stored in db.all_records() {
        let stored = if stored.oid == oid && stored.seq_id == latest.seq_id {
            let record = ProvenanceRecord::from_stored(&stored).map_err(|e| e.to_string())?;
            let mut holder = ProvenanceObject {
                target: oid,
                records: vec![record],
            };
            if !apply_tamper(&mut holder, &tamper) {
                return Err("tamper target not found".into());
            }
            holder.records[0].to_stored()
        } else {
            stored
        };
        copy.append(stored).map_err(|e| e.to_string())?;
    }
    Ok(copy)
}

/// The subtree of `root` as the server streams it: depth-tagged DFS
/// preorder.
fn data_entries(forest: &Forest, root: ObjectId) -> Vec<DataEntry> {
    let mut out = Vec::new();
    let mut work = vec![(0u16, root)];
    while let Some((depth, id)) = work.pop() {
        let Some(node) = forest.node(id) else {
            continue;
        };
        out.push(DataEntry {
            depth,
            id,
            value: node.value().clone(),
        });
        let kids: Vec<ObjectId> = node.children().collect();
        work.extend(kids.iter().rev().map(|&c| (depth + 1, c)));
    }
    out
}

/// DATA frames carrying `entries`, packed to the server's chunk size.
fn data_frames(entries: Vec<DataEntry>) -> Vec<Message> {
    let mut frames = Vec::new();
    let mut chunk = Vec::new();
    let mut bytes = 0usize;
    for e in entries {
        let size = 10 + value_bytes(&e.value).len();
        if !chunk.is_empty() && bytes + size > DATA_CHUNK_BYTES {
            frames.push(Message::Data {
                entries: std::mem::take(&mut chunk),
            });
            bytes = 0;
        }
        bytes += size;
        chunk.push(e);
    }
    if !chunk.is_empty() {
        frames.push(Message::Data { entries: chunk });
    }
    frames
}

/// Per-layer sums over a traced phase.
#[derive(Default)]
struct Traced {
    offer_ns: u64,
    collect_ns: u64,
    stream_ns: u64,
    data_hash_ns: u64,
    rsa_ns: u64,
    records: u64,
    wire: WireReplay,
    /// Replays whose result disagreed with what the client received.
    mismatches: u64,
}

/// Replays the server's and the client's work for one fetch of `oid`,
/// timing each layer call separately.
fn replay(fx: &Fixture, oid: ObjectId, object_hash: &[u8], t: &mut Traced) -> bool {
    let (offer, offer_ns) = timed(|| fx.catalog.offer_entries());
    let (prov, collect_ns) = timed(|| collect(&fx.served, oid));
    let Ok(prov) = prov else {
        return false;
    };
    let entries = data_entries(&fx.forest, oid);
    let nodes = entries.len() as u64;

    let (hash, data_hash_ns) = timed(|| {
        let mut hasher = DepthStreamHasher::new(ALG);
        for e in &entries {
            hasher.push(e.depth as usize, e.id, &e.value).ok()?;
        }
        hasher.finish().ok().map(|(h, _)| h)
    });
    let (verified, stream_ns) = timed(|| {
        let mut verifier = StreamingVerifier::new(&fx.keys.dir, ALG, oid);
        for r in &prov.records {
            verifier.push_record(r);
        }
        verifier.finish(object_hash).verified()
    });
    let checksums: HashMap<(ObjectId, u64), Vec<u8>> = prov
        .records
        .iter()
        .map(|r| ((r.output_oid, r.seq_id), r.checksum.clone()))
        .collect();
    let rsa_ns = time_rsa_verify(&fx.keys.dir, &prov.records, &checksums);

    let mut msgs = handshake(offer);
    msgs.push(Message::Fetch { oid });
    msgs.extend(prov.records.iter().map(|r| Message::Prov {
        record: r.to_stored(),
    }));
    msgs.extend(data_frames(entries));
    msgs.push(Message::Done {
        records: prov.records.len() as u64,
        nodes,
    });
    let wire_ok = t.wire.replay(&msgs);

    t.offer_ns += offer_ns;
    t.collect_ns += collect_ns;
    t.data_hash_ns += data_hash_ns;
    t.stream_ns += stream_ns;
    t.rsa_ns += rsa_ns.unwrap_or(0);
    t.records += prov.records.len() as u64;
    hash.as_deref() == Some(object_hash) && verified && rsa_ns.is_some() && wire_ok
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (fx, setup_times) = repeat_setup(|_| setup(cfg))?;
    let row_zipf = Zipf::new(fx.rows.len(), ZIPF_S);
    let table_zipf = Zipf::new(fx.tables.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFE7C_4D00);
    let mut client = Client::new(fx.server.addr(), ClientConfig::new(ALG));
    let mut traced = Traced::default();

    let mut measure = |client: &mut Client, traced: Option<&mut Traced>, i: u64| -> Sample {
        let oid = if i % TABLE_EVERY == TABLE_EVERY - 1 {
            fx.tables[table_zipf.sample(&mut rng)]
        } else {
            fx.rows[row_zipf.sample(&mut rng)]
        };
        let (result, ns) = timed(|| client.fetch_verified(oid, &fx.keys.dir));
        let Ok(report) = result else {
            return Sample {
                ns,
                ok: false,
                records: 0,
            };
        };
        let mut ok =
            report.verification.verified() && fx.hashes.get(&oid) == Some(&report.object_hash);
        if let Some(t) = traced {
            if !replay(&fx, oid, &report.object_hash, t) {
                t.mismatches += 1;
                ok = false;
            }
        }
        Sample {
            ns,
            ok,
            records: if ok { report.records } else { 0 },
        }
    };

    // Keys are drawn at random: a window only needs to hold a whole number
    // of table fetches (1 in `TABLE_EVERY`).
    let (untraced_budget, traced_budget) = Budget::phases(cfg, 1000);
    let c0 = client.counters();
    let untraced = Phase::run(untraced_budget, |i| measure(&mut client, None, i));
    let c1 = client.counters();
    let bytes = per(
        (c1.bytes_received - c0.bytes_received) as f64,
        untraced.records() as f64,
    );

    let layers = traced_budget.map(|budget| {
        let registry = Registry::new();
        client.attach_obs(&registry);
        let client_before = client.counters();
        let server_before = ServerSnap::take(fx.server.registry());
        let tp = Phase::run(budget, |i| measure(&mut client, Some(&mut traced), i));
        let client_after = client.counters();
        let server_after = ServerSnap::take(fx.server.registry());

        let t = &traced;
        let ops = tp.ops() as f64;
        let mut l = Layers::default();
        l.set(
            "crypto.verify_us_per_record",
            per(t.rsa_ns as f64, t.records as f64) / 1e3,
        );
        l.set("core.records_per_op", per(t.records as f64, ops));
        l.set("core.collect_us", per(t.collect_ns as f64, ops) / 1e3);
        l.set(
            "core.stream_verify_us_per_record",
            per(t.stream_ns as f64, t.records as f64) / 1e3,
        );
        l.set("core.data_hash_us", per(t.data_hash_ns as f64, ops) / 1e3);
        crate::net::set_layers(
            &mut l,
            ops,
            (client_before, client_after),
            (server_before, server_after),
            &t.wire,
            t.offer_ns,
        );
        let accounted = t.offer_ns
            + t.collect_ns
            + t.wire.encode_ns
            + t.wire.decode_ns
            + t.data_hash_ns
            + t.stream_ns;
        l.set_trace(&untraced, &tp, accounted as f64);
        (tp, l)
    });

    let sz = sizes(cfg.scale);
    let mut context = base_context(cfg, &setup_times);
    context.push(("flush_policy", json_str("none: in-memory store, read-only")));
    context.push((
        "catalog",
        format!(
            "{{\"rows\": {}, \"cells_per_row\": {}, \"tables\": {}, \"rows_per_table\": {}, \"table_records\": {}, \"records\": {}}}",
            sz.rows, sz.cells, sz.tables, sz.table_rows, sz.table_records, fx.records
        ),
    ));
    context.push(("zipf_s", ZIPF_S.to_string()));
    context.push(("table_every", TABLE_EVERY.to_string()));
    context.push(("tampered", cfg.tamper.to_string()));
    context.push(("replay_mismatches", traced.mismatches.to_string()));
    let outcome = finish(&untraced, layers, &setup_times, bytes, 0, context);
    fx.server.shutdown();
    outcome
}
