//! Equivalence of the verify entry points with a [`StreamingVerifier`]
//! fed records in wire order — the recipient's R1–R8 check (§3) must not
//! depend on which surface runs it, nor on the order records are handed
//! to the batch entry points.
//!
//! Inputs are random tracker-built DAGs (inserts, compound children with
//! inherited records, updates, aggregates by two participants), with a
//! sealed compaction checkpoint taken part-way through. For the honest
//! history and every [`all_single_record_tampers`] case:
//!
//! * **plain**: `verify` over shuffled records reports the same issue
//!   multiset as the stream;
//! * **anchored, not compacted**: `verify_through_checkpoint` over
//!   shuffled records reports the stream's issues, minus the
//!   `MissingRecord`s at anchored slots (the checkpoint attests them),
//!   plus a `CheckpointMismatch` for each present record at an anchored
//!   slot whose checksum differs from the sealed one;
//! * **anchored, compacted** (records at or before the seal excised):
//!   for tampers that keep every record, `verify_through_checkpoint`
//!   reports exactly what the stream reports when the excised prefix is
//!   streamed first; for removals, the stream over the surviving records
//!   minus the `MissingRecord`s at anchored slots.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tep_core::attack::{all_single_record_tampers, apply_tamper, Tamper};
use tep_core::hashing::HashingStrategy;
use tep_core::provenance::collect;
use tep_core::verify::StreamingVerifier;
use tep_core::{
    Checkpoint, ProvenanceObject, ProvenanceRecord, ProvenanceTracker, SealedCheckpoint,
    TamperEvidence, TrackerConfig, Verifier,
};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, Participant, ParticipantId};
use tep_model::{AggregateMode, ObjectId, Value};
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

struct World {
    keys: KeyDirectory,
    alice: Participant,
    bob: Participant,
}

static WORLD: OnceLock<World> = OnceLock::new();

fn world() -> &'static World {
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xE9_1DE7);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(alice.certificate().clone()).unwrap();
        keys.register(bob.certificate().clone()).unwrap();
        World { keys, alice, bob }
    })
}

/// One tracked operation; object operands index the objects created so
/// far (modulo their count).
#[derive(Clone, Debug)]
enum Op {
    Insert,
    InsertChild(usize),
    Update(usize),
    Aggregate(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Insert),
        any::<usize>().prop_map(Op::InsertChild),
        any::<usize>().prop_map(Op::Update),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Aggregate(a, b)),
    ]
}

/// A tracked history with a sealed checkpoint taken part-way through.
struct Scenario {
    /// Full provenance of the target.
    prov: ProvenanceObject,
    hash: Vec<u8>,
    sealed: SealedCheckpoint,
    /// `(oid, seq)` of every record that existed when the seal was taken.
    sealed_slots: HashSet<(ObjectId, u64)>,
}

fn build(ops: &[Op], seal_at: usize, final_aggregate: bool) -> Scenario {
    let w = world();
    let db = Arc::new(ProvenanceDb::in_memory());
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    let mut objects: Vec<ObjectId> = Vec::new();
    let mut n = 0i64;
    let mut run = |tracker: &mut ProvenanceTracker, objects: &mut Vec<ObjectId>, op: &Op| {
        n += 1;
        let who = if n % 2 == 0 { &w.alice } else { &w.bob };
        let pick = |i: usize| objects[i % objects.len()];
        match *op {
            Op::Update(i) if !objects.is_empty() => {
                tracker.update(who, pick(i), Value::Int(n)).unwrap();
            }
            Op::InsertChild(i) if !objects.is_empty() => {
                let (oid, _) = tracker.insert(who, Value::Int(n), Some(pick(i))).unwrap();
                objects.push(oid);
            }
            Op::Aggregate(i, j) if objects.len() >= 2 && pick(i) != pick(j) => {
                let mut inputs = [pick(i), pick(j)];
                inputs.sort();
                if let Ok((oid, _)) =
                    tracker.aggregate(who, &inputs, Value::Int(n), AggregateMode::Atomic)
                {
                    objects.push(oid);
                }
            }
            _ => {
                let (oid, _) = tracker.insert(who, Value::Int(n), None).unwrap();
                objects.push(oid);
            }
        }
    };

    let seal_at = seal_at % (ops.len() + 1);
    for op in &ops[..seal_at] {
        run(&mut tracker, &mut objects, op);
    }
    if objects.is_empty() {
        run(&mut tracker, &mut objects, &Op::Insert);
    }
    let sealed = Checkpoint::capture(ALG, &db, 0).seal(&w.alice).unwrap();
    let sealed_slots = db.all_records().iter().map(|r| (r.oid, r.seq_id)).collect();
    for op in &ops[seal_at..] {
        run(&mut tracker, &mut objects, op);
    }
    // The target always gains a post-seal record, so compaction never
    // excises its whole chain.
    let last = objects.len() - 1;
    let final_op = if final_aggregate && objects.len() >= 2 {
        Op::Aggregate(last, last - 1)
    } else {
        Op::Update(last)
    };
    let before = objects.len();
    run(&mut tracker, &mut objects, &final_op);
    let target = if objects.len() > before {
        objects[objects.len() - 1]
    } else {
        // The aggregate was refused (or never tried): update instead.
        if matches!(final_op, Op::Aggregate(..)) {
            run(&mut tracker, &mut objects, &Op::Update(last));
        }
        objects[last]
    };
    let prov = collect(&db, target).unwrap();
    let hash = tracker.object_hash(target).unwrap();
    Scenario {
        prov,
        hash,
        sealed,
        sealed_slots,
    }
}

/// Issue lists as order-independent multisets.
fn multiset(issues: &[TamperEvidence]) -> Vec<String> {
    let mut v: Vec<String> = issues.iter().map(|i| format!("{i:?}")).collect();
    v.sort();
    v
}

/// The stream's verdict over `records` fed in wire order,
/// `(output_oid, seq_id)`.
fn stream(target: ObjectId, hash: &[u8], records: &[ProvenanceRecord]) -> Vec<TamperEvidence> {
    let mut recs: Vec<&ProvenanceRecord> = records.iter().collect();
    recs.sort_by_key(|r| (r.output_oid, r.seq_id));
    let mut sv = StreamingVerifier::new(&world().keys, ALG, target);
    for r in recs {
        sv.push_record(r);
    }
    sv.finish(hash).issues
}

/// Drops the `MissingRecord`s a sealed checkpoint attests.
fn attested_away(issues: Vec<TamperEvidence>, sealed: &SealedCheckpoint) -> Vec<TamperEvidence> {
    issues
        .into_iter()
        .filter(|i| match *i {
            TamperEvidence::MissingRecord { oid, seq } => {
                sealed.anchor_for(oid).is_none_or(|a| a.seq != seq)
            }
            _ => true,
        })
        .collect()
}

fn shuffled(prov: &ProvenanceObject, rng: &mut StdRng) -> ProvenanceObject {
    let mut out = prov.clone();
    out.records.shuffle(rng);
    out
}

/// The honest history plus every single-record tamper of `prov`.
fn cases(prov: &ProvenanceObject) -> Vec<(Option<Tamper>, ProvenanceObject)> {
    let mut out = vec![(None, prov.clone())];
    for tamper in all_single_record_tampers(prov, world().bob.id()) {
        let mut tampered = prov.clone();
        assert!(apply_tamper(&mut tampered, &tamper), "{tamper:?}");
        out.push((Some(tamper), tampered));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_and_checkpoint_verify_match_the_stream(
        ops in proptest::collection::vec(op(), 1..12),
        seal_at in any::<usize>(),
        final_aggregate in any::<bool>(),
        shuffle_seed in any::<u64>(),
    ) {
        let w = world();
        let s = build(&ops, seal_at, final_aggregate);
        let verifier = Verifier::new(&w.keys, ALG);
        let target = s.prov.target;
        let mut rng = StdRng::seed_from_u64(shuffle_seed);

        // Plain, and anchored without compaction.
        for (tamper, tampered) in cases(&s.prov) {
            let streamed = stream(target, &s.hash, &tampered.records);
            let input = shuffled(&tampered, &mut rng);

            let batch = verifier.verify(&s.hash, &input);
            prop_assert_eq!(
                multiset(&batch.issues),
                multiset(&streamed),
                "verify vs stream, {:?}",
                tamper
            );

            let mut expected = attested_away(streamed, &s.sealed);
            for a in &s.sealed.checkpoint.anchors {
                if tampered.record(a.oid, a.seq).is_some_and(|r| r.checksum != a.checksum) {
                    expected.push(TamperEvidence::CheckpointMismatch { oid: a.oid, seq: a.seq });
                }
            }
            let through = verifier.verify_through_checkpoint(&s.hash, &input, &s.sealed);
            prop_assert_eq!(
                multiset(&through.issues),
                multiset(&expected),
                "verify_through_checkpoint (not compacted) vs stream, {:?}",
                tamper
            );
        }

        // Anchored and compacted: the records the seal covered are gone.
        let (excised, kept): (Vec<ProvenanceRecord>, Vec<ProvenanceRecord>) = s
            .prov
            .records
            .iter()
            .cloned()
            .partition(|r| s.sealed_slots.contains(&(r.output_oid, r.seq_id)));
        let compacted = ProvenanceObject { target, records: kept };
        for (tamper, tampered) in cases(&compacted) {
            let expected = if matches!(tamper, Some(Tamper::Remove { .. })) {
                attested_away(stream(target, &s.hash, &tampered.records), &s.sealed)
            } else {
                let mut full = excised.clone();
                full.extend(tampered.records.iter().cloned());
                stream(target, &s.hash, &full)
            };
            let input = shuffled(&tampered, &mut rng);
            let through = verifier.verify_through_checkpoint(&s.hash, &input, &s.sealed);
            prop_assert_eq!(
                multiset(&through.issues),
                multiset(&expected),
                "verify_through_checkpoint (compacted) vs stream, {:?}",
                tamper
            );
        }
    }
}
