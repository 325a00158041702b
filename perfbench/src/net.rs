//! Wire-layer measurements shared by `fetch` and `audit`: replays of the
//! frames one operation exchanges, and deltas of the client's transfer
//! counters and the server's metric registry.

use crate::common::{per, timed, Layers, ALG};
use tep_core::{ProvenanceRecord, SliceProof, TransferSnapshot};
use tep_net::{wire, Message, OfferEntry, WIRE_VERSION};
use tep_obs::{names, Registry};

/// The frames every request starts with: the client's HELLO, the server's
/// HELLO and its OFFER.
pub(crate) fn handshake(offer: Vec<OfferEntry>) -> Vec<Message> {
    let hello = Message::Hello {
        version: WIRE_VERSION,
        alg: ALG,
        tenant: 0,
    };
    vec![hello.clone(), hello, Message::Offer { entries: offer }]
}

/// Encode and decode time of replayed frames.
#[derive(Default)]
pub(crate) struct WireReplay {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub frames: u64,
}

impl WireReplay {
    /// Encodes and decodes each message the way the two ends do, including
    /// the client's decoding of record and proof bytes. Returns `false` if
    /// a message does not survive the round trip.
    pub fn replay(&mut self, msgs: &[Message]) -> bool {
        let mut intact = true;
        for msg in msgs {
            let (payload, enc) = timed(|| wire::encode_message(msg));
            let (decoded, dec) = timed(|| {
                let decoded = wire::decode_message(&payload).ok()?;
                let body_ok = match &decoded {
                    Message::Prov { record } => ProvenanceRecord::from_stored(record).is_ok(),
                    Message::QResult { proof } => SliceProof::from_bytes(proof).is_ok(),
                    _ => true,
                };
                body_ok.then_some(decoded)
            });
            intact &= decoded.as_ref() == Some(msg);
            self.encode_ns += enc;
            self.decode_ns += dec;
            self.frames += 1;
        }
        intact
    }
}

/// Server-side figures read from the server's registry.
#[derive(Clone, Copy, Default)]
pub(crate) struct ServerSnap {
    turnaround_ns: u64,
    turnarounds: u64,
    wakeups: u64,
    sheds: u64,
}

impl ServerSnap {
    pub fn take(registry: &Registry) -> Self {
        let turnaround = registry.latency_histogram(names::NET_FRAME_TURNAROUND);
        ServerSnap {
            turnaround_ns: turnaround.sum(),
            turnarounds: turnaround.count(),
            wakeups: registry.counter_value(names::NET_EPOLL_WAKEUPS),
            sheds: registry.counter_value(names::NET_SHED),
        }
    }
}

/// Sets the `net.*` layer metrics of a traced phase of `ops` operations
/// from before/after snapshots, the wire replay and the OFFER replay time.
pub(crate) fn set_layers(
    l: &mut Layers,
    ops: f64,
    client: (TransferSnapshot, TransferSnapshot),
    server: (ServerSnap, ServerSnap),
    wire: &WireReplay,
    offer_ns: u64,
) {
    let (c0, c1) = client;
    let (s0, s1) = server;
    let frames = (c1.frames_sent + c1.frames_received) - (c0.frames_sent + c0.frames_received);
    l.set("net.offer_us", per(offer_ns as f64, ops) / 1e3);
    l.set(
        "net.encode_us_per_frame",
        per(wire.encode_ns as f64, wire.frames as f64) / 1e3,
    );
    l.set(
        "net.decode_us_per_frame",
        per(wire.decode_ns as f64, wire.frames as f64) / 1e3,
    );
    l.set("net.frames_per_op", per(frames as f64, ops));
    l.set(
        "net.server_turnaround_us",
        per(
            (s1.turnaround_ns - s0.turnaround_ns) as f64,
            (s1.turnarounds - s0.turnarounds) as f64,
        ) / 1e3,
    );
    l.set(
        "net.wakeups_per_op",
        per((s1.wakeups - s0.wakeups) as f64, ops),
    );
    l.set("net.retries", (c1.retries - c0.retries) as f64);
    l.set("net.sheds", (s1.sheds - s0.sheds) as f64);
}
