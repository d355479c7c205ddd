//! Deterministic socket-level fault injection — netsim's chaos
//! discipline for the *real* wire backends.
//!
//! The simulator can tear links, drop packets and skew clocks under a
//! seeded [`netsim::FaultScript`]; until now the TCP/UDS code paths had
//! no equivalent, so their failure handling was only ever exercised by
//! whatever the OS happened to do. [`FaultyTransport`] closes that gap:
//! it decorates any [`WireTransport`] and injects scripted socket-level
//! faults at the transport boundary, deterministically, from a seed —
//! so the fault-matrix conformance suite replays bit-identically under
//! `MAQS_CHAOS_SEED`.
//!
//! ```
//! use orb::wire::fault::{FaultyTransport, WireFault, WireFaultScript};
//! use orb::{NetSimTransport, WireTransport};
//! use std::sync::Arc;
//!
//! let net = netsim::Network::new(1);
//! let inner = Arc::new(NetSimTransport::new(net.attach("a")));
//! let script = WireFaultScript::seeded(7).on_send(2, WireFault::ConnReset);
//! let wire = FaultyTransport::new(inner, script);
//! assert!(wire.send(wire.node(), b"ok".to_vec()).is_ok()); // send #0
//! assert!(wire.send(wire.node(), b"ok".to_vec()).is_ok()); // send #1
//! assert!(wire.send(wire.node(), b"ok".to_vec()).is_err()); // send #2: reset
//! assert_eq!(wire.injected(), 1);
//! wire.shutdown();
//! ```

use super::{
    ConnHealth, Endpoint, WireError, WireFrame, WireObserver, WireTransport,
};
use crate::flight::{FlightEventKind, FlightRecorder};
use crate::sync::{LockRank, OrderedMutex};
use netsim::{NodeId, SharedRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One injectable socket-level failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The dial is refused: the send fails [`WireError::Unreachable`]
    /// without reaching the backend (a down listener, a full SYN queue).
    DialRefused,
    /// The connection resets mid-frame: the send fails [`WireError::Io`]
    /// after the frame is already partially committed — the peer may or
    /// may not have seen it (the at-most-once ambiguity window real
    /// resets have).
    ConnReset,
    /// A torn write: only the first half of the frame reaches the
    /// backend. The send *succeeds* from the caller's view — exactly how
    /// a buffered partial write looks — and the receiver gets a
    /// detectably truncated frame.
    TornFrame,
    /// The frame vanishes silently: `send` returns `Ok` and nothing is
    /// delivered (a drop after the socket buffer accepted the bytes).
    DropFrame,
    /// The frame is delayed by the given duration before the backend
    /// sees it — slow-drip bytes from a congested or shaped path.
    SlowDrip(Duration),
}

/// When a fault fires, measured in sends through this transport
/// (0-indexed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Exactly send number `n`.
    OnSend(u64),
    /// Every `k`-th send (`n % k == k - 1`, so `every(1, …)` is every
    /// send and `every(3, …)` fires on sends 2, 5, 8…).
    EverySend(u64),
    /// Each send independently with probability `permille`/1000, drawn
    /// from the seeded deterministic stream.
    WithProbability(u32),
}

/// A deterministic schedule of [`WireFault`]s, the socket analogue of
/// netsim's `FaultScript`. Rules are checked in the order added; the
/// first match wins for a given send.
#[derive(Debug, Clone, Default)]
pub struct WireFaultScript {
    rules: Vec<(Trigger, WireFault)>,
    seed: u64,
}

impl WireFaultScript {
    /// An empty script (no faults) with seed 0.
    pub fn new() -> WireFaultScript {
        WireFaultScript::default()
    }

    /// An empty script whose probabilistic rules draw from `seed`
    /// (tests take this from `MAQS_CHAOS_SEED`).
    pub fn seeded(seed: u64) -> WireFaultScript {
        WireFaultScript { rules: Vec::new(), seed }
    }

    /// Inject `fault` on exactly the `n`-th send (0-indexed).
    #[must_use]
    pub fn on_send(mut self, n: u64, fault: WireFault) -> WireFaultScript {
        self.rules.push((Trigger::OnSend(n), fault));
        self
    }

    /// Inject `fault` on every `k`-th send (`k >= 1`).
    #[must_use]
    pub fn every(mut self, k: u64, fault: WireFault) -> WireFaultScript {
        self.rules.push((Trigger::EverySend(k.max(1)), fault));
        self
    }

    /// Inject `fault` on each send independently with probability
    /// `permille`/1000, deterministically from the seed.
    #[must_use]
    pub fn with_probability(mut self, permille: u32, fault: WireFault) -> WireFaultScript {
        self.rules.push((Trigger::WithProbability(permille.min(1000)), fault));
        self
    }

    /// Human-readable summary (`seed=7: on_send(2)=ConnReset, …`).
    pub fn describe(&self) -> String {
        let mut s = format!("seed={}:", self.seed);
        if self.rules.is_empty() {
            s.push_str(" (no faults)");
            return s;
        }
        for (i, (trigger, fault)) in self.rules.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match trigger {
                Trigger::OnSend(n) => s.push_str(&format!(" on_send({n})={fault:?}")),
                Trigger::EverySend(k) => s.push_str(&format!(" every({k})={fault:?}")),
                Trigger::WithProbability(p) => {
                    s.push_str(&format!(" p({p}/1000)={fault:?}"))
                }
            }
        }
        s
    }
}

/// A [`WireTransport`] decorator that injects scripted, seeded faults
/// into the send path and can stall the receive path on demand; see the
/// [module docs](self). Wraps *any* backend — the same script runs
/// against netsim, TCP and UDS in the conformance fault matrix.
///
/// Inbound frames reach the ORB through the provided pump
/// ([`WireTransport::deliver`]) over this decorator's `recv`, never by
/// push from the wrapped backend: a stalled reader has to be able to
/// park frames.
pub struct FaultyTransport {
    inner: Arc<dyn WireTransport>,
    script: WireFaultScript,
    /// Sends seen so far (the trigger clock).
    sends: AtomicU64,
    /// Seeded stream for probabilistic rules.
    rng: SharedRng,
    /// Faults actually injected.
    injected: AtomicU64,
    /// While set, delivered frames are parked in `held` instead of
    /// being returned from `recv` — a reader that accepts but never
    /// drains, from the peer's point of view.
    stalled: AtomicBool,
    held: OrderedMutex<VecDeque<WireFrame>>,
    flight: OnceLock<FlightRecorder>,
}

impl FaultyTransport {
    /// Decorate `inner` with `script`.
    pub fn new(inner: Arc<dyn WireTransport>, script: WireFaultScript) -> FaultyTransport {
        FaultyTransport {
            inner,
            rng: SharedRng::seed_from_u64(script.seed),
            script,
            sends: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            held: OrderedMutex::new(LockRank::WireFaultState, VecDeque::new()),
            flight: OnceLock::new(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn WireTransport> {
        &self.inner
    }

    /// How many faults the script has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Stall or un-stall the receive path. While stalled, this
    /// transport keeps *accepting* frames (the sender sees no error —
    /// its outbox and socket buffers absorb the flow until backpressure
    /// kicks in) but `recv` parks them. Un-stalling releases everything
    /// parked, in order.
    pub fn set_stalled(&self, stalled: bool) {
        let was = self.stalled.swap(stalled, Ordering::SeqCst);
        if was && !stalled {
            // Wake a receiver blocked inside inner.recv() so it comes
            // back around and drains the held queue.
            self.inner.poke();
        }
    }

    /// Which fault (if any) fires for send number `n`.
    fn fault_for(&self, n: u64) -> Option<WireFault> {
        for (trigger, fault) in &self.script.rules {
            let hit = match trigger {
                Trigger::OnSend(at) => n == *at,
                Trigger::EverySend(k) => n % k == k - 1,
                Trigger::WithProbability(permille) => {
                    (self.rng.next_u64() % 1000) < u64::from(*permille)
                }
            };
            if hit {
                return Some(*fault);
            }
        }
        None
    }

    fn note(&self, fault: WireFault, dst: NodeId, outcome: &str) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        if let Some(flight) = self.flight.get() {
            flight.record_detail(
                FlightEventKind::FaultTick,
                "wire.fault",
                None,
                format!("injected {fault:?} on send to node {}: {outcome}", dst.0),
            );
        }
    }
}

impl WireTransport for FaultyTransport {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn local_endpoint(&self) -> Endpoint {
        self.inner.local_endpoint()
    }

    fn register_peer(&self, node: NodeId, endpoints: &[Endpoint]) -> Result<(), WireError> {
        self.inner.register_peer(node, endpoints)
    }

    fn send(&self, dst: NodeId, frame: Vec<u8>) -> Result<(), WireError> {
        let n = self.sends.fetch_add(1, Ordering::SeqCst);
        match self.fault_for(n) {
            None => self.inner.send(dst, frame),
            Some(WireFault::DialRefused) => {
                self.note(WireFault::DialRefused, dst, "dial refused");
                Err(WireError::Unreachable(format!(
                    "injected: dial to node {} refused",
                    dst.0
                )))
            }
            Some(WireFault::ConnReset) => {
                self.note(WireFault::ConnReset, dst, "connection reset mid-frame");
                Err(WireError::Io(format!(
                    "injected: connection to node {} reset mid-frame",
                    dst.0
                )))
            }
            Some(WireFault::TornFrame) => {
                let keep = frame.len() / 2;
                self.note(WireFault::TornFrame, dst, "frame torn in half");
                self.inner.send(dst, frame[..keep].to_vec())
            }
            Some(WireFault::DropFrame) => {
                self.note(WireFault::DropFrame, dst, "frame dropped silently");
                Ok(())
            }
            Some(WireFault::SlowDrip(delay)) => {
                self.note(WireFault::SlowDrip(delay), dst, "bytes slow-dripped");
                std::thread::sleep(delay);
                self.inner.send(dst, frame)
            }
        }
    }

    fn recv(&self) -> Result<WireFrame, WireError> {
        loop {
            if !self.stalled.load(Ordering::SeqCst) {
                if let Some(frame) = self.held.lock().pop_front() {
                    return Ok(frame);
                }
            }
            let frame = self.inner.recv()?;
            if self.stalled.load(Ordering::SeqCst) && !frame.payload.is_empty() {
                // A stalled reader: accept the frame, never deliver it
                // (until un-stalled). Keep blocking for more.
                self.held.lock().push_back(frame);
                continue;
            }
            return Ok(frame);
        }
    }

    fn try_recv(&self) -> Result<Option<WireFrame>, WireError> {
        if !self.stalled.load(Ordering::SeqCst) {
            if let Some(frame) = self.held.lock().pop_front() {
                return Ok(Some(frame));
            }
        }
        loop {
            let frame = match self.inner.try_recv()? {
                Some(f) => f,
                None => return Ok(None),
            };
            if self.stalled.load(Ordering::SeqCst) && !frame.payload.is_empty() {
                // Same stalled-reader semantics as `recv`: accept but
                // hold the frame, then keep draining.
                self.held.lock().push_back(frame);
                continue;
            }
            return Ok(Some(frame));
        }
    }

    fn poke(&self) {
        self.inner.poke();
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn attach_flight(&self, flight: &FlightRecorder) {
        let _ = self.flight.set(flight.clone());
        self.inner.attach_flight(flight);
    }

    fn peer_health(&self) -> Vec<(NodeId, ConnHealth)> {
        self.inner.peer_health()
    }

    fn add_wire_observer(&self, obs: WireObserver) {
        self.inner.add_wire_observer(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NetSimTransport;

    fn pair() -> (Arc<NetSimTransport>, Arc<NetSimTransport>) {
        let net = netsim::Network::new(1);
        (
            Arc::new(NetSimTransport::new(net.attach("a"))),
            Arc::new(NetSimTransport::new(net.attach("b"))),
        )
    }

    #[test]
    fn on_send_trigger_is_exact() {
        let (a, b) = pair();
        let dst = b.node();
        let faulty = FaultyTransport::new(a, WireFaultScript::new().on_send(1, WireFault::ConnReset));
        assert!(faulty.send(dst, vec![0]).is_ok());
        assert!(matches!(faulty.send(dst, vec![1]), Err(WireError::Io(_))));
        assert!(faulty.send(dst, vec![2]).is_ok());
        assert_eq!(faulty.injected(), 1);
        faulty.shutdown();
        b.shutdown();
    }

    #[test]
    fn every_trigger_cadence() {
        let (a, b) = pair();
        let dst = b.node();
        let faulty = FaultyTransport::new(a, WireFaultScript::new().every(3, WireFault::DropFrame));
        let mut dropped = 0;
        for i in 0..9 {
            faulty.send(dst, vec![i]).unwrap(); // DropFrame still returns Ok
        }
        // Sends 2, 5, 8 were dropped.
        for _ in 0..6 {
            let f = b.recv().unwrap();
            assert!(![2u8, 5, 8].contains(&f.payload[0]), "dropped frame was delivered");
            dropped += 1;
        }
        assert_eq!(dropped, 6);
        assert_eq!(faulty.injected(), 3);
        faulty.shutdown();
        b.shutdown();
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let (a, b) = pair();
            let dst = b.node();
            let faulty = FaultyTransport::new(
                a,
                WireFaultScript::seeded(seed).with_probability(500, WireFault::ConnReset),
            );
            let v = (0..32).map(|_| faulty.send(dst, vec![0]).is_err()).collect();
            faulty.shutdown();
            b.shutdown();
            v
        };
        assert_eq!(outcomes(7), outcomes(7), "same seed must replay identically");
        assert_ne!(outcomes(7), outcomes(8), "different seeds should diverge");
    }

    #[test]
    fn stalled_reader_parks_then_releases_in_order() {
        let (a, b) = pair();
        let src = a.node();
        let dst = b.node();
        let faulty = Arc::new(FaultyTransport::new(b, WireFaultScript::new()));
        faulty.set_stalled(true);
        a.send(dst, vec![1]).unwrap();
        a.send(dst, vec![2]).unwrap();
        // Give the frames time to land, then un-stall from another
        // thread while recv blocks.
        let f2 = Arc::clone(&faulty);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            f2.set_stalled(false);
        });
        // Un-stalling pokes the inner transport, so empty wakeup frames
        // may interleave; skip them like the provided wire pump does.
        let recv_frame = || loop {
            let f = faulty.recv().unwrap();
            if !f.payload.is_empty() {
                return f;
            }
        };
        let first = recv_frame();
        assert_eq!(first.src, src);
        assert_eq!(&first.payload[..], &[1]);
        assert_eq!(&recv_frame().payload[..], &[2]);
        waker.join().unwrap();
        faulty.shutdown();
        a.shutdown();
    }

    #[test]
    fn describe_names_rules() {
        let s = WireFaultScript::seeded(7)
            .on_send(2, WireFault::ConnReset)
            .every(5, WireFault::DropFrame)
            .with_probability(100, WireFault::DialRefused);
        let d = s.describe();
        assert!(d.contains("seed=7"));
        assert!(d.contains("on_send(2)=ConnReset"));
        assert!(d.contains("every(5)=DropFrame"));
        assert!(d.contains("p(100/1000)=DialRefused"));
        assert!(WireFaultScript::new().describe().contains("no faults"));
    }
}
