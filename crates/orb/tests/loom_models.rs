//! Exhaustive interleaving models for the ORB's riskiest concurrent
//! structures, checked with [`conccheck`] under bounded preemption.
//!
//! Each model re-states one production algorithm over the shim
//! primitives so the checker can drive *every* schedule through it (the
//! production code runs on `std::sync` locks, which cannot be
//! instrumented). The models are deliberately tiny — two or three
//! threads, a handful of operations — because exhaustive exploration is
//! exponential in decision points; what they lose in scale they gain in
//! covering interleavings no stress test will ever hit.
//!
//! Inventory (see DESIGN.md §6f):
//! 1. [`pending_table`] — sharded pending-reply table: concurrent
//!    match/timeout must account every reply exactly once.
//! 2. [`reply_slot`] — armed rendezvous slot: a late reply to a
//!    previous request is orphaned, never misdelivered. A seeded
//!    mutation (dropping the armed-id guard) proves the model has teeth.
//! 3. [`breaker`] — circuit breaker Closed→Open→HalfOpen: concurrent
//!    probes settle into a single consistent transition chain.
//! 4. [`flight`] — flight-recorder staging flush vs. inline batch
//!    flush: every event reaches the ring exactly once.
//! 5. [`dispatch_queues`] — push-delivery handoff: two deliverers push
//!    into one dispatcher queue while the ORB shuts down; every frame is
//!    executed, dropped or stranded exactly once, per-sender order
//!    holds, and the shutdown sentinel never overtakes work.
//!
//! Run with `cargo test -p orb --features loom-models` (the conccheck CI
//! lane); without the feature this file compiles to nothing.
#![cfg(feature = "loom-models")]

use conccheck::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use conccheck::sync::Mutex;
use conccheck::{thread, Builder};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Shared miniature of core.rs's ReplySlot (used by models 1 and 2).
// ---------------------------------------------------------------------

/// Mirror of `core::SlotState`: the request id the slot currently
/// serves (0 = disarmed) plus the queued reply payloads.
struct SlotState {
    armed: u64,
    queue: VecDeque<u64>,
}

/// Mirror of `core::ReplySlot` minus the condvar: waiters poll
/// [`try_pop`](Slot::try_pop), which explores strictly more wake-up
/// orders than a condvar would allow.
struct Slot {
    state: Mutex<SlotState>,
}

impl Slot {
    fn new() -> Slot {
        Slot { state: Mutex::new(SlotState { armed: 0, queue: VecDeque::new() }) }
    }

    fn arm(&self, id: u64) {
        let mut s = self.state.lock();
        s.armed = id;
        s.queue.clear();
    }

    fn disarm(&self) {
        let mut s = self.state.lock();
        s.armed = 0;
        s.queue.clear();
    }

    /// Mirror of `ReplySlot::push`. `guard_armed_id` is the mutation
    /// knob: the production code always checks that the slot is still
    /// armed for `id`; the mutant skips the check, recreating the bug
    /// the guard exists to prevent.
    fn push(&self, id: u64, payload: u64, guard_armed_id: bool) -> bool {
        let mut s = self.state.lock();
        if guard_armed_id && s.armed != id {
            return false;
        }
        s.queue.push_back(payload);
        true
    }

    fn try_pop(&self, id: u64) -> Option<u64> {
        let mut s = self.state.lock();
        if s.armed != id {
            return None;
        }
        s.queue.pop_front()
    }
}

// ---------------------------------------------------------------------
// Model 1: sharded pending table — insert / match / orphan.
// ---------------------------------------------------------------------

/// Caller registers a request then times out; the frame handler
/// concurrently takes the entry and delivers. Mirrors
/// `Orb::register_pending` / `unregister_pending` and the dispatch
/// take-then-push in `core.rs`: the receiver removes the entry from the
/// shard and drops the shard lock *before* delivering into the slot.
///
/// Invariant: the one reply is accounted exactly once — matched or
/// orphaned, never both, never neither — and the shard map ends empty,
/// under every interleaving of the match and the timeout.
#[test]
fn pending_table_accounts_every_reply_exactly_once() {
    let report = Builder::new()
        .preemption_bound(3)
        .check_result(|| {
            let shard: Arc<Mutex<HashMap<u64, Arc<Slot>>>> = Arc::new(Mutex::new(HashMap::new()));
            let matched = Arc::new(AtomicU64::new(0));
            let orphaned = Arc::new(AtomicU64::new(0));

            // Caller: register request 1, poll once, give up (timeout).
            let slot = Arc::new(Slot::new());
            slot.arm(1);
            shard.lock().insert(1, Arc::clone(&slot));

            let receiver = {
                let shard = Arc::clone(&shard);
                let (matched, orphaned) = (Arc::clone(&matched), Arc::clone(&orphaned));
                thread::spawn(move || {
                    // Frame handler: take the entry out of its shard,
                    // drop the shard lock, then deliver.
                    let taken = shard.lock().remove(&1);
                    let delivered = match taken {
                        Some(slot) => slot.push(1, 10, true),
                        None => false,
                    };
                    if delivered {
                        matched.fetch_add(1, Ordering::SeqCst);
                    } else {
                        orphaned.fetch_add(1, Ordering::SeqCst);
                    }
                })
            };

            // Timeout path: one poll, then unregister.
            let got = slot.try_pop(1);
            if got.is_none() {
                shard.lock().remove(&1);
                slot.disarm();
            }

            receiver.join();
            let m = matched.load(Ordering::SeqCst);
            let o = orphaned.load(Ordering::SeqCst);
            assert_eq!(m + o, 1, "reply accounted exactly once (matched={m}, orphaned={o})");
            assert!(shard.lock().is_empty(), "pending entry must not leak");
            if let Some(p) = got {
                assert_eq!(p, 10, "caller can only ever observe its own reply");
                assert_eq!(m, 1, "a consumed reply must be counted matched");
            }
        })
        .expect("pending-table accounting must hold under every schedule");
    assert!(report.complete, "search space must be exhausted");
}

// ---------------------------------------------------------------------
// Model 2: armed ReplySlot — late reply orphaned, never misdelivered.
// ---------------------------------------------------------------------

/// The exhaustive version of core.rs's `late_reply_is_orphaned_never_
/// misdelivered` test: a caller reuses its per-thread slot for request 2
/// after abandoning request 1, while the frame handler delivers both
/// replies late. Under every schedule, whatever the caller pops while
/// armed for request 2 must be reply 2 — reply 1 must be refused by the
/// armed-id guard (orphaned) or cleared by re-arming.
fn reply_slot_model(guard_armed_id: bool) {
    let slot = Arc::new(Slot::new());
    let refused = Arc::new(AtomicU64::new(0));

    // Request 1: armed, then abandoned (timeout) before any delivery.
    slot.arm(1);
    slot.disarm();
    // Request 2 on the same slot.
    slot.arm(2);

    let receiver = {
        let slot = Arc::clone(&slot);
        let refused = Arc::clone(&refused);
        thread::spawn(move || {
            // The frame handler catches up: late reply for the abandoned
            // request 1, then the live reply for request 2.
            if !slot.push(1, 10, guard_armed_id) {
                refused.fetch_add(1, Ordering::SeqCst);
            }
            if !slot.push(2, 20, guard_armed_id) {
                refused.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // Caller: bounded poll for reply 2 (polling models the condvar wait
    // while exploring more wake-up orders than a condvar would allow).
    let mut got = None;
    for _ in 0..4 {
        got = slot.try_pop(2);
        if got.is_some() {
            break;
        }
        thread::yield_now();
    }
    receiver.join();
    if got.is_none() {
        got = slot.try_pop(2);
    }

    if let Some(p) = got {
        assert_eq!(p, 20, "misdelivery: caller armed for request 2 popped reply {p}");
    }
    // Both replies were sent; the guarded slot must have refused the
    // late one, so the caller can never find two queued replies.
    assert!(slot.state.lock().queue.len() <= 1, "stale reply left queued behind the live one");
}

#[test]
fn late_reply_is_orphaned_never_misdelivered_exhaustive() {
    let report = Builder::new()
        .preemption_bound(3)
        .check_result(|| reply_slot_model(true))
        .expect("armed-id guard must orphan the late reply under every schedule");
    assert!(report.complete, "search space must be exhausted");
}

/// Seeded mutation: dropping the armed-request-id guard MUST make the
/// model fail — this proves the model (and the checker) can actually
/// see the misdelivery the guard prevents.
#[test]
fn mutation_dropping_armed_guard_is_caught() {
    let failure = Builder::new()
        .preemption_bound(3)
        .check_result(|| reply_slot_model(false))
        .expect_err("the unguarded slot must misdeliver on some schedule");
    assert!(
        failure.reason.contains("misdelivery") || failure.reason.contains("stale reply"),
        "expected a misdelivery, got: {}",
        failure.reason
    );
}

// ---------------------------------------------------------------------
// Model 3: circuit breaker — Closed → Open → HalfOpen under racing probes.
// ---------------------------------------------------------------------

/// Mirror of `weaver::resilience::CircuitBreaker` with the time-based
/// cooldown always elapsed (the model explores schedules, not clocks):
/// `consecutive_failures = 1`, `half_open_successes = 1`, no rate window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BState {
    Closed,
    Open,
    HalfOpen,
}

struct BreakerModel {
    state: Mutex<BState>,
    transitions: Mutex<Vec<(BState, BState)>>,
}

impl BreakerModel {
    fn new(initial: BState) -> BreakerModel {
        BreakerModel { state: Mutex::new(initial), transitions: Mutex::new(Vec::new()) }
    }

    fn shift(&self, st: &mut BState, to: BState) {
        let from = *st;
        *st = to;
        self.transitions.lock().push((from, to));
    }

    /// `CircuitBreaker::admit` with the cooldown elapsed.
    fn admit(&self) -> bool {
        let mut st = self.state.lock();
        match *st {
            BState::Closed | BState::HalfOpen => true,
            BState::Open => {
                let to = BState::HalfOpen;
                self.shift(&mut st, to);
                true
            }
        }
    }

    /// `CircuitBreaker::on_success` with `half_open_successes = 1`.
    fn on_success(&self) {
        let mut st = self.state.lock();
        if *st == BState::HalfOpen {
            self.shift(&mut st, BState::Closed);
        }
        // Success in Open (another thread re-tripped mid-call) is ignored.
    }

    /// `CircuitBreaker::on_failure` with `consecutive_failures = 1`.
    fn on_failure(&self) {
        let mut st = self.state.lock();
        match *st {
            BState::Closed | BState::HalfOpen => self.shift(&mut st, BState::Open),
            BState::Open => {}
        }
    }
}

/// Two probes race against an open breaker: one's call succeeds, the
/// other's fails, in any order. Under every schedule the transition log
/// must be a single consistent chain: each transition leaves the state
/// the previous one produced, exactly one probe wins the Open→HalfOpen
/// flip, and the final state is the last transition's target — i.e. the
/// race settles in exactly one of {open, closed}, never a torn state.
#[test]
fn breaker_probe_race_settles_into_one_consistent_chain() {
    let report = Builder::new()
        .preemption_bound(3)
        .check_result(|| {
            let breaker = Arc::new(BreakerModel::new(BState::Open));

            let prober = |ok: bool| {
                let breaker = Arc::clone(&breaker);
                thread::spawn(move || {
                    if breaker.admit() {
                        if ok {
                            breaker.on_success();
                        } else {
                            breaker.on_failure();
                        }
                    }
                })
            };
            let t1 = prober(true);
            let t2 = prober(false);
            t1.join();
            t2.join();

            let transitions = breaker.transitions.lock();
            let mut at = BState::Open;
            for (from, to) in transitions.iter() {
                assert_eq!(*from, at, "torn transition chain: {transitions:?}");
                at = *to;
            }
            assert_eq!(*breaker.state.lock(), at, "final state must match the chain");
            // Each admitted probe flips Open→HalfOpen at most once; a
            // second flip is legal only after the first probe failed and
            // re-opened the circuit (the checker found that schedule —
            // asserting "exactly one flip" here is wrong).
            let probes = transitions
                .iter()
                .filter(|(f, t)| (*f, *t) == (BState::Open, BState::HalfOpen))
                .count();
            assert!((1..=2).contains(&probes), "impossible probe count {probes}: {transitions:?}");
            assert!(
                matches!(at, BState::Open | BState::Closed),
                "both outcomes settled, breaker must not be left half-open"
            );
        })
        .expect("breaker transition chain must be consistent under every schedule");
    assert!(report.complete, "search space must be exhausted");
}

// ---------------------------------------------------------------------
// Model 4: flight recorder — staging flush vs. inline batch flush.
// ---------------------------------------------------------------------

/// Mirror of `flight::Inner::drain_into` and the two paths that call it:
/// the recording thread's inline batch flush (staging buffer reaches
/// `STAGE_BATCH`) and a reader's `flush()`. Capacity-2 ring, batch of 2.
///
/// Invariant: every recorded event lands in the ring exactly once (the
/// two drains must never duplicate or drop a staged event), sequence
/// numbers are unique, and the ring never exceeds capacity.
#[test]
fn flight_staging_flush_delivers_every_event_exactly_once() {
    const CAPACITY: usize = 2;
    const BATCH: usize = 2;
    let report = Builder::new()
        .preemption_bound(3)
        .check_result(|| {
            // Event = (unique id, seq once assigned).
            let buf: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let ring: Arc<Mutex<VecDeque<(u64, u64)>>> = Arc::new(Mutex::new(VecDeque::new()));
            let seq = Arc::new(AtomicU64::new(0));
            // Every (id, seq) that ever entered the ring, including
            // entries later evicted by the capacity limit.
            let landed: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));

            let drain_into = {
                let (seq, landed) = (Arc::clone(&seq), Arc::clone(&landed));
                move |staged: &mut Vec<u64>, ring: &mut VecDeque<(u64, u64)>| {
                    for id in staged.drain(..) {
                        let s = seq.fetch_add(1, Ordering::SeqCst);
                        landed.lock().push((id, s));
                        if ring.len() == CAPACITY {
                            ring.pop_front();
                        }
                        ring.push_back((id, s));
                    }
                }
            };

            // Recorder thread: stage events 1 and 2; the second push
            // reaches the batch size and flushes inline (buf lock held,
            // then ring lock — the production lock order).
            let recorder = {
                let (buf, ring) = (Arc::clone(&buf), Arc::clone(&ring));
                let drain_into = drain_into.clone();
                thread::spawn(move || {
                    for id in [1u64, 2] {
                        let mut b = buf.lock();
                        b.push(id);
                        if b.len() >= BATCH {
                            let mut r = ring.lock();
                            drain_into(&mut b, &mut r);
                        }
                    }
                })
            };

            // Reader thread: `flush()` — drain the slot into a local
            // staging vec, release the buf lock, then land the batch.
            let reader = {
                let (buf, ring) = (Arc::clone(&buf), Arc::clone(&ring));
                let drain_into = drain_into.clone();
                thread::spawn(move || {
                    let mut staged: Vec<u64> = buf.lock().drain(..).collect();
                    let mut r = ring.lock();
                    drain_into(&mut staged, &mut r);
                })
            };

            recorder.join();
            reader.join();

            // Final flush so nothing is left staged.
            let mut staged: Vec<u64> = buf.lock().drain(..).collect();
            drain_into(&mut staged, &mut ring.lock());

            let landed = landed.lock();
            for id in [1u64, 2] {
                let times = landed.iter().filter(|(i, _)| *i == id).count();
                assert_eq!(times, 1, "event {id} must land exactly once, landed {times} times");
            }
            let mut seqs: Vec<u64> = landed.iter().map(|(_, s)| *s).collect();
            seqs.sort_unstable();
            seqs.dedup();
            assert_eq!(seqs.len(), landed.len(), "sequence numbers must be unique");
            assert!(ring.lock().len() <= CAPACITY, "ring must never exceed capacity");
        })
        .expect("staging flush must deliver every event exactly once under every schedule");
    assert!(report.complete, "search space must be exhausted");
}

// ---------------------------------------------------------------------
// Model 5: push delivery into a dispatch queue — exactly-once, in order.
// ---------------------------------------------------------------------

/// One work item or the end-of-stream sentinel, mirroring
/// `core::DispatchCmd`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cmd {
    Work { sender: u64, seq: u64 },
    Shutdown,
}

/// Mirror of push delivery into one per-dispatcher queue (the queue a
/// key hashes to under `DispatchRouting::KeyAffinity`): transports run
/// the ORB's frame handler on whichever thread holds a frame, so two
/// deliverers — two connections' reader threads, or two netsim senders —
/// push into the same queue concurrently. Each deliverer checks the
/// ORB's shutdown flag and, if it is clear, pushes its frame
/// (`Orb::deliver_frame` → `handle_frame`). Concurrently `Orb::shutdown`
/// flips the flag and queues the sentinel. The dispatcher pops until it
/// sees the sentinel; it polls a *bounded* number of times (the idiom
/// from model 2), and whatever it did not get to is drained afterwards,
/// so the accounting covers every item under every schedule.
///
/// Invariants, under every interleaving of the two deliverers, the
/// shutdown and the dispatcher:
/// * every frame is accounted exactly once: dropped by the shutdown
///   check, executed by the dispatcher, or stranded behind the sentinel
///   (whose caller the ORB fails with a typed error) — never two of
///   these, never none;
/// * per-sender FIFO: frames one deliverer pushed are executed in the
///   order it pushed them;
/// * the sentinel never overtakes work: when the dispatcher pops it,
///   every frame queued before it has already been executed.
/// `Orb::deliver_frame` in miniature: drop the frame once shutdown
/// started, else hand it to its dispatcher's queue.
fn deliver(
    sender: u64,
    seq: u64,
    queue: &Mutex<VecDeque<Cmd>>,
    shut: &AtomicBool,
    dropped: &Mutex<Vec<(u64, u64)>>,
) {
    if shut.load(Ordering::SeqCst) {
        dropped.lock().push((sender, seq));
    } else {
        queue.lock().push_back(Cmd::Work { sender, seq });
    }
}

#[test]
fn dispatch_queue_handoff_is_exactly_once_in_key_order() {
    const POLLS: usize = 5;
    let report = Builder::new()
        .preemption_bound(3)
        .check_result(|| {
            let queue: Arc<Mutex<VecDeque<Cmd>>> = Arc::new(Mutex::new(VecDeque::new()));
            let shut = Arc::new(AtomicBool::new(false));
            let dropped = Arc::new(Mutex::new(Vec::new()));
            // Deliverer 0: two frames from one sender, in order.
            let d0 = {
                let (queue, shut) = (Arc::clone(&queue), Arc::clone(&shut));
                let dropped = Arc::clone(&dropped);
                thread::spawn(move || {
                    deliver(0, 0, &queue, &shut, &dropped);
                    deliver(0, 1, &queue, &shut, &dropped);
                })
            };
            // Deliverer 1: one frame, then this thread shuts the ORB
            // down (flag first, then the sentinel — `Orb::shutdown`).
            let d1 = {
                let (queue, shut) = (Arc::clone(&queue), Arc::clone(&shut));
                let dropped = Arc::clone(&dropped);
                thread::spawn(move || {
                    deliver(1, 0, &queue, &shut, &dropped);
                    shut.store(true, Ordering::SeqCst);
                    queue.lock().push_back(Cmd::Shutdown);
                })
            };

            // The dispatcher, on this thread.
            let mut executed: Vec<(u64, u64)> = Vec::new();
            let mut saw_sentinel = false;
            for _ in 0..POLLS {
                let cmd = queue.lock().pop_front();
                match cmd {
                    Some(Cmd::Work { sender, seq }) => executed.push((sender, seq)),
                    Some(Cmd::Shutdown) => {
                        saw_sentinel = true;
                        break;
                    }
                    None => thread::yield_now(),
                }
            }
            d0.join();
            d1.join();

            // Post-run: split what is left into work the dispatcher had
            // yet to reach (ahead of the sentinel) and work stranded
            // behind it.
            let rest: Vec<Cmd> = queue.lock().drain(..).collect();
            let mut stranded = Vec::new();
            let mut behind = saw_sentinel;
            for cmd in rest {
                match cmd {
                    Cmd::Work { sender, seq } if behind => stranded.push((sender, seq)),
                    Cmd::Work { sender, seq } => {
                        assert!(!saw_sentinel, "sentinel overtook work ({sender}, {seq})");
                        executed.push((sender, seq));
                    }
                    Cmd::Shutdown => {
                        assert!(!behind, "one sentinel per dispatcher");
                        behind = true;
                    }
                }
            }
            assert!(behind, "the sentinel is always queued");

            let dropped = dropped.lock().clone();
            let mut all: Vec<(u64, u64)> =
                executed.iter().chain(&stranded).chain(&dropped).copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![(0, 0), (0, 1), (1, 0)], "every frame accounted exactly once");
            let from0: Vec<u64> =
                executed.iter().filter(|(s, _)| *s == 0).map(|&(_, seq)| seq).collect();
            assert!(from0.windows(2).all(|w| w[0] < w[1]), "sender 0 out of order: {from0:?}");
            // Only a frame whose delivery raced the shutdown can strand:
            // sender 1 delivered before it shut down, so its frame never does.
            assert!(!stranded.contains(&(1, 0)), "a frame queued before the sentinel stranded");
            assert!(!dropped.contains(&(1, 0)), "a frame delivered before shutdown was dropped");
        })
        .expect("push delivery into a dispatch queue must be exactly-once under every schedule");
    assert!(report.complete, "search space must be exhausted");
}
