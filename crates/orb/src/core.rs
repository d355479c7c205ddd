//! The ORB core: request brokering and the Fig. 3 invocation interface.
//!
//! Each [`Orb`] owns one [`WireTransport`] (its "host" — the
//! deterministic simulator by default, real sockets via
//! [`Orb::start_wire`]), an object adapter, a QoS binding layer, and a
//! pseudo-object registry. The transport **pushes** every inbound frame
//! into the ORB's one frame entry point on the thread that already holds
//! it (the sender's thread on netsim, a connection's reader thread on
//! sockets; see [`WireTransport::deliver`]). That handler never blocks
//! and never sends: requests are queued to a small dispatcher pool (so a
//! servant may itself make outbound calls), replies are correlated back
//! to waiting callers and their waiter woken directly.
//!
//! The send path implements the client half of Fig. 3:
//!
//! 1. collocated QoS-unaware requests short-circuit straight into the
//!    local adapter (a standard ORB optimization, kept measurable for
//!    experiment E1);
//! 2. if the binding (peer, object) is assigned to a QoS module, the
//!    module's outbound transform produces the wire messages, framed as
//!    [`Packet::Qos`];
//! 3. otherwise the request travels as plain GIOP ([`Packet::Plain`]) —
//!    including *commands* and not-yet-negotiated QoS traffic, which is
//!    exactly how the paper bootstraps negotiation.
//!
//! The receive path implements the server half: plain packets go straight
//! to GIOP decoding; QoS packets first run the named module's inbound
//! transform (which may swallow duplicates); commands are routed to the
//! QoS transport or the named module; pseudo-object keys (`pseudo:NAME`)
//! hit the local registry; everything else is adapter dispatch.

use crate::adapter::{ObjectAdapter, Servant};
use crate::any::Any;
use crate::error::OrbError;
use crate::flight::{FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::giop::{
    self, frame_plain_reply, frame_plain_request, frame_qos, CommandTarget, GiopMessage, GiopPeek,
    Packet, PacketView, QosContext, ReplyMessage, RequestKind, RequestMessage,
};
use crate::ior::{Ior, ObjectKey};
use crate::metrics::MetricsRegistry;
use crate::pseudo::PseudoObjectRegistry;
use crate::trace::{self, TraceContext, TRACE_CONTEXT_ID};
use crate::qos_binding::QosTransport;
use crate::sync::{LockRank, OrderedCondvar, OrderedMutex};
use crate::wire::{Endpoint, NetSimTransport, WireError, WireFrame, WireTransport};
use netsim::channel::{unbounded, Receiver, Sender};
use netsim::{Bytes, NetHandle, Network, NodeId};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Prefix marking object keys that resolve in the pseudo-object registry.
pub const PSEUDO_KEY_PREFIX: &str = "pseudo:";

/// How the frame handler spreads incoming requests across the
/// per-dispatcher queues ([`OrbConfig::dispatch_routing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchRouting {
    /// Route by a stable hash of the object key: all calls on one key
    /// stay ordered on one dispatcher while distinct keys spread across
    /// the pool. The default — it preserves the per-servant FIFO a
    /// single dispatcher used to give.
    KeyAffinity,
    /// Spray requests round-robin for maximum spread. Use when servants
    /// are stateless and cross-call ordering per key does not matter.
    RoundRobin,
}

/// Tuning knobs for an [`Orb`].
#[derive(Debug, Clone)]
pub struct OrbConfig {
    /// Wall-clock timeout for synchronous invocations.
    pub request_timeout: Duration,
    /// Short-circuit collocated QoS-unaware calls into the local adapter.
    pub collocated_shortcut: bool,
    /// Number of dispatcher threads executing incoming requests. Each
    /// dispatcher owns a private queue; the frame handler routes into
    /// them per [`OrbConfig::dispatch_routing`], so dispatchers never
    /// contend on a shared work channel.
    pub dispatch_threads: usize,
    /// Request-to-dispatcher routing policy (default
    /// [`DispatchRouting::KeyAffinity`]).
    pub dispatch_routing: DispatchRouting,
    /// Trace-sampling period consulted by [`Orb::trace_sampled`]: attach
    /// a [`TraceContext`] to every `n`-th request. `1` (the default)
    /// traces everything, `0` traces nothing. Metrics are unconditional
    /// either way; only the per-request trace decode/encode and span
    /// pushes are skipped on unsampled requests.
    pub trace_sample_every: u32,
    /// Capacity of the ORB's [`FlightRecorder`] ring (events retained).
    /// `0` disables retention; cumulative event counts still accrue.
    pub flight_capacity: usize,
}

impl Default for OrbConfig {
    fn default() -> OrbConfig {
        OrbConfig {
            request_timeout: Duration::from_secs(5),
            collocated_shortcut: true,
            dispatch_threads: 1,
            dispatch_routing: DispatchRouting::KeyAffinity,
            trace_sample_every: 1,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// What a collecting invocation ([`Orb::invoke_collect`],
/// [`Orb::probe_collect`]) gathered: each responder's node and outcome.
pub type Collected = Vec<(NodeId, Result<Any, OrbError>)>;

/// Counters exposed by [`Orb::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrbStats {
    /// Requests dispatched by this ORB (as a server).
    pub requests_handled: u64,
    /// Replies delivered to local callers.
    pub replies_matched: u64,
    /// Replies that arrived for no waiting caller (e.g. fan-out extras).
    pub replies_orphaned: u64,
    /// Packets dropped because they could not be decoded or un-wrapped.
    pub packets_dropped: u64,
    /// Requests answered via the collocated shortcut.
    pub collocated_calls: u64,
}

/// Number of independent locks striping the pending-reply table. Reply
/// matching is lookup-dominated; striping keeps concurrent callers with
/// unrelated request ids from serializing on one mutex.
pub(crate) const PENDING_SHARDS: usize = 16;

/// One rendezvous between a waiting caller and the frame handler.
///
/// A slot belongs to exactly one caller thread (see [`current_slot`])
/// and is reused across calls instead of allocating a channel per
/// request. `armed` records the request id the slot currently serves,
/// so a late reply to a *previous* request on the same thread is
/// recognised as stale and counted orphaned rather than delivered to
/// the wrong caller.
struct ReplySlot {
    state: OrderedMutex<SlotState>,
    cvar: OrderedCondvar,
}

struct SlotState {
    /// Request id currently armed on this slot; `0` = disarmed.
    armed: u64,
    queue: VecDeque<ReplyMessage>,
    /// Waiters parked on the condvar right now; `push` notifies only
    /// when there is one (a futex wake is a syscall even with no waiter).
    sleepers: u32,
}

impl ReplySlot {
    fn new() -> ReplySlot {
        ReplySlot {
            state: OrderedMutex::new(
                LockRank::ReplySlot,
                SlotState { armed: 0, queue: VecDeque::new(), sleepers: 0 },
            ),
            cvar: OrderedCondvar::new(),
        }
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

    /// Deliver `reply` if the slot is still armed for `id`; a refusal
    /// means the caller gave up (timeout) and the reply is an orphan.
    ///
    /// `counted` runs under the slot lock, after the armed guard accepts
    /// the reply and before the waiter can pop it. Stats bumped there are
    /// visible by the time the caller's `invoke` returns — bumping after
    /// `push` instead lets a caller observe its own completed call as
    /// uncounted (Metrics 600 and Flight 700s rank above ReplySlot 510,
    /// so acquiring them here respects the lock order).
    fn push(&self, id: u64, reply: ReplyMessage, counted: impl FnOnce()) -> bool {
        let mut s = self.state.lock();
        if s.armed != id {
            return false;
        }
        s.queue.push_back(reply);
        counted();
        if s.sleepers > 0 {
            self.cvar.notify_all();
        }
        true
    }

    /// Take one queued reply for `id` without blocking.
    fn try_pop(&self, id: u64) -> Option<ReplyMessage> {
        let mut s = self.state.lock();
        if s.armed != id {
            return None;
        }
        s.queue.pop_front()
    }

    /// Block until a reply for `id` arrives or `deadline` passes.
    fn wait_until(&self, id: u64, deadline: Instant) -> Option<ReplyMessage> {
        let mut s = self.state.lock();
        loop {
            if s.armed != id {
                return None;
            }
            if let Some(r) = s.queue.pop_front() {
                return Some(r);
            }
            if Instant::now() >= deadline {
                return None;
            }
            s.sleepers += 1;
            self.cvar.wait_until(&mut s, deadline);
            s.sleepers -= 1;
        }
    }
}

thread_local! {
    /// Per-thread rendezvous slot. A thread has at most one synchronous
    /// invocation outstanding at a time (nested calls made *by a
    /// servant* run on dispatcher threads, which carry their own slot),
    /// so one reusable slot per thread replaces a per-call channel.
    static REPLY_SLOT: Arc<ReplySlot> = Arc::new(ReplySlot::new());

    /// Sampling counter for `transport.inbound_us`, per delivering
    /// thread (a plain `Cell`: 1-in-32 per thread is 1-in-32 overall).
    static INBOUND_SAMPLE: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };

    /// Set while this thread runs the frame handler. The handler may
    /// run on a foreign thread — another node's sender on netsim — so
    /// it must never send; [`Orb::send_frame`] asserts this in debug
    /// builds.
    static IN_DELIVERY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn current_slot() -> Arc<ReplySlot> {
    REPLY_SLOT.with(Arc::clone)
}

struct Pending {
    slot: Arc<ReplySlot>,
    /// Fan-out collectors peek the entry and leave it registered so
    /// several replies can accumulate; point-to-point calls are *taken*
    /// out of the shard so the lock drops before delivery.
    collect: bool,
}

/// Parameters of one collecting invocation — the shared core of
/// [`Orb::invoke_collect`] and [`Orb::probe_collect`], bundled so the
/// call site names what each value is.
struct CollectCall<'a> {
    ior: &'a Ior,
    op: &'a str,
    args: &'a [Any],
    qos: Option<QosContext>,
    /// Return as soon as this many replies arrived (or the deadline hit).
    min_replies: usize,
    timeout: Duration,
    kind: RequestKind,
}

/// Lock-free counters behind [`Orb::stats`]. Each counter is
/// independently monotone and `stats()` reads a relaxed snapshot,
/// which is all the cross-counter invariants rely on.
#[derive(Default)]
struct StatCells {
    requests_handled: AtomicU64,
    replies_matched: AtomicU64,
    replies_orphaned: AtomicU64,
    packets_dropped: AtomicU64,
    collocated_calls: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> OrbStats {
        OrbStats {
            requests_handled: self.requests_handled.load(Ordering::Relaxed),
            replies_matched: self.replies_matched.load(Ordering::Relaxed),
            replies_orphaned: self.replies_orphaned.load(Ordering::Relaxed),
            packets_dropped: self.packets_dropped.load(Ordering::Relaxed),
            collocated_calls: self.collocated_calls.load(Ordering::Relaxed),
        }
    }
}

#[inline]
fn bump(cell: &AtomicU64) {
    cell.fetch_add(1, Ordering::Relaxed);
}

struct OrbInner {
    wire: Arc<dyn WireTransport>,
    /// The simulator handle when the wire is netsim-backed (virtual
    /// clock access, chaos hooks); `None` for socket-backed ORBs.
    sim: Option<NetHandle>,
    node: NodeId,
    name: String,
    adapter: ObjectAdapter,
    transport: QosTransport,
    pseudo: PseudoObjectRegistry,
    /// Pending-reply table, striped over [`PENDING_SHARDS`] locks keyed
    /// by request id.
    pending: [OrderedMutex<HashMap<u64, Pending>>; PENDING_SHARDS],
    next_request: AtomicU64,
    config: OrbConfig,
    shutdown: AtomicBool,
    stats: StatCells,
    trace_counter: AtomicU64,
    metrics: MetricsRegistry,
    flight: FlightRecorder,
    /// One private queue per dispatcher thread (sharded delivery).
    /// Whichever thread delivers a frame pushes into it; dispatchers
    /// never contend with each other for work.
    dispatch_tx: Vec<Sender<DispatchCmd>>,
    /// Next queue for [`DispatchRouting::RoundRobin`], shared by every
    /// delivering thread (a per-frame cursor would pin all work to
    /// queue 0).
    rr_cursor: AtomicUsize,
}

impl OrbInner {
    #[inline]
    fn shard(&self, id: u64) -> &OrderedMutex<HashMap<u64, Pending>> {
        &self.pending[(id as usize) % PENDING_SHARDS]
    }
}

enum DispatchCmd {
    /// One request, handed over as its frame is delivered.
    Work(DispatchWork),
    /// Wake-and-exit sentinel; [`Orb::shutdown`] queues one per
    /// dispatcher thread so every blocked `recv()` returns. Work queued
    /// before it still runs (the queue is FIFO).
    Shutdown,
}

struct DispatchWork {
    via_module: Option<String>,
    /// The raw GIOP request body. The frame handler only peeks the
    /// routing prefix ([`giop::peek`]); the full decode — args, QoS
    /// params, contexts — runs on the dispatcher thread, never on the
    /// foreign thread that delivered the frame.
    body: Bytes,
    /// Modelled wire transit of the carrying message, virtual µs.
    transit_vus: u64,
    /// When the frame was delivered; the dispatcher observes the gap as
    /// `orb.queue_wait_us`.
    received: Instant,
}

/// A reply handle for one in-flight [`Orb::invoke_async`] request.
///
/// Futures-free GIOP pipelining: each handle owns a *private*
/// [`ReplySlot`] (not the caller thread's pooled one), so a single
/// client thread can keep any number of calls in flight through the
/// sharded pending table and harvest them in any order with
/// [`PendingCall::wait`]. Dropping an unharvested handle unregisters
/// the request; its late reply is counted orphaned, never misdelivered
/// (the armed-request-id guard applies to private slots exactly as to
/// pooled ones).
pub struct PendingCall {
    orb: Orb,
    id: u64,
    slot: Arc<ReplySlot>,
    started: Instant,
    deadline: Instant,
}

impl PendingCall {
    /// The GIOP request id this handle is waiting on.
    pub fn request_id(&self) -> u64 {
        self.id
    }

    /// Park until the reply arrives or the ORB's request timeout
    /// (counted from issue time) expires, then decode the result.
    ///
    /// # Errors
    ///
    /// Remote exceptions, [`OrbError::Timeout`], as [`Orb::invoke`].
    pub fn wait(self) -> Result<Any, OrbError> {
        let reply = self.slot.wait_until(self.id, self.deadline).ok_or_else(|| {
            OrbError::Timeout(format!("request {}: no reply before pipeline deadline", self.id))
        });
        // Dropping `self` (on both paths) unregisters the pending entry
        // and disarms the slot — the same order as the synchronous path.
        let reply = reply?;
        self.orb
            .inner
            .metrics
            .observe_us("orb.roundtrip_us", self.started.elapsed().as_micros() as u64);
        reply.into_result()
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        self.orb.unregister_pending(self.id, &self.slot);
    }
}

/// An object request broker bound to one simulated network node.
///
/// Cloning shares the same broker. Dropping the last clone does *not*
/// stop the background threads; call [`Orb::shutdown`] for a clean stop.
#[derive(Clone)]
pub struct Orb {
    inner: Arc<OrbInner>,
}

impl fmt::Debug for Orb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orb")
            .field("node", &self.inner.node)
            .field("name", &self.inner.name)
            .finish()
    }
}

impl Orb {
    /// Start an ORB on a fresh node of `net` with default configuration.
    pub fn start(net: &Network, name: &str) -> Orb {
        Orb::start_with(net, name, OrbConfig::default())
    }

    /// Start an ORB with explicit configuration.
    pub fn start_with(net: &Network, name: &str, config: OrbConfig) -> Orb {
        let handle = net.attach(name);
        let flight = FlightRecorder::new(handle.name(), config.flight_capacity);
        // Land fault-script ticks in this node's black box, so a chaos
        // dump shows the injected faults interleaved with the lifecycle
        // events they caused.
        {
            let flight = flight.clone();
            net.add_fault_observer(Arc::new(move |at_us, desc| {
                flight.record_detail(
                    FlightEventKind::FaultTick,
                    "netsim",
                    None,
                    format!("t={at_us}us {desc}"),
                );
            }));
        }
        let sim = handle.clone();
        let wire: Arc<dyn WireTransport> = Arc::new(NetSimTransport::new(handle));
        Orb::start_inner(wire, Some(sim), flight, name, config)
    }

    /// Start an ORB on an arbitrary wire transport — real TCP or
    /// Unix-domain sockets ([`crate::wire`]) instead of the simulator.
    ///
    /// The transport supplies the node identity; references the ORB
    /// activates carry the transport's [`Endpoint`] as an IOR profile so
    /// peers in other processes can dial in. Simulator conveniences
    /// ([`Orb::net_handle`], chaos fault observers) are unavailable.
    pub fn start_wire(wire: Arc<dyn WireTransport>, name: &str, config: OrbConfig) -> Orb {
        let flight = FlightRecorder::new(name, config.flight_capacity);
        Orb::start_inner(wire, None, flight, name, config)
    }

    fn start_inner(
        wire: Arc<dyn WireTransport>,
        sim: Option<NetHandle>,
        flight: FlightRecorder,
        name: &str,
        config: OrbConfig,
    ) -> Orb {
        let n_dispatchers = config.dispatch_threads.max(1);
        let mut dispatch_tx = Vec::with_capacity(n_dispatchers);
        let mut dispatch_rx = Vec::with_capacity(n_dispatchers);
        for _ in 0..n_dispatchers {
            let (tx, rx) = unbounded::<DispatchCmd>();
            dispatch_tx.push(tx);
            dispatch_rx.push(rx);
        }
        let node = wire.node();
        // Wire lifecycle events (dial, redial, failover, backpressure,
        // resets) land in the same flight ring as request events, so a
        // flight_tail around an incident shows both layers interleaved.
        wire.attach_flight(&flight);
        let inner = Arc::new(OrbInner {
            wire,
            sim,
            node,
            name: name.to_string(),
            adapter: ObjectAdapter::new(),
            transport: QosTransport::new(),
            pseudo: PseudoObjectRegistry::new(),
            pending: std::array::from_fn(|_| {
                OrderedMutex::new(LockRank::PendingShard, HashMap::new())
            }),
            next_request: AtomicU64::new(1),
            config,
            shutdown: AtomicBool::new(false),
            stats: StatCells::default(),
            trace_counter: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            flight,
            dispatch_tx,
            rr_cursor: AtomicUsize::new(0),
        });
        let orb = Orb { inner };
        for rx in dispatch_rx {
            orb.spawn_dispatcher(rx);
        }
        // The one frame entry point. It holds the ORB weakly: the
        // transport outlives nothing it does not own, and a frame racing
        // the last drop is simply discarded.
        let weak = Arc::downgrade(&orb.inner);
        Arc::clone(&orb.inner.wire).deliver(Arc::new(move |frame: WireFrame| {
            if let Some(inner) = weak.upgrade() {
                Orb::deliver_frame(&inner, &frame);
            }
        }));
        orb
    }

    /// The network node this ORB runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The name this ORB was started with.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The wire transport moving this ORB's frames.
    pub fn wire(&self) -> &Arc<dyn WireTransport> {
        &self.inner.wire
    }

    /// The underlying simulator handle (virtual clock, name, …).
    ///
    /// # Panics
    ///
    /// Panics for ORBs started on a non-simulator wire transport
    /// ([`Orb::start_wire`]); gate on [`Orb::is_sim_backed`] first.
    pub fn net_handle(&self) -> &NetHandle {
        self.inner
            .sim
            .as_ref()
            .expect("net_handle(): this ORB runs on a socket wire transport, not netsim")
    }

    /// Whether this ORB runs on the deterministic simulator.
    pub fn is_sim_backed(&self) -> bool {
        self.inner.sim.is_some()
    }

    /// Teach the wire transport how to reach the node hosting `ior`
    /// (no-op for references without endpoint profiles, e.g. on the
    /// simulator). Invocations do this automatically; it is public for
    /// callers that address peers by [`NodeId`] directly, such as
    /// command/introspection clients attaching across processes.
    ///
    /// # Errors
    ///
    /// [`OrbError::CommFailure`] if the transport supports none of the
    /// listed endpoints.
    pub fn register_endpoints(&self, ior: &Ior) -> Result<(), OrbError> {
        if ior.endpoints.is_empty() {
            return Ok(());
        }
        self.inner.wire.register_peer(ior.node, &ior.endpoints).map_err(OrbError::from)
    }

    /// The ORB's object adapter.
    pub fn adapter(&self) -> &ObjectAdapter {
        &self.inner.adapter
    }

    /// The ORB's QoS transport (module/factory/binding administration).
    pub fn qos_transport(&self) -> &QosTransport {
        &self.inner.transport
    }

    /// The ORB's pseudo-object registry.
    pub fn pseudo_objects(&self) -> &PseudoObjectRegistry {
        &self.inner.pseudo
    }

    /// A snapshot of the broker counters.
    pub fn stats(&self) -> OrbStats {
        self.inner.stats.snapshot()
    }

    /// Client-side trace-sampling decision
    /// ([`OrbConfig::trace_sample_every`]): `true` when the next
    /// outgoing request should carry a [`TraceContext`]. Stubs consult
    /// this *before* building a context, so unsampled requests skip the
    /// trace encode on the way out and every decode/span push
    /// downstream; metrics are recorded unconditionally either way.
    pub fn trace_sampled(&self) -> bool {
        match self.inner.config.trace_sample_every {
            0 => false,
            1 => true,
            n => {
                let seen = self.inner.trace_counter.fetch_add(1, Ordering::Relaxed);
                seen.is_multiple_of(u64::from(n))
            }
        }
    }

    /// The ORB's metrics registry (request-path counters/histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The ORB's flight recorder (the always-on black box of lifecycle
    /// events; see [`crate::flight`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Activate a servant and return a QoS-unaware reference to it.
    pub fn activate(&self, key: &str, servant: Box<dyn Servant>) -> Ior {
        self.activate_with_tags(key, servant, &[])
    }

    /// Activate a servant and return a reference tagged with the QoS
    /// characteristics offered for it (the Fig. 3 IOR tag).
    pub fn activate_with_tags(&self, key: &str, servant: Box<dyn Servant>, tags: &[&str]) -> Ior {
        let servant: Arc<dyn Servant> = Arc::from(servant);
        let type_id = servant.interface_id().to_string();
        self.inner.adapter.activate(key, servant);
        let mut ior = Ior::new(type_id, self.node(), key);
        for t in tags {
            ior = ior.with_qos_tag(*t);
        }
        self.attach_endpoint(ior)
    }

    /// Attach this ORB's dialable listener to `ior` as a tagged profile.
    ///
    /// Socket-backed ORBs publish their listener so the reference works
    /// across process boundaries; simulator references stay profile-free
    /// (identity routing, byte-stable encodings for every existing
    /// test). `activate` does this automatically — call it yourself only
    /// for references built outside the ORB (e.g. `MaqsNode::serve`).
    pub fn attach_endpoint(&self, ior: Ior) -> Ior {
        match self.inner.wire.local_endpoint() {
            Endpoint::Sim(_) => ior,
            ep => ior.with_endpoint(ep),
        }
    }

    /// Deactivate an object.
    pub fn deactivate(&self, key: &str) {
        self.inner.adapter.deactivate(&ObjectKey(key.to_string()));
    }

    /// Synchronous QoS-unaware invocation.
    ///
    /// # Errors
    ///
    /// Remote exceptions, [`OrbError::Timeout`] if no reply arrives in
    /// [`OrbConfig::request_timeout`], or transport errors.
    pub fn invoke(&self, ior: &Ior, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        self.invoke_qos(ior, op, args, None)
    }

    /// Synchronous invocation with an optional negotiated-QoS context.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke`].
    pub fn invoke_qos(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
    ) -> Result<Any, OrbError> {
        self.invoke_traced(ior, op, args, qos, None).map(|(value, _)| value)
    }

    /// Synchronous invocation carrying a [`TraceContext`] in the request's
    /// service-context slot. The returned context is the one the reply
    /// carried back — the client-supplied trace plus every span the
    /// server-side layers appended — with this ORB's own `orb.client`
    /// span added on top. `None` in means `None` out.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke`].
    pub fn invoke_traced(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
        trace: Option<TraceContext>,
    ) -> Result<(Any, Option<TraceContext>), OrbError> {
        self.check_running()?;
        let metrics = &self.inner.metrics;
        // Collocated shortcut (only for plain calls: QoS-annotated traffic
        // must take the full path so mediator/module semantics hold).
        if self.inner.config.collocated_shortcut && qos.is_none() && ior.node == self.node() {
            bump(&self.inner.stats.collocated_calls);
            metrics.incr("orb.collocated_calls");
            self.inner.flight.record(
                FlightEventKind::CollocatedCall,
                "orb.client",
                trace.as_ref().map(|t| t.trace_id),
            );
            let started = Instant::now();
            return match trace {
                None => {
                    let result = self.inner.adapter.dispatch(&ior.key, op, args);
                    metrics.observe_us("orb.collocated_us", started.elapsed().as_micros() as u64);
                    result.map(|v| (v, None))
                }
                Some(ctx) => {
                    // Same thread end to end: install so the skeleton's
                    // spans land in this trace, then add the adapter span.
                    let scope = trace::begin(ctx, &self.inner.name);
                    let result = self.inner.adapter.dispatch(&ior.key, op, args);
                    let us = started.elapsed().as_micros() as u64;
                    let mut ctx = scope.finish();
                    ctx.push("adapter", &self.inner.name, us);
                    metrics.observe_us("orb.collocated_us", us);
                    result.map(|v| (v, Some(ctx)))
                }
            };
        }
        let _ = self.register_endpoints(ior);
        let trace_id = trace.as_ref().map(|t| t.trace_id);
        let (id, slot) = self.register_pending(false);
        let mut request = RequestMessage {
            request_id: id,
            reply_to: self.node(),
            object_key: ior.key.clone(),
            operation: op.to_string(),
            args: args.to_vec(),
            response_expected: true,
            kind: RequestKind::ServiceRequest,
            qos,
            contexts: Vec::new(),
        };
        if let Some(ctx) = &trace {
            request.set_context(TRACE_CONTEXT_ID, ctx.to_bytes());
        }
        let started = Instant::now();
        let send_result = self.send_request(ior.node, &request, trace_id);
        if let Err(e) = send_result {
            self.unregister_pending(id, &slot);
            return Err(e);
        }
        let reply = self.await_reply(id, &slot, self.inner.config.request_timeout);
        self.unregister_pending(id, &slot);
        let reply = reply?;
        let roundtrip_us = started.elapsed().as_micros() as u64;
        metrics.observe_us("orb.roundtrip_us", roundtrip_us);
        let trace_out = match trace_id {
            None => None,
            Some(trace_id) => {
                // Prefer the server-enriched context from the reply slot;
                // fall back to a bare continuation of the same trace if the
                // reply lost it (e.g. an exception path).
                let mut ctx = reply
                    .context(TRACE_CONTEXT_ID)
                    .and_then(|b| TraceContext::from_bytes(b).ok())
                    .unwrap_or_else(|| TraceContext::with_id(trace_id));
                ctx.push("orb.client", &self.inner.name, roundtrip_us);
                Some(ctx)
            }
        };
        reply.into_result().map(|v| (v, trace_out))
    }

    /// Issue a request without blocking for the reply: GIOP pipelining.
    ///
    /// Returns a [`PendingCall`] to harvest later; one thread may hold
    /// any number in flight (each handle carries its own private reply
    /// slot, so the per-thread pooled slot is not involved). Unlike
    /// [`Orb::invoke_qos`] there is no collocated shortcut — the call
    /// always travels the wire so in-flight semantics are uniform — and
    /// no trace context (pipelined callers that need spans should use
    /// [`Orb::invoke_traced`] synchronously).
    ///
    /// # Errors
    ///
    /// Local send errors only; remote failures and timeouts surface at
    /// [`PendingCall::wait`].
    pub fn invoke_async(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
    ) -> Result<PendingCall, OrbError> {
        self.check_running()?;
        let _ = self.register_endpoints(ior);
        let slot = Arc::new(ReplySlot::new());
        let id = self.inner.next_request.fetch_add(1, Ordering::Relaxed);
        slot.arm(id);
        self.inner
            .shard(id)
            .lock()
            .insert(id, Pending { slot: Arc::clone(&slot), collect: false });
        let request = RequestMessage {
            request_id: id,
            reply_to: self.node(),
            object_key: ior.key.clone(),
            operation: op.to_string(),
            args: args.to_vec(),
            response_expected: true,
            kind: RequestKind::ServiceRequest,
            qos,
            contexts: Vec::new(),
        };
        let started = Instant::now();
        if let Err(e) = self.send_request(ior.node, &request, None) {
            self.unregister_pending(id, &slot);
            return Err(e);
        }
        Ok(PendingCall {
            orb: self.clone(),
            id,
            slot,
            started,
            deadline: started + self.inner.config.request_timeout,
        })
    }

    /// Invocation that collects replies from multiple responders (replica
    /// fan-out). Waits until `min_replies` have arrived or `timeout`
    /// elapses, and returns everything received (possibly more than
    /// `min_replies` if extras raced in).
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] if *no* reply arrived at all; partial results
    /// are returned as `Ok` so voters can quorum on what they have.
    pub fn invoke_collect(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
        min_replies: usize,
        timeout: Duration,
    ) -> Result<Collected, OrbError> {
        self.invoke_collect_kind(CollectCall {
            ior,
            op,
            args,
            qos,
            min_replies,
            timeout,
            kind: RequestKind::ServiceRequest,
        })
    }

    /// Liveness probe: a collecting `_non_existent` ping tagged
    /// [`RequestKind::Probe`], so both ends count it under the
    /// `orb.probe.*` metric family instead of the request-path
    /// `orb.requests_*` counters availability math is computed from.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke_collect`].
    pub fn probe_collect(
        &self,
        ior: &Ior,
        timeout: Duration,
    ) -> Result<Collected, OrbError> {
        self.invoke_collect_kind(CollectCall {
            ior,
            op: "_non_existent",
            args: &[],
            qos: None,
            min_replies: 1,
            timeout,
            kind: RequestKind::Probe,
        })
    }

    fn invoke_collect_kind(
        &self,
        call: CollectCall<'_>,
    ) -> Result<Collected, OrbError> {
        let CollectCall { ior, op, args, qos, min_replies, timeout, kind } = call;
        self.check_running()?;
        let _ = self.register_endpoints(ior);
        let (id, slot) = self.register_pending(true);
        let request = RequestMessage {
            request_id: id,
            reply_to: self.node(),
            object_key: ior.key.clone(),
            operation: op.to_string(),
            args: args.to_vec(),
            response_expected: true,
            kind,
            qos,
            contexts: Vec::new(),
        };
        if let Err(e) = self.send_request(ior.node, &request, None) {
            self.unregister_pending(id, &slot);
            return Err(e);
        }
        let deadline = Instant::now() + timeout;
        let mut replies = Vec::new();
        while replies.len() < min_replies {
            match slot.wait_until(id, deadline) {
                Some(reply) => replies.push((reply.from, reply.into_result())),
                None => break,
            }
        }
        // Drain any extras that arrived while we were counting.
        while let Some(reply) = slot.try_pop(id) {
            replies.push((reply.from, reply.into_result()));
        }
        self.unregister_pending(id, &slot);
        if replies.is_empty() {
            return Err(OrbError::Timeout(format!("{op}: no replies within {timeout:?}")));
        }
        Ok(replies)
    }

    /// Fire-and-forget invocation (CORBA `oneway`).
    ///
    /// # Errors
    ///
    /// Local send errors only; remote failures are invisible by design.
    pub fn invoke_oneway(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
    ) -> Result<(), OrbError> {
        self.check_running()?;
        let _ = self.register_endpoints(ior);
        let request = RequestMessage {
            request_id: self.inner.next_request.fetch_add(1, Ordering::Relaxed),
            reply_to: self.node(),
            object_key: ior.key.clone(),
            operation: op.to_string(),
            args: args.to_vec(),
            response_expected: false,
            kind: RequestKind::ServiceRequest,
            qos,
            contexts: Vec::new(),
        };
        self.send_request(ior.node, &request, None)
    }

    /// Send a *command* (Fig. 3) to the QoS transport or a module on
    /// `node` and wait for the result. Commands always travel the plain
    /// GIOP path.
    ///
    /// # Errors
    ///
    /// Remote command errors, [`OrbError::Timeout`], or transport errors.
    pub fn send_command(
        &self,
        node: NodeId,
        target: CommandTarget,
        op: &str,
        args: &[Any],
    ) -> Result<Any, OrbError> {
        self.check_running()?;
        let (id, slot) = self.register_pending(false);
        let request = RequestMessage {
            request_id: id,
            reply_to: self.node(),
            object_key: ObjectKey(String::new()),
            operation: op.to_string(),
            args: args.to_vec(),
            response_expected: true,
            kind: RequestKind::Command(target),
            qos: None,
            contexts: Vec::new(),
        };
        if let Err(e) = self.send_wire(node, frame_plain_request(&request)) {
            self.unregister_pending(id, &slot);
            return Err(e);
        }
        let reply = self.await_reply(id, &slot, self.inner.config.request_timeout);
        self.unregister_pending(id, &slot);
        reply?.into_result()
    }

    /// Stop the ORB. Idempotent.
    ///
    /// From the moment the flag flips, delivered frames are dropped.
    /// Every call still pending is failed with [`OrbError::Shutdown`]
    /// (a reply racing this either wins the pending entry first and is
    /// delivered, or finds it gone and is orphaned — never both). Each
    /// dispatcher gets one [`DispatchCmd::Shutdown`] sentinel behind the
    /// work already queued, and the transport itself stops (closing
    /// sockets and listeners on socket backends, which also ends a
    /// provided pump's blocking `recv`).
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.inner.pending {
            let pending: Vec<(u64, Pending)> = shard.lock().drain().collect();
            for (id, p) in pending {
                let failed =
                    ReplyMessage::from_result(id, self.inner.node, Err(OrbError::Shutdown));
                p.slot.push(id, failed, || {});
            }
        }
        for tx in &self.inner.dispatch_tx {
            let _ = tx.send(DispatchCmd::Shutdown);
        }
        self.inner.wire.shutdown();
    }

    /// Whether [`Orb::shutdown`] has been called.
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    // ---- internals ------------------------------------------------------

    fn check_running(&self) -> Result<(), OrbError> {
        if self.is_shut_down() {
            Err(OrbError::Shutdown)
        } else {
            Ok(())
        }
    }

    fn register_pending(&self, collect: bool) -> (u64, Arc<ReplySlot>) {
        let id = self.inner.next_request.fetch_add(1, Ordering::Relaxed);
        let slot = current_slot();
        slot.arm(id);
        self.inner.shard(id).lock().insert(id, Pending { slot: Arc::clone(&slot), collect });
        (id, slot)
    }

    fn unregister_pending(&self, id: u64, slot: &ReplySlot) {
        self.inner.shard(id).lock().remove(&id);
        slot.disarm();
    }

    fn await_reply(
        &self,
        id: u64,
        slot: &ReplySlot,
        timeout: Duration,
    ) -> Result<ReplyMessage, OrbError> {
        slot.wait_until(id, Instant::now() + timeout)
            .ok_or_else(|| OrbError::Timeout(format!("request {id}: no reply within {timeout:?}")))
    }

    /// The client half of the Fig. 3 decision tree.
    ///
    /// The request is encoded exactly once: the plain path writes
    /// envelope and GIOP body into a single wire buffer, the QoS path
    /// hands the module the bare GIOP body and frames each transformed
    /// output. No `RequestMessage` clone, no intermediate `Packet`.
    fn send_request(
        &self,
        dst: NodeId,
        request: &RequestMessage,
        trace_id: Option<u64>,
    ) -> Result<(), OrbError> {
        let metrics = &self.inner.metrics;
        if matches!(request.kind, RequestKind::Probe) {
            metrics.incr("orb.probe.requests_sent");
            self.inner.flight.record(FlightEventKind::ProbeSent, "orb.client", trace_id);
        } else {
            metrics.incr("orb.requests_sent");
            self.inner.flight.record(FlightEventKind::RequestSent, "orb.client", trace_id);
        }
        if request.qos.is_some() {
            if let Some(module) = self.inner.transport.bound_module(dst, &request.object_key) {
                let bytes = GiopMessage::encode_request(request);
                let started = Instant::now();
                let outs = module.outbound(dst, bytes)?;
                metrics.observe_us("transport.outbound_us", started.elapsed().as_micros() as u64);
                metrics.incr("transport.qos_packets_out");
                for (node, body) in outs {
                    self.send_wire(node, frame_qos(module.name(), &body))?;
                }
                return Ok(());
            }
            // QoS-aware but unbound: fall back to GIOP/IIOP (Fig. 3) —
            // this is the path negotiation itself travels on.
        }
        self.send_wire(dst, frame_plain_request(request))
    }

    fn send_wire(&self, dst: NodeId, frame: Vec<u8>) -> Result<(), OrbError> {
        Orb::send_frame(&self.inner, dst, frame).map_err(OrbError::from)
    }

    /// Every frame this ORB sends goes through here.
    fn send_frame(inner: &OrbInner, dst: NodeId, frame: Vec<u8>) -> Result<(), WireError> {
        debug_assert!(
            !IN_DELIVERY.with(std::cell::Cell::get),
            "the frame handler must never send: it may run on a foreign thread"
        );
        inner.wire.send(dst, frame)
    }

    fn spawn_dispatcher(&self, rx: Receiver<DispatchCmd>) -> JoinHandle<()> {
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name(format!("orb-dispatch-{}", inner.name))
            .spawn(move || {
                // Event-driven: block on this dispatcher's private
                // queue; `shutdown()` enqueues one Shutdown sentinel per
                // dispatcher. (Spin-before-park was tried here and
                // rejected: on a single-core host the sender cannot run
                // while the receiver spins, so polling burns exactly the
                // timeslices the producer needs and throughput drops
                // ~35%. Blocking immediately is strictly better; a busy
                // dispatcher costs its producers no wake-up syscall,
                // because the queue notifies only parked receivers.)
                while let Ok(DispatchCmd::Work(work)) = rx.recv() {
                    Orb::run_work(&inner, work);
                }
            })
            .expect("spawn orb dispatcher")
    }

    /// Dispatcher-side entry: account queue wait, run the full GIOP
    /// decode the frame handler skipped, then execute.
    fn run_work(inner: &Arc<OrbInner>, work: DispatchWork) {
        let DispatchWork { via_module, body, transit_vus, received } = work;
        inner
            .metrics
            .observe_us("orb.queue_wait_us", received.elapsed().as_micros() as u64);
        let request = match GiopMessage::from_bytes(&body) {
            Ok(GiopMessage::Request(r)) => r,
            // The routing peek accepted the prefix but the full decode
            // failed (torn or malicious body): account it like any other
            // undecodable packet.
            _ => {
                bump(&inner.stats.packets_dropped);
                inner.metrics.incr("orb.packets_dropped");
                inner.flight.record(FlightEventKind::PacketDropped, "wire", None);
                return;
            }
        };
        Orb::execute_request(inner, via_module, request, transit_vus);
    }

    /// The ORB's one frame entry point, installed as the transport's
    /// [`crate::wire::FrameSink`]. It runs on whichever thread holds the
    /// frame, so it never blocks and never sends (debug builds assert
    /// the latter). Wakeup pokes (empty payloads) and frames arriving
    /// after [`Orb::shutdown`] started are dropped.
    fn deliver_frame(inner: &Arc<OrbInner>, frame: &WireFrame) {
        if frame.payload.is_empty() || inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        struct Delivering(bool);
        impl Drop for Delivering {
            fn drop(&mut self) {
                IN_DELIVERY.with(|d| d.set(self.0));
            }
        }
        let _restore = Delivering(IN_DELIVERY.with(|d| d.replace(true)));
        Orb::handle_frame(inner, frame);
    }

    /// The frame handler. Requests are *routed*, not decoded:
    /// [`giop::peek`] reads only the tag and object key, the body ships
    /// raw to the dispatcher picked by `dispatch_routing`, and the full
    /// decode happens there. Replies are decoded and matched inline —
    /// the pending caller is parked on its slot and nothing else can
    /// deliver to it — and the waiter is woken from here.
    fn handle_frame(inner: &Arc<OrbInner>, frame: &WireFrame) {
        let src = frame.src;
        let transit_vus = frame.transit_us;
        let metrics = &inner.metrics;
        metrics.incr("wire.msgs_received");
        metrics.add("wire.bytes_received", frame.payload.len() as u64);
        metrics.observe_us("wire.transit_vus", transit_vus);
        let received = Instant::now();
        let drop_packet = || {
            bump(&inner.stats.packets_dropped);
            metrics.incr("orb.packets_dropped");
            inner.flight.record(FlightEventKind::PacketDropped, "wire", None);
        };
        // The view decode allocates nothing: the body is a refcounted
        // slice of the frame and the module name borrows from it. An
        // owned name is only materialized when a *request* crosses to a
        // dispatcher; the reply path never needs one.
        let (giop_bytes, via_module): (Bytes, Option<&str>) = match Packet::decode_view(
            &frame.payload,
        ) {
            Err(_) => {
                drop_packet();
                return;
            }
            Ok(PacketView::Plain(body)) => (body, None),
            Ok(PacketView::Qos { module, body }) => match inner.transport.module(module) {
                Some(m) => {
                    // Timing every inverse transform puts two clock
                    // reads on the QoS hot path; sampling 1-in-32 keeps
                    // the histogram live at a fraction of the cost.
                    let sampled = INBOUND_SAMPLE.with(|c| {
                        let n = c.get();
                        c.set(n.wrapping_add(1));
                        n & 31 == 0
                    });
                    let started = sampled.then(Instant::now);
                    let transformed = m.inbound(src, &body);
                    if let Some(started) = started {
                        metrics.observe_us(
                            "transport.inbound_us",
                            started.elapsed().as_micros() as u64,
                        );
                    }
                    metrics.incr("transport.qos_packets_in");
                    match transformed {
                        Ok(Some(out)) => {
                            let bytes = match out {
                                // Identity transforms hand the input slice
                                // straight back; re-share the refcounted
                                // frame instead of copying the body.
                                std::borrow::Cow::Borrowed(b)
                                    if b.len() == body.len() && b.as_ptr() == body.as_ptr() =>
                                {
                                    body.clone()
                                }
                                std::borrow::Cow::Borrowed(b) => Bytes::copy_from_slice(b),
                                std::borrow::Cow::Owned(v) => Bytes::from(v),
                            };
                            (bytes, Some(module))
                        }
                        Ok(None) => return, // module swallowed it (e.g. duplicate)
                        Err(_) => {
                            drop_packet();
                            return;
                        }
                    }
                }
                None => {
                    drop_packet();
                    return;
                }
            },
        };
        match giop::peek(&giop_bytes) {
            Err(_) => drop_packet(),
            Ok(GiopPeek::Request { key_hash }) => {
                let queues = inner.dispatch_tx.len();
                let idx = match inner.config.dispatch_routing {
                    DispatchRouting::KeyAffinity => (key_hash % queues as u64) as usize,
                    DispatchRouting::RoundRobin => {
                        inner.rr_cursor.fetch_add(1, Ordering::Relaxed) % queues
                    }
                };
                let _ = inner.dispatch_tx[idx].send(DispatchCmd::Work(DispatchWork {
                    via_module: via_module.map(str::to_owned),
                    body: giop_bytes,
                    transit_vus,
                    received,
                }));
                metrics.observe_us("orb.recv_route_us", received.elapsed().as_micros() as u64);
            }
            Ok(GiopPeek::Reply) => {
                let mut reply = match GiopMessage::from_bytes(&giop_bytes) {
                    Ok(GiopMessage::Reply(r)) => r,
                    _ => {
                        drop_packet();
                        return;
                    }
                };
                // Stamp the reply's wire leg into the trace it carries, so
                // the client sees both directions of the network cost.
                let mut reply_trace_id = None;
                if let Some(mut ctx) = reply
                    .context(TRACE_CONTEXT_ID)
                    .and_then(|b| TraceContext::from_bytes(b).ok())
                {
                    reply_trace_id = Some(ctx.trace_id);
                    ctx.push("wire.reply", &inner.name, transit_vus);
                    reply.set_context(TRACE_CONTEXT_ID, ctx.to_bytes());
                }
                let id = reply.request_id;
                // Take the entry out of its shard (fan-out collectors
                // are peeked and left registered) and drop the lock
                // *before* delivering, so a slow consumer never holds up
                // unrelated reply matching on the same shard.
                let slot = {
                    let mut shard = inner.shard(id).lock();
                    match shard.get(&id) {
                        None => None,
                        Some(p) if p.collect => Some(Arc::clone(&p.slot)),
                        Some(_) => shard.remove(&id).map(|p| p.slot),
                    }
                };
                let delivered = match slot {
                    Some(slot) => slot.push(id, reply, || {
                        bump(&inner.stats.replies_matched);
                        metrics.incr("orb.replies_matched");
                        inner.flight.record(
                            FlightEventKind::ReplyMatched,
                            "orb.client",
                            reply_trace_id,
                        );
                    }),
                    None => false,
                };
                if !delivered {
                    bump(&inner.stats.replies_orphaned);
                    metrics.incr("orb.replies_orphaned");
                    inner.flight.record(
                        FlightEventKind::ReplyOrphaned,
                        "orb.client",
                        reply_trace_id,
                    );
                }
                metrics.observe_us("orb.reply_match_us", received.elapsed().as_micros() as u64);
            }
        }
    }

    /// The server half of the Fig. 3 decision tree.
    fn execute_request(
        inner: &Arc<OrbInner>,
        via_module: Option<String>,
        request: RequestMessage,
        transit_vus: u64,
    ) {
        let metrics = &inner.metrics;
        // Install the request's trace (if it carries one) on this
        // dispatcher thread so adapter/skeleton/servant spans land in it.
        let ctx_in = request
            .context(TRACE_CONTEXT_ID)
            .and_then(|b| TraceContext::from_bytes(b).ok());
        let trace_id = ctx_in.as_ref().map(|c| c.trace_id);
        let scope = ctx_in.map(|mut ctx| {
            ctx.push("wire", &inner.name, transit_vus);
            trace::begin(ctx, &inner.name)
        });
        let started = Instant::now();
        let result = match &request.kind {
            RequestKind::Command(CommandTarget::Transport) => {
                inner.transport.command(&request.operation, &request.args)
            }
            RequestKind::Command(CommandTarget::Module(name)) => match inner.transport.module(name) {
                Some(m) => m.command(&request.operation, &request.args),
                None => Err(OrbError::ModuleNotFound(name.clone())),
            },
            RequestKind::ServiceRequest | RequestKind::Probe => {
                if let Some(name) = request.object_key.0.strip_prefix(PSEUDO_KEY_PREFIX) {
                    inner.pseudo.invoke(name, &request.operation, &request.args)
                } else {
                    trace::time("adapter", || {
                        inner.adapter.dispatch(&request.object_key, &request.operation, &request.args)
                    })
                }
            }
        };
        let dispatch_us = started.elapsed().as_micros() as u64;
        if matches!(request.kind, RequestKind::Probe) {
            // Keep failure-detector traffic out of the request-path
            // counters so availability math over `orb.requests_*` only
            // sees application calls.
            metrics.observe_us("orb.probe.dispatch_us", dispatch_us);
            metrics.incr("orb.probe.requests_handled");
            inner.flight.record(FlightEventKind::ProbeHandled, "orb.server", trace_id);
        } else {
            metrics.observe_us("orb.dispatch_us", dispatch_us);
            metrics.incr("orb.requests_handled");
            bump(&inner.stats.requests_handled);
            inner.flight.record(FlightEventKind::RequestDispatched, "orb.server", trace_id);
        }
        let trace_out = scope.map(|s| {
            let mut ctx = s.finish();
            ctx.push("orb.server", &inner.name, dispatch_us);
            ctx
        });
        if !request.response_expected {
            return;
        }
        let mut reply = ReplyMessage::from_result(request.request_id, inner.node, result);
        if let Some(ctx) = trace_out {
            reply.set_context(TRACE_CONTEXT_ID, ctx.to_bytes());
        }
        // Route the reply back through the same module the request came
        // in by, so transforms like compression are symmetric. Either
        // way the reply is encoded exactly once, straight into the
        // frame that goes on the wire.
        let frame = match via_module.and_then(|m| inner.transport.module(&m)) {
            Some(module) => {
                let bytes = GiopMessage::encode_reply(&reply);
                let started = Instant::now();
                let outs = module.outbound(request.reply_to, bytes);
                metrics.observe_us("transport.outbound_us", started.elapsed().as_micros() as u64);
                match outs {
                    Ok(mut outs) if outs.len() == 1 => {
                        let (node, body) = outs.remove(0);
                        debug_assert_eq!(node, request.reply_to);
                        frame_qos(module.name(), &body)
                    }
                    _ => return, // fan-out modules answer per-destination themselves
                }
            }
            None => frame_plain_reply(&reply),
        };
        let _ = Orb::send_frame(inner, request.reply_to, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos_binding::{Outbound, QosModule};

    struct Echo;
    impl Servant for Echo {
        fn interface_id(&self) -> &str {
            "IDL:Echo:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "echo" => Ok(args.first().cloned().unwrap_or(Any::Void)),
                "fail" => Err(OrbError::UserException("boom".to_string())),
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    fn pair() -> (Network, Orb, Orb, Ior) {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start(&net, "client");
        let ior = server.activate("echo", Box::new(Echo));
        (net, server, client, ior)
    }

    #[test]
    fn remote_roundtrip() {
        let (_net, server, client, ior) = pair();
        let r = client.invoke(&ior, "echo", &[Any::from("hi")]).unwrap();
        assert_eq!(r, Any::Str("hi".into()));
        assert_eq!(server.stats().requests_handled, 1);
        assert_eq!(client.stats().replies_matched, 1);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn remote_exception_propagates() {
        let (_net, server, client, ior) = pair();
        let err = client.invoke(&ior, "fail", &[]).unwrap_err();
        assert_eq!(err, OrbError::UserException("boom".into()));
        let err = client.invoke(&ior, "nope", &[]).unwrap_err();
        assert!(matches!(err, OrbError::BadOperation(_)));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn unknown_object() {
        let (_net, server, client, _) = pair();
        let bogus = Ior::new("IDL:X:1.0", server.node(), "ghost");
        assert!(matches!(client.invoke(&bogus, "x", &[]), Err(OrbError::ObjectNotExist(_))));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn collocated_shortcut_counts() {
        let (_net, server, _client, ior) = pair();
        let r = server.invoke(&ior, "echo", &[Any::Long(1)]).unwrap();
        assert_eq!(r, Any::Long(1));
        assert_eq!(server.stats().collocated_calls, 1);
        server.shutdown();
    }

    #[test]
    fn collocated_without_shortcut_goes_over_wire() {
        let net = Network::new(1);
        let cfg = OrbConfig { collocated_shortcut: false, ..OrbConfig::default() };
        let orb = Orb::start_with(&net, "solo", cfg);
        let ior = orb.activate("echo", Box::new(Echo));
        let r = orb.invoke(&ior, "echo", &[Any::Long(2)]).unwrap();
        assert_eq!(r, Any::Long(2));
        assert_eq!(orb.stats().collocated_calls, 0);
        assert_eq!(orb.stats().requests_handled, 1);
        orb.shutdown();
    }

    #[test]
    fn oneway_does_not_wait() {
        let (_net, server, client, ior) = pair();
        client.invoke_oneway(&ior, "echo", &[Any::Long(3)], None).unwrap();
        // Give the server a moment, then check it processed the request.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.stats().requests_handled, 1);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn timeout_on_crashed_server() {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start_with(
            &net,
            "client",
            OrbConfig { request_timeout: Duration::from_millis(100), ..OrbConfig::default() },
        );
        let ior = server.activate("echo", Box::new(Echo));
        net.crash(server.node());
        let err = client.invoke(&ior, "echo", &[Any::Void]).unwrap_err();
        assert!(matches!(err, OrbError::Timeout(_)));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn remote_transport_command() {
        let (_net, server, client, _ior) = pair();
        let mods = client
            .send_command(server.node(), CommandTarget::Transport, "list_modules", &[])
            .unwrap();
        assert_eq!(mods, Any::Sequence(vec![]));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn pseudo_object_reachable_remotely() {
        let (_net, server, client, _ior) = pair();
        struct Answer;
        impl Servant for Answer {
            fn interface_id(&self) -> &str {
                "IDL:Pseudo/Answer:1.0"
            }
            fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
                match op {
                    "get" => Ok(Any::Long(42)),
                    other => Err(OrbError::BadOperation(other.to_string())),
                }
            }
        }
        server.pseudo_objects().register("Answer", Arc::new(Answer));
        let ior = Ior::new("IDL:Pseudo/Answer:1.0", server.node(), "pseudo:Answer");
        assert_eq!(client.invoke(&ior, "get", &[]).unwrap(), Any::Long(42));
        server.shutdown();
        client.shutdown();
    }

    /// Module that reverses the body bytes — detectable if only one side runs.
    struct Mirror;
    impl QosModule for Mirror {
        fn name(&self) -> &str {
            "mirror"
        }
        fn command(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
            Err(OrbError::BadOperation(op.to_string()))
        }
        fn outbound(&self, dst: NodeId, mut bytes: Vec<u8>) -> Result<Outbound, OrbError> {
            bytes.reverse();
            Ok(vec![(dst, bytes)])
        }
        fn inbound<'a>(
            &self,
            _src: NodeId,
            bytes: &'a [u8],
        ) -> Result<Option<std::borrow::Cow<'a, [u8]>>, OrbError> {
            let mut bytes = bytes.to_vec();
            bytes.reverse();
            Ok(Some(std::borrow::Cow::Owned(bytes)))
        }
    }

    #[test]
    fn qos_bound_traffic_goes_through_module_both_ways() {
        let (_net, server, client, ior) = pair();
        client.qos_transport().install(Arc::new(Mirror));
        server.qos_transport().install(Arc::new(Mirror));
        client
            .qos_transport()
            .bind(crate::qos_binding::BindingKey { peer: None, key: ior.key.clone() }, "mirror")
            .unwrap();
        let qos = Some(QosContext::new("mirror"));
        let r = client.invoke_qos(&ior, "echo", &[Any::from("qos!")], qos).unwrap();
        assert_eq!(r, Any::Str("qos!".into()));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn qos_aware_but_unbound_falls_back_to_plain() {
        let (_net, server, client, ior) = pair();
        let qos = Some(QosContext::new("anything"));
        let r = client.invoke_qos(&ior, "echo", &[Any::Long(7)], qos).unwrap();
        assert_eq!(r, Any::Long(7));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn invoke_collect_gathers_single_reply() {
        let (_net, server, client, ior) = pair();
        let replies = client
            .invoke_collect(&ior, "echo", &[Any::Long(5)], None, 1, Duration::from_secs(1))
            .unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, server.node());
        assert_eq!(replies[0].1, Ok(Any::Long(5)));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn probes_do_not_move_request_counters() {
        let (_net, server, client, ior) = pair();
        let replies = client.probe_collect(&ior, Duration::from_secs(1)).unwrap();
        assert_eq!(replies[0].1, Ok(Any::Bool(false)), "_non_existent answers false");
        // Probe traffic lands in its own counter family on both ends...
        assert_eq!(client.metrics().snapshot().counter("orb.probe.requests_sent"), 1);
        assert_eq!(server.metrics().snapshot().counter("orb.probe.requests_handled"), 1);
        // ...and the request-path counters availability is computed from
        // stay untouched.
        assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), 0);
        assert_eq!(server.metrics().snapshot().counter("orb.requests_handled"), 0);
        assert!(server.metrics().snapshot().histogram("orb.dispatch_us").is_none());
        assert_eq!(server.stats().requests_handled, 0);
        // A real call afterwards moves only the request-path family.
        client.invoke(&ior, "echo", &[Any::Long(1)]).unwrap();
        assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), 1);
        assert_eq!(client.metrics().snapshot().counter("orb.probe.requests_sent"), 1);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn traced_remote_call_carries_one_trace_id_and_layer_spans() {
        let (_net, server, client, ior) = pair();
        let ctx = TraceContext::new(client.node());
        let want_id = ctx.trace_id;
        let (value, trace) =
            client.invoke_traced(&ior, "echo", &[Any::from("t")], None, Some(ctx)).unwrap();
        assert_eq!(value, Any::Str("t".into()));
        let trace = trace.expect("traced call returns a context");
        assert_eq!(trace.trace_id, want_id);
        for layer in ["wire", "adapter", "orb.server", "wire.reply", "orb.client"] {
            assert!(trace.span(layer).is_some(), "missing span {layer}: {trace:?}");
        }
        // Metrics recorded on both sides.
        assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), 1);
        assert_eq!(server.metrics().snapshot().counter("orb.requests_handled"), 1);
        assert!(server.metrics().snapshot().histogram("orb.dispatch_us").is_some());
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn traced_collocated_call_records_adapter_span() {
        let (_net, server, _client, ior) = pair();
        let ctx = TraceContext::new(server.node());
        let (_, trace) =
            server.invoke_traced(&ior, "echo", &[Any::Long(1)], None, Some(ctx)).unwrap();
        let trace = trace.unwrap();
        assert!(trace.span("adapter").is_some());
        assert!(trace.span("wire").is_none(), "no wire leg on the shortcut");
        assert_eq!(server.metrics().snapshot().counter("orb.collocated_calls"), 1);
        server.shutdown();
    }

    #[test]
    fn untraced_calls_return_no_context() {
        let (_net, server, client, ior) = pair();
        let (_, trace) = client.invoke_traced(&ior, "echo", &[Any::Long(2)], None, None).unwrap();
        assert!(trace.is_none());
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_calls() {
        let (_net, server, client, ior) = pair();
        client.shutdown();
        assert_eq!(client.invoke(&ior, "echo", &[]), Err(OrbError::Shutdown));
        server.shutdown();
    }

    #[test]
    fn garbage_packets_are_counted_not_fatal() {
        let (net, server, client, ior) = pair();
        let raw = net.attach("attacker");
        raw.send(server.node(), vec![1, 2, 3]).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.stats().packets_dropped, 1);
        // Server still works.
        assert_eq!(client.invoke(&ior, "echo", &[Any::Long(1)]).unwrap(), Any::Long(1));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn pending_table_is_sharded_enough() {
        // The contention-relief claim in DESIGN §6d rests on this floor.
        const { assert!(PENDING_SHARDS >= 8, "pending table must keep at least 8 shards") };
    }

    /// A servant whose `slow` op outlives the client timeout, so the
    /// reply arrives after the caller gave up and unregistered.
    struct Sluggish;
    impl Servant for Sluggish {
        fn interface_id(&self) -> &str {
            "IDL:Sluggish:1.0"
        }
        fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "slow" => {
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(Any::Long(9))
                }
                "fast" => Ok(Any::Long(1)),
                other => Err(OrbError::BadOperation(other.to_string())),
            }
        }
    }

    #[test]
    fn late_reply_is_orphaned_never_misdelivered() {
        let net = Network::new(1);
        // Two dispatchers so the follow-up call is served *while* the
        // slow one is still sleeping — the stale reply then lands after
        // the caller's slot has been re-armed for a newer request.
        // RoundRobin routing: both calls target the same key, and the
        // default KeyAffinity would (correctly) serialize them on one
        // dispatcher, which is exactly what this test must avoid.
        let server = Orb::start_with(
            &net,
            "server",
            OrbConfig {
                dispatch_threads: 2,
                dispatch_routing: DispatchRouting::RoundRobin,
                ..OrbConfig::default()
            },
        );
        let client = Orb::start_with(
            &net,
            "client",
            OrbConfig { request_timeout: Duration::from_millis(50), ..OrbConfig::default() },
        );
        let ior = server.activate("slug", Box::new(Sluggish));
        // Times out while the servant is still sleeping…
        let err = client.invoke(&ior, "slow", &[]).unwrap_err();
        assert!(matches!(err, OrbError::Timeout(_)));
        // …and the very next call reuses the same thread's reply slot.
        // If the armed-id guard or the shard unregister were broken, the
        // late Long(9) reply could leak into this call's rendezvous.
        let r = client.invoke(&ior, "fast", &[]).unwrap();
        assert_eq!(r, Any::Long(1));
        // Wait for the stale reply to land, then check the invariant:
        // every reply received is either matched or orphaned.
        std::thread::sleep(Duration::from_millis(300));
        let s = client.stats();
        assert_eq!(s.replies_matched, 1, "only the fast call was delivered");
        assert_eq!(s.replies_orphaned, 1, "the late slow reply was orphaned");
        let snap = client.metrics().snapshot();
        assert_eq!(snap.counter("orb.replies_matched"), s.replies_matched);
        assert_eq!(snap.counter("orb.replies_orphaned"), s.replies_orphaned);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn invoke_async_pipelines_many_calls_from_one_thread() {
        let net = Network::new(1);
        let server = Orb::start_with(
            &net,
            "server",
            OrbConfig { dispatch_threads: 4, ..OrbConfig::default() },
        );
        let client = Orb::start(&net, "client");
        let ior = server.activate("echo", Box::new(Echo));
        // One thread, 40 calls in flight at once through the pending
        // table, harvested in issue order.
        let pending: Vec<PendingCall> = (0..40)
            .map(|i| client.invoke_async(&ior, "echo", &[Any::Long(i)], None).unwrap())
            .collect();
        let ids: Vec<u64> = pending.iter().map(PendingCall::request_id).collect();
        assert_eq!(ids.len(), 40);
        for (i, call) in pending.into_iter().enumerate() {
            assert_eq!(call.wait().unwrap(), Any::Long(i as i32));
        }
        let s = client.stats();
        assert_eq!(s.replies_matched, 40);
        assert_eq!(s.replies_orphaned, 0);
        assert_eq!(server.stats().requests_handled, 40);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn dropped_pending_call_orphans_its_reply() {
        let (_net, server, client, ior) = pair();
        // Issue and abandon: the handle's Drop unregisters the request,
        // so the reply must be orphaned — and the *next* call on this
        // thread must be unaffected (private slots never alias the
        // pooled per-thread slot).
        let call = client.invoke_async(&ior, "echo", &[Any::Long(1)], None).unwrap();
        drop(call);
        let r = client.invoke(&ior, "echo", &[Any::Long(2)]).unwrap();
        assert_eq!(r, Any::Long(2));
        let deadline = Instant::now() + Duration::from_secs(2);
        while client.stats().replies_orphaned < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let s = client.stats();
        assert_eq!(s.replies_orphaned, 1, "abandoned call's reply is orphaned");
        assert_eq!(s.replies_matched, 1, "only the live call was delivered");
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn trace_sampling_period_gates_trace_sampled() {
        let net = Network::new(1);
        let every4 = Orb::start_with(
            &net,
            "every4",
            OrbConfig { trace_sample_every: 4, ..OrbConfig::default() },
        );
        let hits = (0..8).filter(|_| every4.trace_sampled()).count();
        assert_eq!(hits, 2, "period 4 samples 2 of 8");
        let never = Orb::start_with(
            &net,
            "never",
            OrbConfig { trace_sample_every: 0, ..OrbConfig::default() },
        );
        assert!(!never.trace_sampled());
        let always = Orb::start(&net, "always");
        assert!((0..5).all(|_| always.trace_sampled()), "default samples everything");
        every4.shutdown();
        never.shutdown();
        always.shutdown();
    }

    #[test]
    fn flight_recorder_logs_unsampled_calls_matching_metrics() {
        use crate::flight::FlightEventKind as K;
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start_with(
            &net,
            "client",
            OrbConfig { trace_sample_every: 3, ..OrbConfig::default() },
        );
        let ior = server.activate("echo", Box::new(Echo));
        for i in 0..9 {
            // The stub-side sampling protocol: mint a context only when
            // the ORB says this call is sampled.
            let trace = client.trace_sampled().then(|| TraceContext::new(client.node()));
            client.invoke_traced(&ior, "echo", &[Any::Long(i)], None, trace).unwrap();
        }
        // Recorder counts match the metrics counters exactly: sampling
        // gates tracing, never recording.
        let snap = client.metrics().snapshot();
        assert_eq!(client.flight().count(K::RequestSent), snap.counter("orb.requests_sent"));
        assert_eq!(client.flight().count(K::RequestSent), 9);
        assert_eq!(server.flight().count(K::RequestDispatched), 9);
        // Reply matching is recorded by the frame handler; give it a beat.
        let deadline = Instant::now() + Duration::from_secs(2);
        while client.flight().count(K::ReplyMatched) < 9 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.flight().count(K::ReplyMatched), 9);
        // Period 3 over 9 calls: 3 sampled (with trace ids), 6 without.
        let sent: Vec<_> = client
            .flight()
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == K::RequestSent)
            .collect();
        assert_eq!(sent.iter().filter(|e| e.trace_id.is_some()).count(), 3);
        assert_eq!(sent.iter().filter(|e| e.trace_id.is_none()).count(), 6);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn nested_outbound_call_from_servant() {
        // A forwarding servant that calls another object during dispatch;
        // requires the dispatcher pool to be distinct from the recv loop.
        let net = Network::new(1);
        let backend = Orb::start(&net, "backend");
        let front = Orb::start(&net, "front");
        let client = Orb::start(&net, "client");
        let backend_ior = backend.activate("echo", Box::new(Echo));

        struct Forwarder {
            orb: Orb,
            target: Ior,
        }
        impl Servant for Forwarder {
            fn interface_id(&self) -> &str {
                "IDL:Forwarder:1.0"
            }
            fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
                self.orb.invoke(&self.target, op, args)
            }
        }
        let fw_ior = front.activate(
            "fw",
            Box::new(Forwarder { orb: front.clone(), target: backend_ior }),
        );
        let r = client.invoke(&fw_ior, "echo", &[Any::from("deep")]).unwrap();
        assert_eq!(r, Any::Str("deep".into()));
        backend.shutdown();
        front.shutdown();
        client.shutdown();
    }
}
