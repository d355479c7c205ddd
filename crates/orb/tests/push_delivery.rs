//! Push-delivery invariants on every backend: the transport runs the
//! ORB's frame handler on the thread that holds each frame (the sender's
//! thread on netsim, a connection's reader thread on TCP/UDS), and that
//! must not cost any of the guarantees a dedicated receive thread gave.
//!
//! * **Per-sender FIFO**: several client threads pipeline calls on one
//!   object key; each thread's calls execute in the order it issued them.
//! * **Exactly one outcome per call**: every call gets its own reply or
//!   one typed error — never someone else's reply, never none.
//! * **Counter conservation**: requests handled = replies matched, with
//!   nothing orphaned or dropped.
//! * **No relay thread**: an ORB on netsim or a raw socket transport runs
//!   no receive loop or pump thread of its own.
//! * **Shutdown during load**: stopping either ORB mid-load still ends
//!   every call in one reply or one typed error. The stop point is drawn
//!   from `MAQS_CHAOS_SEED` (default 7), printed for replay.

use netsim::{Network, NodeId, Rng};
use orb::wire::{TcpTransport, UdsTransport, WireTransport};
use orb::{Any, Ior, Orb, OrbConfig, OrbError, PendingCall, Servant};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const THREADS: i32 = 4;
const CALLS: i32 = 64;
const WINDOW: usize = 8;

fn chaos_seed() -> u64 {
    std::env::var("MAQS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

/// Records, per sender, the last sequence number it executed, and counts
/// every call that arrived out of its sender's issue order.
#[derive(Default)]
struct Recorder {
    last: Mutex<HashMap<i32, i32>>,
    out_of_order: AtomicU64,
}

impl Servant for Recorder {
    fn interface_id(&self) -> &str {
        "IDL:Recorder:1.0"
    }

    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        let (Some(sender), Some(seq)) = (args[0].as_i64(), args[1].as_i64()) else {
            return Err(OrbError::BadParam(format!("{op}: want (sender, seq)")));
        };
        let (sender, seq) = (sender as i32, seq as i32);
        let mut last = self.last.lock().unwrap();
        let prev = last.insert(sender, seq).unwrap_or(-1);
        if seq != prev + 1 {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Any::Long(sender * 100_000 + seq))
    }
}

/// A [`Recorder`] the test keeps a handle on after activating it.
struct Shared(Arc<Recorder>);

impl Servant for Shared {
    fn interface_id(&self) -> &str {
        self.0.interface_id()
    }

    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        self.0.dispatch(op, args)
    }
}

#[derive(Clone, Copy, Debug)]
enum Backend {
    Netsim,
    Tcp,
    Uds,
}

/// A server and a client ORB on `backend`, plus the simulator (kept
/// alive for netsim-backed ORBs).
fn orbs(backend: Backend, tag: &str, client_cfg: OrbConfig) -> (Option<Network>, Orb, Orb) {
    let server_cfg = OrbConfig { dispatch_threads: 2, ..OrbConfig::default() };
    match backend {
        Backend::Netsim => {
            let net = Network::new(1);
            let server = Orb::start_with(&net, &format!("{tag}-server"), server_cfg);
            let client = Orb::start_with(&net, &format!("{tag}-client"), client_cfg);
            (Some(net), server, client)
        }
        Backend::Tcp => {
            let s: Arc<dyn WireTransport> =
                Arc::new(TcpTransport::bind(NodeId(20), "127.0.0.1:0").unwrap());
            let c: Arc<dyn WireTransport> =
                Arc::new(TcpTransport::bind(NodeId(21), "127.0.0.1:0").unwrap());
            let server = Orb::start_wire(s, &format!("{tag}-server"), server_cfg);
            (None, server, Orb::start_wire(c, &format!("{tag}-client"), client_cfg))
        }
        Backend::Uds => {
            let path =
                |side: &str| format!("/tmp/maqs-push-{}-{tag}-{side}.sock", std::process::id());
            let s: Arc<dyn WireTransport> =
                Arc::new(UdsTransport::bind(NodeId(20), &path("s")).unwrap());
            let c: Arc<dyn WireTransport> =
                Arc::new(UdsTransport::bind(NodeId(21), &path("c")).unwrap());
            let server = Orb::start_wire(s, &format!("{tag}-server"), server_cfg);
            (None, server, Orb::start_wire(c, &format!("{tag}-client"), client_cfg))
        }
    }
}

/// Names of this process's threads that relay frames instead of
/// handling them where they arrive.
fn relay_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("orb-recv") || name.starts_with("wire-pump"))
        .collect()
}

/// One client thread: up to `CALLS` calls on `ior`, pipelined `WINDOW`
/// deep, harvested in issue order. `stop.action` runs on whichever
/// thread sends the `stop.after`-th call overall. A thread stops after
/// the first window with an error (the ORB it talks through, or to, is
/// going away). Returns each call's outcome in issue order.
fn pipeline(client: &Orb, ior: &Ior, sender: i32, stop: &Stop<'_>) -> Vec<Result<Any, OrbError>> {
    let mut outcomes = Vec::with_capacity(CALLS as usize);
    let mut window: Vec<Result<PendingCall, OrbError>> = Vec::with_capacity(WINDOW);
    for seq in 0..CALLS {
        window.push(client.invoke_async(ior, "record", &[Any::Long(sender), Any::Long(seq)], None));
        if stop.issued.fetch_add(1, Ordering::Relaxed) + 1 == stop.after {
            (stop.action)();
        }
        if window.len() == WINDOW || seq == CALLS - 1 {
            outcomes.extend(window.drain(..).map(|call| call.and_then(PendingCall::wait)));
            if outcomes.iter().any(Result::is_err) {
                break;
            }
        }
    }
    outcomes
}

/// What to do after how many calls ([`pipeline`]).
struct Stop<'a> {
    after: u64,
    issued: AtomicU64,
    action: &'a (dyn Fn() + Sync),
}

fn run_load(client: &Orb, ior: &Ior, stop: &Stop<'_>) -> Vec<Vec<Result<Any, OrbError>>> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|sender| s.spawn(move || pipeline(client, ior, sender, stop)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

fn check_invariants_under_load(backend: Backend, tag: &str) {
    let (_net, server, client) = orbs(backend, tag, OrbConfig::default());
    let recorder = Arc::new(Recorder::default());
    let ior = server.activate("recorder", Box::new(Shared(Arc::clone(&recorder))));

    let never = Stop { after: 0, issued: AtomicU64::new(0), action: &|| {} };
    let outcomes = run_load(&client, &ior, &never);
    for (sender, calls) in outcomes.iter().enumerate() {
        assert_eq!(calls.len(), CALLS as usize, "{backend:?}: sender {sender} stopped early");
        for (seq, outcome) in calls.iter().enumerate() {
            let want = Any::Long(sender as i32 * 100_000 + seq as i32);
            assert_eq!(outcome, &Ok(want), "{backend:?}: sender {sender} call {seq}");
        }
    }
    assert_eq!(
        recorder.out_of_order.load(Ordering::Relaxed),
        0,
        "{backend:?}: per-sender FIFO broken"
    );
    let total = u64::from((THREADS * CALLS) as u32);
    let (s, c) = (server.stats(), client.stats());
    assert_eq!(s.requests_handled, total, "{backend:?}: {s:?}");
    assert_eq!(c.replies_matched, s.requests_handled, "{backend:?}: handled = matched");
    assert_eq!(c.replies_orphaned, 0, "{backend:?}: {c:?}");
    assert_eq!(s.packets_dropped + c.packets_dropped, 0, "{backend:?}");
    assert_eq!(relay_threads(), Vec::<String>::new(), "{backend:?}: no relay thread may run");
    server.shutdown();
    client.shutdown();
}

#[test]
fn push_delivery_invariants_netsim() {
    check_invariants_under_load(Backend::Netsim, "inv-netsim");
}

#[test]
fn push_delivery_invariants_tcp() {
    check_invariants_under_load(Backend::Tcp, "inv-tcp");
}

#[test]
fn push_delivery_invariants_uds() {
    check_invariants_under_load(Backend::Uds, "inv-uds");
}

/// Stop the client or the server after a seeded number of calls while
/// every thread keeps pipelining. Each call must still end in exactly
/// one outcome: its own reply, or one typed error.
fn check_shutdown_during_load(backend: Backend, stop_client: bool, seed: u64) {
    let tag = format!("stop-{}-{backend:?}", if stop_client { "client" } else { "server" });
    let cfg = OrbConfig { request_timeout: Duration::from_millis(400), ..OrbConfig::default() };
    let (_net, server, client) = orbs(backend, &tag, cfg);
    let ior = server.activate("recorder", Box::new(Recorder::default()));
    let mut rng = Rng::seed_from_u64(seed ^ u64::from(stop_client) ^ (backend as u64) << 8);
    let stop = Stop {
        after: 1 + rng.next_u64() % (THREADS * CALLS) as u64,
        issued: AtomicU64::new(0),
        action: &|| if stop_client { client.shutdown() } else { server.shutdown() },
    };
    let outcomes = run_load(&client, &ior, &stop);

    let mut ok = 0u64;
    for (sender, calls) in outcomes.iter().enumerate() {
        for (seq, outcome) in calls.iter().enumerate() {
            match outcome {
                Ok(v) => {
                    assert_eq!(
                        v,
                        &Any::Long(sender as i32 * 100_000 + seq as i32),
                        "misdelivered reply"
                    );
                    ok += 1;
                }
                Err(
                    OrbError::Shutdown
                    | OrbError::Timeout(_)
                    | OrbError::CommFailure(_)
                    | OrbError::Transient(_),
                ) => {}
                Err(other) => panic!("{tag} (seed {seed}): untyped outcome {other:?}"),
            }
        }
    }
    let c = client.stats();
    assert_eq!(c.replies_matched, ok, "{tag} (seed {seed}): every Ok is one matched reply");
    server.shutdown();
    client.shutdown();
}

#[test]
fn shutdown_during_load_ends_every_call_once() {
    let seed = chaos_seed();
    eprintln!("push-delivery shutdown-during-load seed {seed} (MAQS_CHAOS_SEED)");
    for backend in [Backend::Netsim, Backend::Tcp, Backend::Uds] {
        for stop_client in [true, false] {
            check_shutdown_during_load(backend, stop_client, seed);
        }
    }
}
