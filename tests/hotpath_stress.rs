//! Contention stress for the sharded request hot path.
//!
//! Eight client threads hammer one shared client ORB against a server
//! running four dispatcher threads, mixing null and 1 KiB payloads.
//! The rendezvous rework (sharded pending table, per-thread reply
//! slots, take-then-send lock discipline) must hold three properties
//! under this load:
//!
//! 1. **No lost or orphaned replies** — every reply matches a waiter.
//! 2. **Monotone counters** — a watcher thread snapshots [`Orb::stats`]
//!    concurrently and every counter only ever grows.
//! 3. **Same answers as a single-threaded run** — the identical
//!    workload partitioned over one worker produces the identical
//!    result sum.

use netsim::Network;
use orb::{Any, Orb, OrbConfig, OrbError, Servant};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl Servant for Echo {
    fn interface_id(&self) -> &str {
        "IDL:Echo:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "echo" => Ok(args.first().cloned().unwrap_or(Any::Void)),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

const LANES: u64 = 8;
const CALLS_PER_LANE: u64 = 150;

/// The deterministic workload for one lane: echo a tagged Long, every
/// fourth call a 1 KiB blob, and fold the responses into a
/// commutative-safe per-lane sum (lane order is fixed, lanes combine
/// by addition, so worker interleaving cannot change the total).
fn run_lane(client: &Orb, ior: &orb::Ior, lane: u64) -> u64 {
    let mut sum = 0u64;
    for i in 0..CALLS_PER_LANE {
        let v = lane * 1_000_000 + i;
        let arg = if i % 4 == 3 {
            Any::Bytes(vec![(v % 251) as u8; 1024])
        } else {
            Any::Long(v as i32)
        };
        let r = client.invoke(ior, "echo", std::slice::from_ref(&arg)).expect("echo under load");
        assert_eq!(r, arg, "lane {lane} call {i}: reply must echo the request");
        sum = sum.wrapping_add(v).wrapping_add(match r {
            Any::Long(x) => x as u32 as u64,
            Any::Bytes(b) => u64::from(b[0]) + b.len() as u64,
            other => panic!("unexpected reply {other:?}"),
        });
    }
    sum
}

/// Run the full workload with `workers` client threads sharing one ORB
/// against a server with `dispatch_threads`. Returns the combined
/// result sum and the final (client, server) stats.
fn run_workload(
    workers: usize,
    dispatch_threads: usize,
) -> (u64, orb::core::OrbStats, orb::core::OrbStats) {
    let net = Network::new(42);
    let server = Orb::start_with(
        &net,
        "server",
        OrbConfig { dispatch_threads, ..OrbConfig::default() },
    );
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));

    // Watcher: stats snapshots taken mid-flight must be monotone.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = client.stats();
            while !stop.load(Ordering::Relaxed) {
                let s = client.stats();
                assert!(s.replies_matched >= last.replies_matched, "matched went backwards");
                assert!(s.replies_orphaned >= last.replies_orphaned, "orphaned went backwards");
                assert!(s.packets_dropped >= last.packets_dropped, "dropped went backwards");
                assert_eq!(s.replies_orphaned, 0, "no reply may be orphaned mid-run");
                last = s;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let client = &client;
                let ior = &ior;
                scope.spawn(move || {
                    // Lanes are statically partitioned over workers, so
                    // any worker count sees the same input set.
                    (0..LANES)
                        .filter(|lane| lane % workers as u64 == w as u64)
                        .map(|lane| run_lane(client, ior, lane))
                        .fold(0u64, u64::wrapping_add)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).sum()
    });

    stop.store(true, Ordering::Relaxed);
    watcher.join().expect("watcher saw a non-monotone snapshot");

    let stats = (client.stats(), server.stats());
    server.shutdown();
    client.shutdown();
    (total, stats.0, stats.1)
}

/// One client thread keeps ≥32 calls in flight via [`Orb::invoke_async`]
/// (GIOP reply pipelining). Every reply must match the request it
/// answers — the sharded pending table may not misdeliver or orphan
/// under a deep window — and the folded result must equal a serial
/// one-at-a-time run of the identical workload.
#[test]
fn pipelined_client_holds_32_in_flight_without_orphans() {
    const IN_FLIGHT: usize = 32;
    const CALLS: u64 = 256;

    let net = Network::new(7);
    let server =
        Orb::start_with(&net, "server", OrbConfig { dispatch_threads: 4, ..OrbConfig::default() });
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));

    let fold = |r: Any, v: u64| -> u64 {
        match r {
            Any::Long(x) => {
                assert_eq!(x as u32 as u64, v, "reply answered a different request");
                v.wrapping_mul(31).wrapping_add(x as u32 as u64)
            }
            other => panic!("unexpected reply {other:?}"),
        }
    };

    // Serial reference: the same workload one call at a time.
    let mut serial_sum = 0u64;
    for i in 0..CALLS {
        let r = client.invoke(&ior, "echo", &[Any::Long(i as i32)]).expect("serial echo");
        serial_sum = serial_sum.wrapping_add(fold(r, i));
    }

    // Pipelined run: issue ahead through a window of 32 pending calls,
    // harvesting the oldest once the window is full.
    let mut window: std::collections::VecDeque<(u64, orb::PendingCall)> =
        std::collections::VecDeque::new();
    let mut pipelined_sum = 0u64;
    let harvest = |(v, pending): (u64, orb::PendingCall)| -> u64 {
        fold(pending.wait().expect("pipelined echo"), v)
    };
    for i in 0..CALLS {
        if window.len() == IN_FLIGHT {
            let oldest = window.pop_front().unwrap();
            pipelined_sum = pipelined_sum.wrapping_add(harvest(oldest));
        }
        let pending =
            client.invoke_async(&ior, "echo", &[Any::Long(i as i32)], None).expect("issue");
        window.push_back((i, pending));
    }
    assert_eq!(window.len(), IN_FLIGHT, "window must be saturated at the end");
    for entry in window.drain(..) {
        pipelined_sum = pipelined_sum.wrapping_add(harvest(entry));
    }

    assert_eq!(pipelined_sum, serial_sum, "pipelined result must equal serial result");
    let stats = client.stats();
    assert_eq!(stats.replies_orphaned, 0, "no reply may be orphaned");
    assert_eq!(stats.packets_dropped, 0, "no packet may be dropped");
    assert_eq!(stats.replies_matched, 2 * CALLS, "every call (both runs) got its reply");
    assert_eq!(server.stats().requests_handled, 2 * CALLS);
    server.shutdown();
    client.shutdown();
}

#[test]
fn contended_hot_path_loses_nothing_and_matches_single_threaded() {
    let calls = LANES * CALLS_PER_LANE;
    let (sum_mt, client_mt, server_mt) = run_workload(8, 4);
    assert_eq!(client_mt.replies_orphaned, 0, "no orphans under contention");
    assert_eq!(client_mt.packets_dropped, 0, "no drops under contention");
    assert_eq!(client_mt.replies_matched, calls, "every call got its reply");
    assert_eq!(server_mt.requests_handled, calls, "server saw every request once");

    let (sum_st, client_st, server_st) = run_workload(1, 1);
    assert_eq!(client_st.replies_matched, calls);
    assert_eq!(server_st.requests_handled, calls);
    assert_eq!(
        sum_mt, sum_st,
        "8 workers / 4 dispatchers must compute exactly what 1/1 computes"
    );
}
