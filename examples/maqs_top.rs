//! maqs-top: a live dashboard over ORB-served remote introspection.
//!
//! Every [`MaqsNode`] activates an introspection servant under the
//! well-known `introspection` key, so any peer can pull metrics
//! snapshots, flight-recorder tails, health counters and the woven
//! deployment over plain GIOP — the dashboard below is an ordinary
//! client of that interface, not a privileged observer. It drives load
//! at two server nodes, then renders a few refresh frames the way `top`
//! would: one row per node (requests, drops, p50/p95/p99 dispatch
//! latency), the served bindings, and the tail of the busiest node's
//! flight timeline.
//!
//! Run with: `cargo run --example maqs_top`
//!
//! With `--attach <ior|@file>` the dashboard skips the simulated
//! cluster and attaches to a *live server in another process* over the
//! IOR's endpoint profile (see `examples/tcp_server.rs`): it drives a
//! little load at the served object, then renders the same panes from
//! introspection pulled over real loopback TCP.
//!
//! With `--cluster` it renders the fleet view instead: a
//! [`services::TelemetryAggregator`] scrapes a simulated 4-worker
//! cluster, merges per-node histograms into fleet distributions, and
//! evaluates SLO burn rates derived from the negotiated deadline
//! agreements — one worker is deliberately slow, so the alert pane has
//! something to fire about.

use maqs::prelude::*;
use maqs::report::render_flight_human;
use netsim::NodeId;
use orb::export::{prometheus_text, quantile_line};
use orb::TcpTransport;
use std::sync::Arc;

struct Kv(orb::sync::Mutex<i64>);

impl Servant for Kv {
    fn interface_id(&self) -> &str {
        "IDL:Kv:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "put" => {
                *self.0.lock() = args.first().and_then(Any::as_i64).unwrap_or(0);
                Ok(Any::Void)
            }
            "get" => Ok(Any::LongLong(*self.0.lock())),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

/// A `Kv` that burns ~8ms per request — the cluster view's victim,
/// comfortably past the 5ms deadline its agreement promises.
struct SlowKv(orb::sync::Mutex<i64>);

impl Servant for SlowKv {
    fn interface_id(&self) -> &str {
        "IDL:Kv:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        std::thread::sleep(std::time::Duration::from_millis(8));
        match op {
            "put" => {
                *self.0.lock() = args.first().and_then(Any::as_i64).unwrap_or(0);
                Ok(Any::Void)
            }
            "get" => Ok(Any::LongLong(*self.0.lock())),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

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

const KV_SPEC: &str = r#"
    interface Kv with qos Replication {
        void put(in long long v);
        long long get();
    };
"#;
const ECHO_SPEC: &str = "interface Echo { long long echo(in long long v); };";

/// Resolve `--attach`'s argument: a literal `maqs-ior:` URI, or
/// `@path` to poll a file the server publishes (tcp_server writes it
/// atomically, so a complete URI or nothing).
fn resolve_ior(target: &str) -> Ior {
    let uri = if let Some(path) = target.strip_prefix('@') {
        let mut tries = 0;
        loop {
            match std::fs::read_to_string(path) {
                Ok(s) if !s.trim().is_empty() => break s.trim().to_string(),
                _ if tries < 100 => {
                    tries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                _ => panic!("no IOR appeared at {path}"),
            }
        }
    } else {
        target.to_string()
    };
    Ior::from_uri(&uri).expect("parse IOR URI")
}

/// The `--attach` mode: a real client of a server in another process.
fn attach(target: &str) {
    let ior = resolve_ior(target);
    let endpoint = ior.endpoint().expect("IOR carries no endpoint profile").clone();
    println!("== maqs-top: attaching to {} at {endpoint} ==", ior.key);

    let wire = TcpTransport::bind(NodeId(1000), "127.0.0.1:0").expect("bind client socket");
    let ops = MaqsNode::builder_wire(Arc::new(wire), "ops").build().expect("ops node");
    // Invocations register endpoint profiles on their own; doing it up
    // front just surfaces a bad address before any traffic.
    ops.orb().register_endpoints(&ior).expect("register server endpoint");

    // Drive some load so the panes have something to show.
    let kv = ops.stub(&ior);
    for i in 0..16i64 {
        kv.invoke("put", &[Any::LongLong(i)]).expect("put");
        kv.invoke("get", &[]).expect("get");
    }

    // Every pane below crosses the process boundary over loopback TCP.
    let introspector = ops.introspector();
    let health = introspector.health(ior.node).expect("health");
    let snapshot = introspector.metrics_snapshot(ior.node).expect("snapshot");
    let latency = snapshot
        .histograms
        .iter()
        .find(|(n, _)| n == "orb.dispatch_us")
        .map_or_else(|| "n/a".to_string(), |(_, h)| quantile_line(h));
    println!(
        "{:<8} {:>9} {:>8} {:>7}  dispatch latency",
        "node", "handled", "dropped", "events"
    );
    println!(
        "{:<8} {:>9} {:>8} {:>7}  {}",
        "remote", health.requests_handled, health.packets_dropped, health.flight_events, latency
    );
    for b in introspector.bindings(ior.node).expect("bindings") {
        println!("  {} ({}) qos=[{}]", b.object, b.interface, b.characteristics.join(", "));
    }
    let tail = introspector.flight_tail(ior.node, 4).expect("flight tail");
    println!("remote flight tail (last {} events):", tail.len());
    print!("{}", render_flight_human(&tail));

    assert!(health.requests_handled >= 32, "server must have seen our traffic");
    ops.shutdown();
    println!("\nok.");
}

/// The `--cluster` mode: the fleet dashboard over the telemetry plane.
fn cluster() {
    use netsim::VirtualDuration;
    use services::{SloConfig, TelemetryAggregator, TelemetryConfig};

    let net = Network::new(29);
    let mut workers = Vec::new();
    for i in 0..4u32 {
        let node =
            MaqsNode::builder(&net, &format!("w{i}")).spec(KV_SPEC).build().expect("worker");
        let servant: Arc<dyn Servant> = if i == 2 {
            Arc::new(SlowKv(orb::sync::Mutex::new(0)))
        } else {
            Arc::new(Kv(orb::sync::Mutex::new(0)))
        };
        let ior = node
            .serve(
                "kv",
                servant,
                ServeOptions::interface("Kv")
                    .qos_impl(Arc::new(qosmech::replication::ReplicationQosImpl::new()))
                    .capacity("Replication", 4),
            )
            .expect("serve kv");
        workers.push((node, ior));
    }
    let ops = MaqsNode::builder(&net, "ops").build().expect("ops");

    // Negotiate a 5ms deadline with every worker. Those agreements —
    // scraped back over introspection — are what the aggregator turns
    // into SLO objectives; nothing below names the victim explicitly.
    for (node, _) in &workers {
        ops.negotiator()
            .negotiate_offer(
                node.orb().node(),
                "kv",
                &Offer::new("Replication", 1.0).with_param("deadline_ms", Any::ULongLong(5)),
            )
            .expect("negotiate deadline");
    }

    let clock_net = net.clone();
    let agg = TelemetryAggregator::new(
        ops.orb().clone(),
        TelemetryConfig {
            scrape_interval_ms: 0, // frames drive scrapes: deterministic
            slo: SloConfig { min_samples: 4, ..SloConfig::default() },
            ..TelemetryConfig::default()
        },
    )
    // Ring timestamps and burn windows run on netsim virtual time.
    .with_clock(Arc::new(move || clock_net.fault_now().0 / 1_000));
    let fleet: Vec<NodeId> = workers.iter().map(|(n, _)| n.orb().node()).collect();
    agg.watch_all(&fleet);

    println!("== maqs-top --cluster: fleet telemetry plane ==");
    for frame in 1..=4u32 {
        for (_, ior) in &workers {
            let stub = ops.stub(ior);
            for i in 0..6i64 {
                stub.invoke("put", &[Any::LongLong(i)]).expect("put");
            }
        }
        net.tick(VirtualDuration::from_secs(15));
        let alerts = agg.scrape_once();

        println!("\n--- frame {frame}/4 (virtual t+{}s) ---", net.fault_now().0 / 1_000_000_000);
        println!("{:<6} {:>3} {:>9} {:>6}  latency (delta)", "node", "up", "requests", "errs");
        if let Some(sample) = agg.samples().last() {
            for ns in &sample.nodes {
                let latency = ns
                    .delta
                    .histogram("object.kv.latency_us")
                    .map_or_else(|| "n/a".to_string(), quantile_line);
                println!(
                    "{:<6} {:>3} {:>9} {:>6}  {}",
                    ns.name,
                    if ns.up { "yes" } else { "NO" },
                    ns.delta.counter("object.kv.requests"),
                    ns.delta.counter("object.kv.errors"),
                    latency
                );
            }
        }
        for alert in &alerts {
            println!("  !! {alert}");
        }
    }

    // Fleet-level panes: the merged latency distribution (bucket-exact
    // across nodes), every objective's burn state, and the labeled
    // exposition a fleet Prometheus endpoint would serve.
    if let Some(h) = agg.fleet_histogram("object.kv.latency_us") {
        println!("\nfleet object.kv.latency_us ({} obs): {}", h.count, quantile_line(&h));
    }
    println!("slo objectives:");
    for status in agg.slo_status() {
        println!(
            "  node{} agreement#{} {}: burn short={} long={} {}",
            status.objective.node.0,
            status.objective.agreement_id,
            status.objective.param,
            status.burn_short.map_or_else(|| "n/a".to_string(), |b| format!("{b:.1}")),
            status.burn_long.map_or_else(|| "n/a".to_string(), |b| format!("{b:.1}")),
            if status.firing { "FIRING" } else { "ok" }
        );
    }
    println!("\nfleet Prometheus exposition (object series):");
    for line in agg.prometheus_fleet().lines().filter(|l| l.contains("object_kv")).take(8) {
        println!("  {line}");
    }

    assert!(
        agg.slo_status().iter().any(|s| s.firing),
        "the slow worker must be burning its deadline budget"
    );
    for (node, _) in &workers {
        node.shutdown();
    }
    ops.shutdown();
    println!("\nok.");
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--attach" {
            return attach(&args.next().expect("--attach needs <maqs-ior:..|@file>"));
        }
        if a == "--cluster" {
            return cluster();
        }
    }

    let net = Network::new(13);
    let alpha = MaqsNode::builder(&net, "alpha").spec(KV_SPEC).build().expect("alpha");
    let beta = MaqsNode::builder(&net, "beta").spec(ECHO_SPEC).build().expect("beta");
    let ops = MaqsNode::builder(&net, "ops").build().expect("ops");

    let kv_ior = alpha
        .serve(
            "kv",
            Arc::new(Kv(orb::sync::Mutex::new(0))),
            ServeOptions::interface("Kv")
                .qos_impl(Arc::new(qosmech::replication::ReplicationQosImpl::new())),
        )
        .expect("serve kv");
    let echo_ior =
        beta.serve("echo", Arc::new(Echo), ServeOptions::interface("Echo")).expect("serve echo");

    let kv = ops.stub(&kv_ior);
    let echo = ops.stub(&echo_ior);
    let introspector = ops.introspector();
    let servers = [("alpha", alpha.orb().node()), ("beta", beta.orb().node())];
    // Flight pane cursor: each frame asks alpha only for events it has
    // not shipped yet (`flight_since`), instead of re-pulling a tail
    // and deduplicating sequence numbers client-side.
    let mut flight_cursor = 0u64;

    println!("== maqs-top: remote introspection dashboard ==");
    for frame in 1..=3u32 {
        // The load this frame: uneven on purpose, so the panes differ.
        for i in 0..(8 * frame as i64) {
            kv.invoke("put", &[Any::LongLong(i)]).expect("put");
            kv.invoke("get", &[]).expect("get");
        }
        for i in 0..4i64 {
            echo.invoke("echo", &[Any::LongLong(i)]).expect("echo");
        }

        println!("\n--- frame {frame}/3 ---");
        println!(
            "{:<6} {:>9} {:>8} {:>7} {:>7}  dispatch latency",
            "node", "handled", "dropped", "events", "dumps"
        );
        for (name, node) in servers {
            // All three panes come over the wire: GIOP request in, Any out.
            let health = introspector.health(node).expect("health");
            let snapshot = introspector.metrics_snapshot(node).expect("snapshot");
            let latency = snapshot
                .histograms
                .iter()
                .find(|(n, _)| n == "orb.dispatch_us")
                .map_or_else(|| "n/a".to_string(), |(_, h)| quantile_line(h));
            println!(
                "{:<6} {:>9} {:>8} {:>7} {:>7}  {}",
                name,
                health.requests_handled,
                health.packets_dropped,
                health.flight_events,
                health.flight_dumps,
                latency
            );
        }
        for (name, node) in servers {
            for b in introspector.bindings(node).expect("bindings") {
                println!(
                    "  {name}/{} ({}) qos=[{}]",
                    b.object,
                    b.interface,
                    b.characteristics.join(", ")
                );
            }
        }

        // The flight pane: only what happened since the last frame.
        let fresh =
            introspector.flight_since(alpha.orb().node(), flight_cursor).expect("flight since");
        if let Some(last) = fresh.last() {
            flight_cursor = last.seq + 1;
        }
        println!("alpha flight (+{} events since last frame, tail):", fresh.len());
        print!("{}", render_flight_human(&fresh[fresh.len().saturating_sub(4)..]));
    }

    // And the scrape view: what a Prometheus endpoint for `alpha` would
    // serve, rendered from the same remote snapshot.
    let snapshot = introspector.metrics_snapshot(alpha.orb().node()).expect("snapshot");
    let exposition = prometheus_text(&snapshot);
    println!("\nalpha Prometheus exposition (first lines):");
    for line in exposition.lines().take(6) {
        println!("  {line}");
    }

    alpha.shutdown();
    beta.shutdown();
    ops.shutdown();
    println!("\nok.");
}
