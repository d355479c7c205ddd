//! Integration: concurrency and volume stress on the ORB stack.

use maqs::prelude::*;
use orb::giop::QosContext;
use orb::qos_binding::BindingKey;
use qosmech::compress::{CompressionModule, COMPRESSION_MODULE};
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
            "sum" => Ok(Any::LongLong(args.iter().filter_map(Any::as_i64).sum())),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

#[test]
fn many_concurrent_clients_one_server() {
    let net = Network::new(61);
    let server = Orb::start(&net, "server");
    let ior = server.activate("echo", Box::new(Echo));
    let clients: Vec<Orb> = (0..8).map(|i| Orb::start(&net, &format!("c{i}"))).collect();

    let handles: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, client)| {
            let client = client.clone();
            let ior = ior.clone();
            std::thread::spawn(move || {
                for j in 0..100i64 {
                    let v = (i as i64) * 1000 + j;
                    let r = client.invoke(&ior, "echo", &[Any::LongLong(v)]).unwrap();
                    assert_eq!(r, Any::LongLong(v));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.stats().requests_handled, 800);
    server.shutdown();
    for c in clients {
        c.shutdown();
    }
}

#[test]
fn one_client_many_threads_shared_orb() {
    // A single client ORB used from several threads: correlation ids
    // must never cross replies.
    let net = Network::new(62);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let client = client.clone();
            let ior = ior.clone();
            std::thread::spawn(move || {
                for j in 0..150i64 {
                    let v = (t as i64) << 32 | j;
                    let r = client.invoke(&ior, "echo", &[Any::LongLong(v)]).unwrap();
                    assert_eq!(r, Any::LongLong(v), "cross-talk on thread {t}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(client.stats().replies_matched, 900);
    server.shutdown();
    client.shutdown();
}

#[test]
fn large_payload_roundtrips_plain_and_compressed() {
    let net = Network::new(63);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate_with_tags("echo", Box::new(Echo), &["Compression"]);

    let blob = Any::Bytes((0..1_000_000u32).map(|i| (i % 251) as u8).collect());
    let r = client.invoke(&ior, "echo", std::slice::from_ref(&blob)).unwrap();
    assert_eq!(r, blob);

    client.qos_transport().install(Arc::new(CompressionModule::new()));
    server.qos_transport().install(Arc::new(CompressionModule::new()));
    client
        .qos_transport()
        .bind(BindingKey { peer: None, key: ior.key.clone() }, COMPRESSION_MODULE)
        .unwrap();
    let r = client
        .invoke_qos(&ior, "echo", std::slice::from_ref(&blob), Some(QosContext::new("Compression")))
        .unwrap();
    assert_eq!(r, blob);
    server.shutdown();
    client.shutdown();
}

#[test]
fn many_objects_on_one_adapter() {
    let net = Network::new(64);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let iors: Vec<Ior> =
        (0..200).map(|i| server.activate(&format!("obj-{i}"), Box::new(Echo))).collect();
    assert_eq!(server.adapter().len(), 200);
    for (i, ior) in iors.iter().enumerate() {
        let r = client.invoke(ior, "echo", &[Any::Long(i as i32)]).unwrap();
        assert_eq!(r, Any::Long(i as i32));
    }
    // Deactivate half; they must disappear, the rest must still work.
    for i in (0..200).step_by(2) {
        server.deactivate(&format!("obj-{i}"));
    }
    assert_eq!(server.adapter().len(), 100);
    assert!(client.invoke(&iors[0], "echo", &[Any::Void]).is_err());
    assert!(client.invoke(&iors[1], "echo", &[Any::Void]).is_ok());
    server.shutdown();
    client.shutdown();
}

#[test]
fn deep_argument_lists_and_wide_sequences() {
    let net = Network::new(65);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));
    // 200 arguments summed server-side.
    let args: Vec<Any> = (1..=200i64).map(Any::LongLong).collect();
    let r = client.invoke(&ior, "sum", &args).unwrap();
    assert_eq!(r, Any::LongLong(20_100));
    // Deeply nested sequence round-trip.
    let mut nested = Any::Long(7);
    for _ in 0..64 {
        nested = Any::Sequence(vec![nested]);
    }
    let r = client.invoke(&ior, "echo", &[nested.clone()]).unwrap();
    assert_eq!(r, nested);
    server.shutdown();
    client.shutdown();
}

#[test]
fn binding_context_applies_to_every_call() {
    // apply_binding wires the negotiated agreement into the stub so each
    // call carries the wire context — checked via the server seeing the
    // QoS path (module transform) only after the binding is applied.
    let net = Network::new(66);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate_with_tags("echo", Box::new(Echo), &["Compression"]);
    let tx = Arc::new(CompressionModule::new());
    client.qos_transport().install(tx.clone());
    server.qos_transport().install(Arc::new(CompressionModule::new()));
    client
        .qos_transport()
        .bind(BindingKey { peer: None, key: ior.key.clone() }, COMPRESSION_MODULE)
        .unwrap();

    let registry = weaver::QosBindingRegistry::new();
    let binding = registry.bind(ior.key.0.clone(), "Compression", vec![]);
    let stub = weaver::ClientStub::new(client.clone(), ior.clone());

    // Without the context the call takes the plain path (module idle).
    stub.invoke("echo", &[Any::Bytes(vec![9; 512])]).unwrap();
    assert_eq!(tx.bytes_in(), 0);

    stub.apply_binding(&binding);
    stub.invoke("echo", &[Any::Bytes(vec![9; 512])]).unwrap();
    assert!(tx.bytes_in() > 0, "binding context must route through the module");
    server.shutdown();
    client.shutdown();
}

#[test]
fn collect_with_short_timeout_under_load() {
    let net = Network::new(67);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));
    for _ in 0..50 {
        let replies = client
            .invoke_collect(&ior, "echo", &[Any::Long(1)], None, 1, Duration::from_secs(1))
            .unwrap();
        assert_eq!(replies.len(), 1);
    }
    // Pending map must be clean afterwards (no leaked correlations):
    // further calls still work and match.
    assert_eq!(client.invoke(&ior, "echo", &[Any::Long(2)]).unwrap(), Any::Long(2));
    server.shutdown();
    client.shutdown();
}

#[test]
fn metrics_snapshots_are_monotone_under_concurrency() {
    // Snapshots taken while traffic is in flight must never go
    // backwards: counters and histogram counts only grow.
    let net = Network::new(68);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let client = client.clone();
            let ior = ior.clone();
            std::thread::spawn(move || {
                for j in 0..50i64 {
                    client.invoke(&ior, "echo", &[Any::LongLong(i * 100 + j)]).unwrap();
                }
            })
        })
        .collect();

    let mut prev_client = client.metrics().snapshot();
    let mut prev_server = server.metrics().snapshot();
    for _ in 0..20 {
        let next_client = client.metrics().snapshot();
        let next_server = server.metrics().snapshot();
        assert!(next_client.dominates(&prev_client), "client snapshot regressed");
        assert!(next_server.dominates(&prev_server), "server snapshot regressed");
        prev_client = next_client;
        prev_server = next_server;
        std::thread::sleep(Duration::from_millis(1));
    }
    for h in handles {
        h.join().unwrap();
    }
    let final_client = client.metrics().snapshot();
    assert!(final_client.dominates(&prev_client));
    assert_eq!(final_client.counter("orb.requests_sent"), 200);
    assert_eq!(server.metrics().snapshot().counter("orb.requests_handled"), 200);
    server.shutdown();
    client.shutdown();
}
