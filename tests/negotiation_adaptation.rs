//! Integration: negotiation, preference adaptation, monitoring and
//! accounting working together (the §2.2 infrastructure services).

use maqs::prelude::*;
use orb::sync::Mutex;
use qosmech::actuality::FreshnessStampQosImpl;
use qosmech::loadbalance::LoadReportingQosImpl;
use qosmech::replication::ReplicationQosImpl;
use services::accounting::{Accountant, PriceModel};
use services::monitoring::{Bound, Monitor, Statistic};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SPEC: &str = r#"
    interface Store with qos Replication, Actuality, LoadBalancing {
        long long read(in string key);
        void write(in string key, in long long value);
    };
"#;

struct Store(Mutex<HashMap<String, i64>>);
impl Store {
    fn servant() -> Arc<dyn Servant> {
        Arc::new(Store(Mutex::new(HashMap::new())))
    }
}
impl Servant for Store {
    fn interface_id(&self) -> &str {
        "IDL:Store:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "read" => {
                let k = args[0].as_str().unwrap_or("");
                Ok(Any::LongLong(self.0.lock().get(k).copied().unwrap_or(0)))
            }
            "write" => {
                let k = args[0].as_str().unwrap_or("").to_string();
                self.0.lock().insert(k, args[1].as_i64().unwrap_or(0));
                Ok(Any::Void)
            }
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

fn setup(replication_capacity: usize) -> (Network, MaqsNode, MaqsNode, Ior) {
    let net = Network::new(31);
    let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "client").build().unwrap();
    let ior = server
        .serve(
            "store",
            Store::servant(),
            ServeOptions::interface("Store")
                .qos_impl(Arc::new(ReplicationQosImpl::new()))
                .qos_impl(Arc::new(FreshnessStampQosImpl::new()))
                .qos_impl(Arc::new(LoadReportingQosImpl::new()))
                .capacity("Replication", replication_capacity),
        )
        .unwrap();
    (net, server, client, ior)
}

#[test]
fn preferences_pick_best_offer_and_degrade_under_capacity_pressure() {
    let (_net, server, client, _ior) = setup(1);
    let node = server.orb().node();
    let prefs = ContractHierarchy::new(
        "prefer-replication",
        ContractNode::Any(vec![
            ContractNode::Leaf(Offer::new("Replication", 10.0)),
            ContractNode::Leaf(Offer::new("Actuality", 6.0)),
            ContractNode::Leaf(Offer::new("LoadBalancing", 2.0)),
        ]),
    );
    // First client gets the top choice.
    let (a1, u1) = client.negotiator().negotiate_preferences(node, "store", &prefs).unwrap();
    assert_eq!(a1[0].characteristic, "Replication");
    assert_eq!(u1, 10.0);
    // Second client: Replication is both out of capacity *and*
    // conflicting; with the paper's one-active-characteristic rule, no
    // other characteristic can be activated while Replication is live.
    let err = client.negotiator().negotiate_preferences(node, "store", &prefs);
    assert!(err.is_err());
    // After release, the next client negotiates the best remaining.
    client.negotiator().release(node, &a1[0]).unwrap();
    let (a2, u2) = client.negotiator().negotiate_preferences(node, "store", &prefs).unwrap();
    // Replication capacity was freed too, so the top choice wins again.
    assert_eq!(a2[0].characteristic, "Replication");
    assert_eq!(u2, 10.0);
    server.shutdown();
    client.shutdown();
}

#[test]
fn capacity_decrease_forces_degraded_renegotiation() {
    let (_net, server, client, _ior) = setup(3);
    let node = server.orb().node();
    let prefs = ContractHierarchy::new(
        "p",
        ContractNode::Any(vec![
            ContractNode::Leaf(Offer::new("Replication", 10.0)),
            ContractNode::Leaf(Offer::new("Actuality", 5.0)),
        ]),
    );
    let (a1, _) = client.negotiator().negotiate_preferences(node, "store", &prefs).unwrap();
    assert_eq!(a1[0].characteristic, "Replication");
    // Operator shrinks capacity (resource decrease) and the client
    // releases + renegotiates: only the degraded option remains.
    server.negotiation().set_capacity("store", "Replication", 0);
    client.negotiator().release(node, &a1[0]).unwrap();
    let (a2, u2) = client.negotiator().negotiate_preferences(node, "store", &prefs).unwrap();
    assert_eq!(a2[0].characteristic, "Actuality");
    assert_eq!(u2, 5.0);
    server.shutdown();
    client.shutdown();
}

#[test]
fn monitor_violation_triggers_renegotiation_handler() {
    let (_net, server, client, ior) = setup(1);
    let node = server.orb().node();
    let agreement = client
        .negotiator()
        .negotiate_offer(node, "store", &Offer::new("Actuality", 1.0))
        .unwrap();

    let monitor = Monitor::new(8);
    monitor.add_rule("store", "latency_ms", Statistic::Mean, Bound::Max, 5.0);
    let violations = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&violations);
    monitor.on_violation(Arc::new(move |_| {
        seen.fetch_add(1, Ordering::Relaxed);
    }));

    // Simulate measured latencies drifting over the agreed bound.
    for latency in [1.0, 2.0, 9.0, 30.0] {
        monitor.record("store", "latency_ms", latency);
    }
    assert!(violations.load(Ordering::Relaxed) >= 1);

    // The violation handler's real-world action: renegotiate.
    let relaxed = client
        .negotiator()
        .renegotiate(node, &agreement, vec![("validity_ms".to_string(), Any::ULongLong(5000))])
        .unwrap();
    assert_eq!(relaxed.version, 2);
    assert_eq!(relaxed.params[0].1, Any::ULongLong(5000));
    let _ = ior;
    server.shutdown();
    client.shutdown();
}

#[test]
fn accounting_meters_agreement_usage() {
    let (_net, server, client, ior) = setup(1);
    let node = server.orb().node();
    let agreement = client
        .negotiator()
        .negotiate_offer(node, "store", &Offer::new("Replication", 1.0))
        .unwrap();

    let accountant = Accountant::new();
    accountant.set_tariff(
        "Replication",
        PriceModel { per_call: 0.05, per_byte: 0.001, per_second: 0.0 },
    );
    // Meter the woven traffic (in a deployment the prolog would do this).
    for i in 0..10 {
        let args = [Any::from("k"), Any::LongLong(i)];
        client.orb().invoke(&ior, "write", &args).unwrap();
        let bytes: usize = args.iter().map(|a| a.to_bytes().len()).sum();
        accountant.record_call(agreement.id, &agreement.characteristic, bytes as u64);
    }
    let invoice = accountant.invoice(agreement.id);
    assert_eq!(invoice.calls, 10);
    assert!(invoice.bytes > 0);
    assert!(invoice.total > 0.5); // 10 calls * 0.05 plus bytes
    let closed = accountant.close(agreement.id);
    assert_eq!(closed.total, invoice.total);
    assert_eq!(accountant.total_due(), 0.0);
    server.shutdown();
    client.shutdown();
}

#[test]
fn all_contract_combines_characteristics_across_objects() {
    // The `All` combinator needs multiple objects (one active
    // characteristic each): weave two objects and satisfy an All-contract
    // spanning them.
    let net = Network::new(33);
    let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "client").build().unwrap();
    let _a = server
        .serve(
            "store-a",
            Store::servant(),
            ServeOptions::interface("Store").qos_impl(Arc::new(ReplicationQosImpl::new())),
        )
        .unwrap();
    let _b = server
        .serve(
            "store-b",
            Store::servant(),
            ServeOptions::interface("Store").qos_impl(Arc::new(FreshnessStampQosImpl::new())),
        )
        .unwrap();
    let node = server.orb().node();
    let n = client.negotiator();
    let ra = n.negotiate_offer(node, "store-a", &Offer::new("Replication", 2.0)).unwrap();
    let rb = n.negotiate_offer(node, "store-b", &Offer::new("Actuality", 1.0)).unwrap();
    assert_eq!(ra.characteristic, "Replication");
    assert_eq!(rb.characteristic, "Actuality");
    assert_eq!(server.negotiation().live_agreements(), 2);
    server.shutdown();
    client.shutdown();
}

#[test]
fn offers_reflect_installed_implementations_only() {
    let net = Network::new(34);
    let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "client").build().unwrap();
    // Only Actuality installed, although three are assigned in QIDL.
    server
        .serve(
            "store",
            Store::servant(),
            ServeOptions::interface("Store").qos_impl(Arc::new(FreshnessStampQosImpl::new())),
        )
        .unwrap();
    let offers = client.negotiator().offers(server.orb().node(), "store").unwrap();
    assert_eq!(offers, vec!["Actuality"]);
    // Negotiating a merely assigned (but uninstalled) characteristic fails.
    assert!(client
        .negotiator()
        .negotiate_offer(server.orb().node(), "store", &Offer::new("Replication", 1.0))
        .is_err());
    server.shutdown();
    client.shutdown();
}
