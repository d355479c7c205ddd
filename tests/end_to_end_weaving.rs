//! Integration: the full weaving pipeline across crates.
//!
//! QIDL source → compiler → interface repository → woven servant on a
//! server node → typed/dynamic stubs with mediators on a client node,
//! exercising the Fig. 2 semantics over the simulated network.

use maqs::prelude::*;
use orb::giop::QosContext;
use orb::sync::Mutex;
use qosmech::actuality::FreshnessStampQosImpl;
use qosmech::replication::ReplicationQosImpl;
use std::collections::HashMap;
use std::sync::Arc;

const SPEC: &str = r#"
    struct Item {
        string name;
        long long amount;
    };
    interface Inventory with qos Replication, Actuality {
        void add(in Item item);
        long long count(in string name);
        sequence<Item> all();
    };
"#;

struct Inventory {
    items: Mutex<HashMap<String, i64>>,
}

impl Inventory {
    fn servant() -> Arc<dyn Servant> {
        Arc::new(Inventory { items: Mutex::new(HashMap::new()) })
    }
}

impl Servant for Inventory {
    fn interface_id(&self) -> &str {
        "IDL:Inventory:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "add" => {
                let name = args[0].field("name").and_then(Any::as_str).unwrap_or("").to_string();
                let amount = args[0].field("amount").and_then(Any::as_i64).unwrap_or(0);
                *self.items.lock().entry(name).or_insert(0) += amount;
                Ok(Any::Void)
            }
            "count" => {
                let name = args[0].as_str().unwrap_or("");
                Ok(Any::LongLong(self.items.lock().get(name).copied().unwrap_or(0)))
            }
            "all" => Ok(Any::Sequence(
                self.items
                    .lock()
                    .iter()
                    .map(|(name, amount)| {
                        Any::Struct(
                            "Item".to_string(),
                            vec![
                                ("name".to_string(), Any::Str(name.clone())),
                                ("amount".to_string(), Any::LongLong(*amount)),
                            ],
                        )
                    })
                    .collect(),
            )),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
    fn get_state(&self) -> Result<Any, OrbError> {
        self.dispatch("all", &[])
    }
    fn set_state(&self, state: &Any) -> Result<(), OrbError> {
        let mut items = self.items.lock();
        items.clear();
        for entry in state.as_sequence().unwrap_or(&[]) {
            let name = entry.field("name").and_then(Any::as_str).unwrap_or("").to_string();
            let amount = entry.field("amount").and_then(Any::as_i64).unwrap_or(0);
            items.insert(name, amount);
        }
        Ok(())
    }
}

fn item(name: &str, amount: i64) -> Any {
    Any::Struct(
        "Item".to_string(),
        vec![
            ("name".to_string(), Any::Str(name.to_string())),
            ("amount".to_string(), Any::LongLong(amount)),
        ],
    )
}

fn setup() -> (Network, MaqsNode, MaqsNode, Ior) {
    let net = Network::new(5);
    let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "client").build().unwrap();
    let ior = server
        .serve(
            "inv",
            Inventory::servant(),
            ServeOptions::interface("Inventory")
                .qos_impl(Arc::new(ReplicationQosImpl::new()))
                .qos_impl(Arc::new(FreshnessStampQosImpl::new())),
        )
        .unwrap();
    (net, server, client, ior)
}

#[test]
fn ior_carries_assigned_characteristics_as_tags() {
    let (_net, server, client, ior) = setup();
    assert!(ior.is_qos_aware());
    assert!(ior.offers("Replication"));
    assert!(ior.offers("Actuality"));
    assert!(!ior.offers("Compression"));
    // The reference survives stringification (out-of-band hand-off).
    let reparsed = Ior::from_uri(&ior.to_uri()).unwrap();
    assert_eq!(reparsed, ior);
    server.shutdown();
    client.shutdown();
}

#[test]
fn application_traffic_is_unaffected_by_weaving() {
    let (_net, server, client, ior) = setup();
    let orb = client.orb();
    orb.invoke(&ior, "add", &[item("bolts", 40)]).unwrap();
    orb.invoke(&ior, "add", &[item("bolts", 2)]).unwrap();
    assert_eq!(orb.invoke(&ior, "count", &[Any::from("bolts")]).unwrap(), Any::LongLong(42));
    server.shutdown();
    client.shutdown();
}

#[test]
fn qos_operations_follow_negotiation_lifecycle() {
    let (_net, server, client, ior) = setup();
    let orb = client.orb();
    // Before negotiation every QoS op raises QosNotNegotiated.
    for op in ["export_state", "set_validity_ms"] {
        assert!(matches!(
            orb.invoke(&ior, op, &[]),
            Err(OrbError::QosNotNegotiated(_))
        ));
    }
    // Unknown ops are BadOperation, not QosNotNegotiated.
    assert!(matches!(orb.invoke(&ior, "warp", &[]), Err(OrbError::BadOperation(_))));

    // Negotiate Replication: its ops open up, Actuality's stay shut.
    let agreement = client
        .negotiator()
        .negotiate_offer(server.orb().node(), "inv", &Offer::new("Replication", 1.0))
        .unwrap();
    orb.invoke(&ior, "add", &[item("nuts", 7)]).unwrap();
    let state = orb.invoke(&ior, "export_state", &[]).unwrap();
    assert_eq!(state.as_sequence().unwrap().len(), 1);
    assert!(matches!(
        orb.invoke(&ior, "invalidate", &[]),
        Err(OrbError::QosNotNegotiated(_))
    ));

    // Release: back to locked.
    client.negotiator().release(server.orb().node(), &agreement).unwrap();
    assert!(matches!(
        orb.invoke(&ior, "export_state", &[]),
        Err(OrbError::QosNotNegotiated(_))
    ));
    server.shutdown();
    client.shutdown();
}

#[test]
fn delegate_exchange_switches_characteristics_at_runtime() {
    let (_net, server, client, ior) = setup();
    let orb = client.orb();
    let negotiator = client.negotiator();
    let node = server.orb().node();

    let a1 = negotiator.negotiate_offer(node, "inv", &Offer::new("Replication", 1.0)).unwrap();
    assert!(orb.invoke(&ior, "export_state", &[]).is_ok());
    negotiator.release(node, &a1).unwrap();

    let _a2 = negotiator.negotiate_offer(node, "inv", &Offer::new("Actuality", 1.0)).unwrap();
    assert!(orb.invoke(&ior, "export_state", &[]).is_err());
    // `now_us`/`stamped` are the Actuality ops implemented server-side;
    // `invalidate` lives in the client mediator and stays BadOperation here.
    assert!(orb.invoke(&ior, "now_us", &[]).is_ok());
    assert!(matches!(orb.invoke(&ior, "invalidate", &[]), Err(OrbError::BadOperation(_))));

    // Under Actuality, replies get freshness stamps via the epilog.
    orb.invoke(&ior, "add", &[item("screws", 1)]).unwrap();
    let all = orb
        .invoke_qos(&ior, "all", &[], Some(QosContext::new("Actuality")))
        .unwrap();
    assert!(all.as_sequence().is_some());
    server.shutdown();
    client.shutdown();
}

#[test]
fn mediator_chain_composes_over_the_woven_service() {
    let (_net, server, client, ior) = setup();
    // Negotiate Actuality and install the matching mediator.
    client
        .negotiator()
        .negotiate_offer(server.orb().node(), "inv", &Offer::new("Actuality", 1.0))
        .unwrap();
    let stub = client.stub(&ior);
    let mediator = Arc::new(qosmech::actuality::ActualityMediator::new(
        std::time::Duration::from_secs(60),
        vec!["count".to_string(), "all".to_string()],
    ));
    stub.set_mediator(mediator.clone());

    stub.invoke("add", &[item("x", 1)]).unwrap();
    let c1 = stub.invoke("count", &[Any::from("x")]).unwrap();
    let c2 = stub.invoke("count", &[Any::from("x")]).unwrap();
    assert_eq!(c1.value, c2.value);
    assert_eq!(mediator.stats().hits, 1);
    // A write invalidates; next read refetches.
    stub.invoke("add", &[item("x", 1)]).unwrap();
    assert_eq!(stub.invoke("count", &[Any::from("x")]).unwrap(), Any::LongLong(2));
    server.shutdown();
    client.shutdown();
}

#[test]
fn trading_discovers_the_woven_service_by_qos() {
    let (_net, server, client, ior) = setup();
    // Export to the server's own trader via the wire interface.
    let trader_ior = Ior::new(
        services::trading::TRADER_INTERFACE,
        server.orb().node(),
        services::trading::TRADER_KEY,
    );
    client.orb().invoke(&trader_ior, "export", &[Any::Str(ior.to_uri())]).unwrap();
    let found = services::trading::query_trader(
        client.orb(),
        server.orb().node(),
        "IDL:Inventory:1.0",
        &["Replication", "Actuality"],
    )
    .unwrap();
    assert_eq!(found.len(), 1);
    assert_eq!(found[0], ior);
    let none = services::trading::query_trader(
        client.orb(),
        server.orb().node(),
        "IDL:Inventory:1.0",
        &["Encryption"],
    )
    .unwrap();
    assert!(none.is_empty());
    server.shutdown();
    client.shutdown();
}

#[test]
fn state_transfer_round_trips_complex_state() {
    let (_net, server, client, ior) = setup();
    let net2_server = MaqsNode::builder(&Network::new(9), "other").spec(SPEC).build().unwrap();
    drop(net2_server); // unrelated node; just ensure builders are independent

    let orb = client.orb();
    orb.invoke(&ior, "add", &[item("a", 1)]).unwrap();
    orb.invoke(&ior, "add", &[item("b", 2)]).unwrap();
    let state = orb.invoke(&ior, "_get_state", &[]).unwrap();
    assert_eq!(state.as_sequence().unwrap().len(), 2);

    // A second woven inventory on the server node, initialized from it.
    let ior2 =
        server.serve("inv2", Inventory::servant(), ServeOptions::interface("Inventory")).unwrap();
    groupcomm::transfer_state(orb, &ior, &ior2).unwrap();
    assert_eq!(orb.invoke(&ior2, "count", &[Any::from("b")]).unwrap(), Any::LongLong(2));
    server.shutdown();
    client.shutdown();
}
