//! Integration: the fault-tolerance characteristic under injected faults.
//!
//! Crashes, partitions and message loss from `netsim` against the
//! replication mediator and group-communication substrate (experiment
//! E4's correctness side).

use groupcomm::{FailureDetector, GroupService, MulticastModule};
use maqs::prelude::*;
use netsim::Partition;
use orb::sync::Mutex;
use qosmech::replication::{
    deploy_replicas, majority_vote, ReplicationMediator, ReplicationStrategy,
};
use std::sync::Arc;
use std::time::Duration;

struct Register(Mutex<i64>);
impl Register {
    fn boxed(v: i64) -> Box<dyn Servant> {
        Box::new(Register(Mutex::new(v)))
    }
}
impl Servant for Register {
    fn interface_id(&self) -> &str {
        "IDL:Register:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "get" => Ok(Any::LongLong(*self.0.lock())),
            "set" => {
                *self.0.lock() = args[0].as_i64().unwrap_or(0);
                Ok(Any::Void)
            }
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
    fn get_state(&self) -> Result<Any, OrbError> {
        Ok(Any::LongLong(*self.0.lock()))
    }
    fn set_state(&self, state: &Any) -> Result<(), OrbError> {
        *self.0.lock() = state.as_i64().unwrap_or(0);
        Ok(())
    }
}

fn fast_client(net: &Network) -> Orb {
    Orb::start_with(
        net,
        "client",
        orb::OrbConfig { request_timeout: Duration::from_millis(400), ..Default::default() },
    )
}

#[test]
fn failover_survives_sequential_crashes_until_last_replica() {
    let net = Network::new(21);
    let (orbs, iors) = deploy_replicas(&net, 4, "reg", |_| Register::boxed(7));
    let client = fast_client(&net);
    let mediator = Arc::new(ReplicationMediator::new(
        client.clone(),
        iors.clone(),
        ReplicationStrategy::Failover,
    ));
    let stub = ClientStub::new(client.clone(), iors[0].clone());
    stub.set_mediator(mediator.clone());

    for (killed, orb) in orbs.iter().enumerate() {
        assert_eq!(
            stub.invoke("get", &[]).unwrap(),
            Any::LongLong(7),
            "after {killed} crashes"
        );
        net.crash(orb.node());
    }
    // All dead: now it must fail.
    assert!(stub.invoke("get", &[]).is_err());
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();
}

#[test]
fn partition_isolates_then_heals() {
    let net = Network::new(22);
    let (orbs, iors) = deploy_replicas(&net, 2, "reg", |_| Register::boxed(1));
    let client = fast_client(&net);
    let mediator = Arc::new(ReplicationMediator::new(
        client.clone(),
        iors.clone(),
        ReplicationStrategy::Failover,
    ));
    let stub = ClientStub::new(client.clone(), iors[0].clone());
    stub.set_mediator(mediator.clone());

    // Put the client alone in a partition: nothing reachable.
    net.partition(Partition::new([
        vec![client.node()],
        vec![orbs[0].node(), orbs[1].node()],
    ]));
    assert!(stub.invoke("get", &[]).is_err());

    // Heal: service resumes without any reconfiguration.
    net.heal();
    assert_eq!(stub.invoke("get", &[]).unwrap(), Any::LongLong(1));

    // Partition that keeps one replica with the client: failover inside
    // the client's side of the partition succeeds.
    net.partition(Partition::new([
        vec![client.node(), orbs[1].node()],
        vec![orbs[0].node()],
    ]));
    assert_eq!(stub.invoke("get", &[]).unwrap(), Any::LongLong(1));
    assert!(mediator.stats().failovers >= 1);
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();
}

#[test]
fn majority_vote_tolerates_minority_value_corruption() {
    let net = Network::new(23);
    // One replica holds a corrupted value.
    let values = [5i64, 5, 99];
    let (orbs, iors) = deploy_replicas(&net, 3, "reg", |i| Register::boxed(values[i]));
    let client = fast_client(&net);
    let mediator = Arc::new(ReplicationMediator::new(
        client.clone(),
        iors.clone(),
        ReplicationStrategy::MajorityVote,
    ));
    let stub = ClientStub::new(client.clone(), iors[0].clone());
    stub.set_mediator(mediator);
    assert_eq!(stub.invoke("get", &[]).unwrap(), Any::LongLong(5));
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();
}

#[test]
fn majority_vote_with_loss_still_reaches_quorum() {
    let net = Network::new(24);
    let (orbs, iors) = deploy_replicas(&net, 5, "reg", |_| Register::boxed(3));
    let client = fast_client(&net);
    // 20% loss on the link to one replica: the other four carry quorum.
    net.set_link_directed(
        client.node(),
        orbs[0].node(),
        netsim::LinkModel::perfect().with_loss(1.0),
    );
    let mediator = Arc::new(ReplicationMediator::new(
        client.clone(),
        iors.clone(),
        ReplicationStrategy::MajorityVote,
    ));
    let stub = ClientStub::new(client.clone(), iors[0].clone());
    stub.set_mediator(mediator);
    assert_eq!(stub.invoke("get", &[]).unwrap(), Any::LongLong(3));
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();
}

#[test]
fn group_service_view_tracks_crash_evictions() {
    let net = Network::new(25);
    let host = Orb::start(&net, "group-host");
    let client = fast_client(&net);
    let svc_ior = host.activate("groups", Box::new(GroupService::new()));
    let (orbs, iors) = deploy_replicas(&net, 3, "reg", |_| Register::boxed(0));
    for ior in &iors {
        client
            .invoke(&svc_ior, "join", &[Any::from("regs"), Any::Str(ior.to_uri())])
            .unwrap();
    }
    let members = groupcomm::fetch_members(&client, &svc_ior, "regs").unwrap();
    assert_eq!(members.len(), 3);

    // Crash one; a failure-detector sweep reports it and we evict it
    // from the membership service.
    net.crash(orbs[1].node());
    let detector = FailureDetector::new(client.clone(), Duration::from_millis(300));
    let (_, dead) = detector.sweep(&members);
    assert_eq!(dead.len(), 1);
    for d in dead {
        client
            .invoke(
                &svc_ior,
                "remove_node",
                &[Any::from("regs"), Any::ULong(d.node.0)],
            )
            .unwrap();
    }
    let members = groupcomm::fetch_members(&client, &svc_ior, "regs").unwrap();
    assert_eq!(members.len(), 2);
    assert!(members.iter().all(|m| m.node != orbs[1].node()));
    for o in &orbs {
        o.shutdown();
    }
    host.shutdown();
    client.shutdown();
}

#[test]
fn transport_multicast_fans_out_under_crash() {
    let net = Network::new(26);
    let (orbs, iors) = deploy_replicas(&net, 3, "reg", |_| Register::boxed(4));
    let client = fast_client(&net);
    let nodes: Vec<netsim::NodeId> = iors.iter().map(|i| i.node).collect();
    client.qos_transport().install(Arc::new(MulticastModule::new("multicast", nodes)));
    for orb in &orbs {
        orb.qos_transport().install(Arc::new(MulticastModule::new("multicast", [])));
    }
    client
        .qos_transport()
        .bind(
            orb::qos_binding::BindingKey { peer: None, key: iors[0].key.clone() },
            "multicast",
        )
        .unwrap();
    net.crash(orbs[1].node());
    // invoke_collect through the fan-out still reaches 2 of 3.
    let replies = client
        .invoke_collect(
            &iors[0],
            "get",
            &[],
            Some(orb::giop::QosContext::new("Replication")),
            2,
            Duration::from_millis(500),
        )
        .unwrap();
    assert!(replies.len() >= 2);
    assert_eq!(majority_vote(&replies, 2).unwrap(), Any::LongLong(4));
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();
}

/// The chaos scenario from experiment E4's robustness side: a scripted
/// fault plan — a 150 ms latency spike, a 20 % lossy window, then a hard
/// crash of the bound replica — against a self-healing client.
///
/// The seed is fixed (override with `MAQS_CHAOS_SEED`) so the run is
/// reproducible; the assertions are written to hold under *any* seed:
/// no panics, every reply Ok or a typed error, the circuit breaker
/// opened at least once, at least one adaptation event, ladder steps
/// taken strictly in declared order, and post-heal calls succeeding.
#[test]
fn chaos_script_heals_binding_through_degradation_ladder() {
    let seed = std::env::var("MAQS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let ms = netsim::VirtualDuration::from_millis;
    let net = Network::new(seed);

    const SPEC: &str = r#"
        interface Register with qos Replication, Actuality {
            long long get();
            void set(in long long v);
        };
    "#;
    let serve = |node: &MaqsNode| {
        node.serve(
            "reg",
            Arc::new(Register(Mutex::new(40))),
            ServeOptions::interface("Register")
                .qos_impl(Arc::new(qosmech::replication::ReplicationQosImpl::new()))
                .qos_impl(Arc::new(qosmech::actuality::FreshnessStampQosImpl::new()))
                .capacity("Replication", 4),
        )
        .unwrap()
    };
    let s1 = MaqsNode::builder(&net, "s1").spec(SPEC).build().unwrap();
    let s2 = MaqsNode::builder(&net, "s2").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "client")
        .orb_config(orb::OrbConfig {
            request_timeout: Duration::from_millis(250),
            ..Default::default()
        })
        .build()
        .unwrap();
    let ior1 = serve(&s1);
    let ior2 = serve(&s2);

    // An agreement strict enough that the first failed call violates it
    // (one failure in a 64-sample window pulls the mean under 0.99).
    let offer = Offer::new("Replication", 1.0).with_param("availability", Any::Double(0.99));
    let agreement =
        client.negotiator().negotiate_offer(s1.orb().node(), "reg", &offer).unwrap();

    let engine = client.enable_self_healing(
        SelfHealingPolicy::new(
            DegradationLadder::new()
                .then(LadderStep::Renegotiate { relax_factor: 1.2 })
                .then(LadderStep::Rebind)
                .then(LadderStep::FailStatic { read_ops: vec!["get".to_string()] }),
        )
        .with_replicas(vec![ior1.clone(), ior2.clone()])
        .with_probe_timeout(Duration::from_millis(200))
        .with_retry(orb::retry::RetryPolicy::immediate(1))
        .with_breaker(BreakerConfig { consecutive_failures: 1, ..Default::default() }),
    );
    let stub = client.stub(&ior1);
    let _mediator = engine.guard(&stub, s1.orb().node(), &agreement);

    // The scripted plan, all on the virtual fault clock: spike the
    // client<->s1 link to 150 ms for 30 ms, leave it 20% lossy for the
    // next 30 ms, then crash s1 outright.
    net.schedule(
        FaultScript::new()
            .latency_spike(
                ms(30),
                ms(60),
                client.orb().node(),
                s1.orb().node(),
                LinkModel::perfect().with_latency(ms(150)),
                LinkModel::perfect().with_loss(0.2),
            )
            .crash_at(ms(90), s1.orb().node()),
    );

    // Drive the fault clock and keep calling through the chaos. Every
    // reply must be Ok or a *typed* error; a panic fails the test.
    let (mut ok, mut failed) = (0u32, 0u32);
    for round in 0..14i64 {
        net.tick(ms(10));
        match stub.invoke("set", &[Any::LongLong(round)]) {
            Ok(_) => ok += 1,
            Err(e) => {
                assert!(!e.to_string().is_empty());
                failed += 1;
            }
        }
        match stub.invoke("get", &[]) {
            Ok(v) => {
                assert!(v.as_i64().is_some(), "typed reply expected, got {v:?}");
                ok += 1;
            }
            Err(e) => {
                assert!(!e.to_string().is_empty());
                failed += 1;
            }
        }
    }
    assert_eq!(net.pending_faults(), 0, "the whole script ran");
    assert!(ok > 0, "some calls must survive the chaos");
    assert!(failed > 0, "the crash must cost at least one call");

    // The breaker opened (metrics count every transition) ...
    let snapshot = client.metrics_snapshot();
    let opened = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "resilience.circuit.open")
        .map(|(_, n)| *n)
        .unwrap_or(0);
    assert!(opened >= 1, "circuit never opened: {:?}", snapshot.counters);

    // ... and the flight recorder black-boxed the incident: opening the
    // circuit freezes the ring into a dump whose timeline carries the
    // open transition, so the failed run is debuggable after the fact.
    let dumps = client.orb().flight().dumps();
    assert!(
        dumps.iter().any(|d| d.reason == "circuit-open"
            && d.contains(orb::FlightEventKind::CircuitTransition, "->open")),
        "no circuit-open flight dump with the transition: {:?}",
        dumps.iter().map(|d| &d.reason).collect::<Vec<_>>()
    );
    assert!(
        client.orb().flight().count(orb::FlightEventKind::AdaptationRung) >= 1,
        "ladder rungs must reach the flight timeline"
    );

    // ... the ladder ran, in declared order, and ended in a live rung.
    let events = engine.events();
    assert!(!events.is_empty(), "healing must have produced events");
    let rung = |step: &str| match step {
        "renegotiate" => 0,
        "rebind" => 1,
        "fail_static" => 2,
        other => panic!("unexpected ladder step `{other}`"),
    };
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(
            rung(&pair[0].step) <= rung(&pair[1].step),
            "ladder steps out of order: {events:?}"
        );
    }
    assert!(
        events.iter().any(|e| e.outcome.is_success()),
        "at least one rung must heal the binding: {events:?}"
    );

    // Post-heal, the binding serves again (from the surviving replica).
    for _ in 0..3 {
        assert!(stub.invoke("get", &[]).unwrap().as_i64().is_some());
    }
    s1.shutdown();
    s2.shutdown();
    client.shutdown();
}

#[test]
fn crashed_node_recovers_and_catches_up_via_state_transfer() {
    let net = Network::new(27);
    let (orbs, iors) = deploy_replicas(&net, 2, "reg", |_| Register::boxed(0));
    let client = fast_client(&net);
    client.invoke(&iors[0], "set", &[Any::LongLong(11)]).unwrap();
    client.invoke(&iors[1], "set", &[Any::LongLong(11)]).unwrap();

    net.crash(orbs[1].node());
    client.invoke(&iors[0], "set", &[Any::LongLong(22)]).unwrap();

    // Recover and resynchronize.
    net.revive(orbs[1].node());
    assert_eq!(client.invoke(&iors[1], "get", &[]).unwrap(), Any::LongLong(11)); // stale
    groupcomm::transfer_state(&client, &iors[0], &iors[1]).unwrap();
    assert_eq!(client.invoke(&iors[1], "get", &[]).unwrap(), Any::LongLong(22));
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();
}
