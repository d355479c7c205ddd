//! Integration: the Fig. 3 ORB dispatch tree and reflective module
//! loading across nodes.

use maqs::prelude::*;
use orb::dii::{DynamicCommand, DynamicRequest};
use orb::giop::{CommandTarget, QosContext};
use orb::qos_binding::BindingKey;
use qosmech::compress::{CompressionModule, COMPRESSION_MODULE};
use qosmech::crypt::{keyex, EncryptionModule, ENCRYPTION_MODULE};
use std::sync::Arc;

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

fn pair() -> (Network, Orb, Orb, Ior) {
    let net = Network::new(41);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate_with_tags("echo", Box::new(Echo), &["Compression", "Encryption"]);
    (net, server, client, ior)
}

#[test]
fn remote_dynamic_module_loading_via_transport_command() {
    let (_net, server, client, ior) = pair();
    // The server registers a factory; the *client* loads the module
    // remotely through the transport's command interface — the paper's
    // "dynamic loading of QoS modules on request".
    server.qos_transport().register_factory(
        "compression",
        Arc::new(|_cfg: &Any| Ok(Arc::new(CompressionModule::new()) as Arc<dyn orb::QosModule>)),
    );
    let loaded = DynamicCommand::to_transport(server.node(), "load_module")
        .arg(Any::from("compression"))
        .invoke(&client)
        .unwrap();
    assert_eq!(loaded, Any::Str(COMPRESSION_MODULE.into()));
    let listed = DynamicCommand::to_transport(server.node(), "list_modules")
        .invoke(&client)
        .unwrap();
    assert_eq!(listed, Any::Sequence(vec![Any::Str(COMPRESSION_MODULE.into())]));

    // Client side loads its own and binds; compressed traffic flows.
    client.qos_transport().install(Arc::new(CompressionModule::new()));
    client
        .qos_transport()
        .bind(BindingKey { peer: None, key: ior.key.clone() }, COMPRESSION_MODULE)
        .unwrap();
    let reply = client
        .invoke_qos(
            &ior,
            "echo",
            &[Any::Bytes(b"abc ".repeat(512))],
            Some(QosContext::new("Compression")),
        )
        .unwrap();
    assert_eq!(reply.as_bytes().unwrap().len(), 2048);
    server.shutdown();
    client.shutdown();
}

#[test]
fn module_dynamic_interface_reached_through_dii() {
    let (_net, server, client, _ior) = pair();
    server.qos_transport().install(Arc::new(EncryptionModule::new(5)));
    // Module-specific command via DII: rekey, then read the key id.
    let id_before = DynamicCommand::to_module(server.node(), ENCRYPTION_MODULE, "key_id")
        .invoke(&client)
        .unwrap();
    DynamicCommand::to_module(server.node(), ENCRYPTION_MODULE, "rekey")
        .arg(Any::ULongLong(99))
        .invoke(&client)
        .unwrap();
    let id_after = DynamicCommand::to_module(server.node(), ENCRYPTION_MODULE, "key_id")
        .invoke(&client)
        .unwrap();
    assert_ne!(id_before, id_after);
    server.shutdown();
    client.shutdown();
}

#[test]
fn unbound_qos_traffic_falls_back_to_plain_giop() {
    let (net, server, client, ior) = pair();
    // QoS context present but nothing bound: Fig. 3's fallback arrow.
    let reply = client
        .invoke_qos(&ior, "echo", &[Any::Long(1)], Some(QosContext::new("Compression")))
        .unwrap();
    assert_eq!(reply, Any::Long(1));
    assert_eq!(net.stats().total_msgs(), 2); // request + reply, unicast
    server.shutdown();
    client.shutdown();
}

#[test]
fn command_and_service_request_take_different_paths() {
    let (_net, server, client, ior) = pair();
    // A service request reaches the adapter...
    client.invoke(&ior, "echo", &[Any::Void]).unwrap();
    // ...a command with the same operation name reaches the transport
    // (and fails there, since the transport has no such command).
    let err = client
        .send_command(server.node(), CommandTarget::Transport, "echo", &[])
        .unwrap_err();
    assert!(matches!(err, OrbError::BadOperation(_)));
    // Commands to missing modules report ModuleNotFound.
    let err = client
        .send_command(server.node(), CommandTarget::Module("ghost".into()), "x", &[])
        .unwrap_err();
    assert!(matches!(err, OrbError::ModuleNotFound(_)));
    server.shutdown();
    client.shutdown();
}

#[test]
fn end_to_end_encrypted_channel_with_key_agreement() {
    let (_net, server, client, ior) = pair();
    let (cs, ss) = (1234u64, 5678u64);
    let shared = keyex::shared(cs, keyex::public(ss));
    client.qos_transport().install(Arc::new(EncryptionModule::new(shared)));
    server.qos_transport().install(Arc::new(EncryptionModule::new(
        keyex::shared(ss, keyex::public(cs)),
    )));
    client
        .qos_transport()
        .bind(BindingKey { peer: None, key: ior.key.clone() }, ENCRYPTION_MODULE)
        .unwrap();
    let secret = Any::Str("top secret".into());
    let reply = client
        .invoke_qos(
            &ior,
            "echo",
            std::slice::from_ref(&secret),
            Some(QosContext::new("Encryption")),
        )
        .unwrap();
    assert_eq!(reply, secret);
    server.shutdown();
    client.shutdown();
}

#[test]
fn wrong_key_traffic_is_rejected_not_delivered() {
    let (net, server, client, ior) = pair();
    client.qos_transport().install(Arc::new(EncryptionModule::new(1)));
    server.qos_transport().install(Arc::new(EncryptionModule::new(2))); // mismatched
    client
        .qos_transport()
        .bind(BindingKey { peer: None, key: ior.key.clone() }, ENCRYPTION_MODULE)
        .unwrap();
    let client2 = Orb::start_with(
        &net,
        "client2",
        orb::OrbConfig {
            request_timeout: std::time::Duration::from_millis(300),
            ..Default::default()
        },
    );
    client2.qos_transport().install(Arc::new(EncryptionModule::new(1)));
    client2
        .qos_transport()
        .bind(BindingKey { peer: None, key: ior.key.clone() }, ENCRYPTION_MODULE)
        .unwrap();
    let err = client2
        .invoke_qos(&ior, "echo", &[Any::Long(1)], Some(QosContext::new("Encryption")))
        .unwrap_err();
    assert!(matches!(err, OrbError::Timeout(_)));
    // The server counted the undecryptable packet as dropped.
    assert!(server.stats().packets_dropped >= 1);
    server.shutdown();
    client.shutdown();
    client2.shutdown();
}

#[test]
fn stacked_modules_binding_replacement() {
    // Rebinding a relationship switches the transform on the fly.
    let (_net, server, client, ior) = pair();
    client.qos_transport().install(Arc::new(CompressionModule::new()));
    server.qos_transport().install(Arc::new(CompressionModule::new()));
    client.qos_transport().install(Arc::new(EncryptionModule::new(7)));
    server.qos_transport().install(Arc::new(EncryptionModule::new(7)));

    let key = BindingKey { peer: None, key: ior.key.clone() };
    client.qos_transport().bind(key.clone(), COMPRESSION_MODULE).unwrap();
    let r1 = client
        .invoke_qos(&ior, "echo", &[Any::Long(1)], Some(QosContext::new("Compression")))
        .unwrap();
    assert_eq!(r1, Any::Long(1));

    client.qos_transport().bind(key.clone(), ENCRYPTION_MODULE).unwrap();
    let r2 = client
        .invoke_qos(&ior, "echo", &[Any::Long(2)], Some(QosContext::new("Encryption")))
        .unwrap();
    assert_eq!(r2, Any::Long(2));

    client.qos_transport().unbind(&key);
    let r3 = client
        .invoke_qos(&ior, "echo", &[Any::Long(3)], Some(QosContext::new("Encryption")))
        .unwrap();
    assert_eq!(r3, Any::Long(3)); // plain fallback again
    server.shutdown();
    client.shutdown();
}

#[test]
fn dii_requests_compose_with_qos_contexts() {
    let (_net, server, client, ior) = pair();
    let reply = DynamicRequest::new(&ior, "echo")
        .arg(Any::from("dyn"))
        .qos(QosContext::new("Compression").with_param("level", Any::Octet(9)))
        .invoke(&client)
        .unwrap();
    assert_eq!(reply, Any::Str("dyn".into()));
    server.shutdown();
    client.shutdown();
}
