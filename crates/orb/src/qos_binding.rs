//! The QoS binding layer: reflective, dynamically loadable QoS modules
//! and the binding table routing traffic through them.
//!
//! This is the §4 half of the paper — what it calls the "QoS transport".
//! (The *wire* transport — sockets vs the simulator — lives in
//! [`crate::wire`]; this module is the registry/binding machinery that
//! sits **above** the wire and transforms GIOP bodies.) The ORB's
//! invocation interface hands
//! QoS-aware traffic to the **QoS transport**, "an entity which
//! administrates all QoS transport modules". Each module offers:
//!
//! * a **common static interface** — load, unload, configure, status —
//!   modelled as a pseudo-object ([`QosModule::command`] plus the
//!   transport-level commands), and
//! * a **specific dynamic interface** — reached through the DII as
//!   commands addressed to the module by name.
//!
//! Modules transform outbound GIOP bytes ([`QosModule::outbound`]) and
//! apply the inverse on the receiving side ([`QosModule::inbound`]); a
//! module may also redirect or fan out a message (group multicast) or
//! swallow one (duplicate suppression). Client/server relationships are
//! *bound* to a module; unbound QoS-aware traffic falls back to plain
//! GIOP/IIOP, which is how initial negotiation travels (Fig. 3).

use crate::sync::{LockRank, OrderedRwLock};
use crate::any::Any;
use crate::error::OrbError;
use crate::ior::ObjectKey;
use netsim::NodeId;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Destinations and payloads produced by a module's outbound transform.
pub type Outbound = Vec<(NodeId, Vec<u8>)>;

/// A transport-level QoS module.
///
/// Implementations must be cheap to share (`Send + Sync`); the transport
/// holds them in `Arc`s and calls them from the ORB's send path and
/// frame handler concurrently. `inbound` runs on whichever thread
/// delivered the frame, so it must not block or send.
pub trait QosModule: Send + Sync {
    /// The module's unique name, used for binding and command addressing.
    fn name(&self) -> &str;

    /// The module's *dynamic* interface: handle a command operation.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadOperation`] for unknown commands; module-specific
    /// errors otherwise.
    fn command(&self, op: &str, args: &[Any]) -> Result<Any, OrbError>;

    /// Outbound transform: given the destination and the GIOP bytes,
    /// produce the messages to actually put on the wire.
    ///
    /// The default is the identity transform to the original destination.
    ///
    /// # Errors
    ///
    /// Module-specific; errors abort the send.
    fn outbound(&self, dst: NodeId, bytes: Vec<u8>) -> Result<Outbound, OrbError> {
        Ok(vec![(dst, bytes)])
    }

    /// Inbound transform: invert [`QosModule::outbound`] on received
    /// bytes. Returning `Ok(None)` swallows the message (e.g. duplicate
    /// suppression after a fan-out).
    ///
    /// The input borrows straight out of the wire frame and the default
    /// hands the same slice back as `Cow::Borrowed` — identity modules
    /// (bandwidth policing, multicast receive) never copy the body. A
    /// module that rewrites the payload returns `Cow::Owned`.
    ///
    /// # Errors
    ///
    /// Module-specific; errors drop the message.
    fn inbound<'a>(&self, src: NodeId, bytes: &'a [u8]) -> Result<Option<Cow<'a, [u8]>>, OrbError> {
        let _ = src;
        Ok(Some(Cow::Borrowed(bytes)))
    }
}

/// Constructor for dynamically loadable modules.
///
/// The paper's "common static interface allows the dynamic loading of QoS
/// modules on request": factories are registered under a module-type
/// name, and a `load_module` command instantiates one with a
/// configuration value.
pub type ModuleFactory = Arc<dyn Fn(&Any) -> Result<Arc<dyn QosModule>, OrbError> + Send + Sync>;

/// Identifies one client/server QoS relationship for binding purposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BindingKey {
    /// The remote peer (server node for clients, client node for servers).
    pub peer: Option<NodeId>,
    /// The object the binding concerns.
    pub key: ObjectKey,
}

struct QosBindingState {
    factories: HashMap<String, ModuleFactory>,
    modules: HashMap<String, Arc<dyn QosModule>>,
    bindings: HashMap<BindingKey, String>,
}

/// Memoized results of [`QosTransport::bound_module`], including
/// negative ones (plain-path traffic probes the table on every send).
/// The nested map keys by peer then object-key string so lookups borrow
/// — no `ObjectKey` clone on the hot path.
#[derive(Default)]
struct ResolveCache {
    /// Value of [`QosTransport::epoch`] the entries were computed at;
    /// a mismatch means an admin mutation happened and the cache is
    /// stale wholesale.
    epoch: u64,
    map: HashMap<NodeId, HashMap<String, Option<Arc<dyn QosModule>>>>,
}

/// Monotonic id generator for [`QosTransport::instance`].
static NEXT_TRANSPORT_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// How many `(transport, peer)` pairs a thread's L1 resolve cache may
/// hold before it is wholesale cleared. Bounds memory in test suites
/// that start and drop many ORBs on one thread; real deployments have
/// a handful of transports and peers and never hit the cap.
const L1_PAIR_CAP: usize = 64;

thread_local! {
    /// Per-thread L1 over the shared [`ResolveCache`] (the L2). Keyed by
    /// `(transport instance, peer)`, then object-key string; each entry
    /// remembers the epoch it was computed at so a stale hit is
    /// impossible — an admin mutation bumps the transport epoch and the
    /// comparison below fails. A hit costs two `HashMap` lookups and an
    /// atomic load: no allocation, no rank-ordered lock. This is what
    /// keeps the QoS-over-plain delta flat when several dispatchers
    /// probe the binding table concurrently — the L2 `RwLock` read is
    /// uncontended only in the read-mostly steady state, but its guard
    /// still costs an atomic RMW per call; the L1 costs none.
    #[allow(clippy::type_complexity)]
    static L1_RESOLVE: std::cell::RefCell<
        HashMap<(u64, NodeId), HashMap<String, (u64, Option<Arc<dyn QosModule>>)>>,
    > = std::cell::RefCell::new(HashMap::new());

    /// Per-thread L1 over the `modules` table, keyed by transport
    /// instance then module name, with the same epoch-tagging discipline
    /// as [`L1_RESOLVE`]. The frame handler resolves the module named in
    /// every QoS envelope; without this cache each received QoS packet
    /// pays the rank-ordered admin read lock.
    #[allow(clippy::type_complexity)]
    static L1_MODULES: std::cell::RefCell<
        HashMap<u64, HashMap<String, (u64, Option<Arc<dyn QosModule>>)>>,
    > = std::cell::RefCell::new(HashMap::new());
}

/// Administers loaded QoS modules and their bindings (Fig. 3).
#[derive(Clone)]
pub struct QosTransport {
    state: Arc<OrderedRwLock<QosBindingState>>,
    /// Bumped on every module/binding mutation; readers compare it to
    /// [`ResolveCache::epoch`] to detect staleness without walking the
    /// admin tables.
    epoch: Arc<AtomicU64>,
    cache: Arc<OrderedRwLock<ResolveCache>>,
    /// Process-unique id distinguishing this transport's entries in the
    /// thread-local L1 resolve cache. Clones share it (they share the
    /// same state, so cached resolutions are interchangeable).
    instance: u64,
}

impl fmt::Debug for QosTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read();
        f.debug_struct("QosTransport")
            .field("factories", &st.factories.len())
            .field("modules", &st.modules.keys().collect::<Vec<_>>())
            .field("bindings", &st.bindings.len())
            .finish()
    }
}

impl Default for QosTransport {
    fn default() -> QosTransport {
        QosTransport::new()
    }
}

impl QosTransport {
    /// An empty transport: no factories, no modules, no bindings.
    pub fn new() -> QosTransport {
        QosTransport {
            state: Arc::new(OrderedRwLock::new(LockRank::QosBindingState, QosBindingState {
                factories: HashMap::new(),
                modules: HashMap::new(),
                bindings: HashMap::new(),
            })),
            epoch: Arc::new(AtomicU64::new(0)),
            cache: Arc::new(OrderedRwLock::new(LockRank::ResolveCache, ResolveCache::default())),
            instance: NEXT_TRANSPORT_INSTANCE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Invalidate memoized binding resolutions after an admin mutation.
    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Register a factory for a loadable module type.
    pub fn register_factory(&self, type_name: impl Into<String>, factory: ModuleFactory) {
        self.state.write().factories.insert(type_name.into(), factory);
    }

    /// Instantiate and install a module of registered type `type_name`.
    ///
    /// # Errors
    ///
    /// [`OrbError::ModuleNotFound`] if no factory is registered, or the
    /// factory's own error.
    pub fn load_module(&self, type_name: &str, config: &Any) -> Result<String, OrbError> {
        let factory = self
            .state
            .read()
            .factories
            .get(type_name)
            .cloned()
            .ok_or_else(|| OrbError::ModuleNotFound(format!("no factory for {type_name}")))?;
        let module = factory(config)?;
        let name = module.name().to_string();
        self.state.write().modules.insert(name.clone(), module);
        self.bump_epoch();
        Ok(name)
    }

    /// Install an already constructed module.
    pub fn install(&self, module: Arc<dyn QosModule>) {
        self.state.write().modules.insert(module.name().to_string(), module);
        self.bump_epoch();
    }

    /// Remove a module and all bindings that point at it.
    ///
    /// # Errors
    ///
    /// [`OrbError::ModuleNotFound`] if no such module is loaded.
    pub fn unload_module(&self, name: &str) -> Result<(), OrbError> {
        let mut st = self.state.write();
        if st.modules.remove(name).is_none() {
            return Err(OrbError::ModuleNotFound(name.to_string()));
        }
        st.bindings.retain(|_, m| m != name);
        drop(st);
        self.bump_epoch();
        Ok(())
    }

    /// Look up a loaded module by name.
    ///
    /// Called per received QoS packet, so resolutions (including
    /// negative ones) go through an epoch-tagged thread-local cache: a
    /// hit costs two map probes and an atomic load — no allocation, no
    /// rank-ordered lock.
    pub fn module(&self, name: &str) -> Option<Arc<dyn QosModule>> {
        let epoch = self.epoch.load(Ordering::Acquire);
        let l1_hit = L1_MODULES.with(|l1| {
            let l1 = l1.borrow();
            l1.get(&self.instance)
                .and_then(|m| m.get(name))
                .and_then(|(e, hit)| (*e == epoch).then(|| hit.clone()))
        });
        if let Some(hit) = l1_hit {
            return hit;
        }
        let resolved = self.state.read().modules.get(name).cloned();
        // Tagged with the pre-lookup epoch: if a mutation raced in
        // between, the tag is already stale and the entry can never hit.
        L1_MODULES.with(|l1| {
            let mut l1 = l1.borrow_mut();
            if l1.len() >= L1_PAIR_CAP && !l1.contains_key(&self.instance) {
                l1.clear();
            }
            l1.entry(self.instance)
                .or_default()
                .insert(name.to_string(), (epoch, resolved.clone()));
        });
        resolved
    }

    /// Names of all loaded modules, sorted.
    pub fn loaded_modules(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.read().modules.keys().cloned().collect();
        names.sort();
        names
    }

    /// Bind a client/server relationship to a module.
    ///
    /// # Errors
    ///
    /// [`OrbError::ModuleNotFound`] if the module is not loaded.
    pub fn bind(&self, binding: BindingKey, module: &str) -> Result<(), OrbError> {
        let mut st = self.state.write();
        if !st.modules.contains_key(module) {
            return Err(OrbError::ModuleNotFound(module.to_string()));
        }
        st.bindings.insert(binding, module.to_string());
        drop(st);
        self.bump_epoch();
        Ok(())
    }

    /// Remove a binding, returning the module it pointed at.
    pub fn unbind(&self, binding: &BindingKey) -> Option<String> {
        let removed = self.state.write().bindings.remove(binding);
        self.bump_epoch();
        removed
    }

    /// The module bound to a relationship, trying the exact
    /// `(peer, key)` binding first and falling back to a wildcard
    /// `(None, key)` binding. `None` means: use plain GIOP/IIOP.
    ///
    /// Every send probes this, so resolutions (including misses) are
    /// memoized per `(peer, key)` and invalidated wholesale whenever a
    /// module or binding changes.
    pub fn bound_module(&self, peer: NodeId, key: &ObjectKey) -> Option<Arc<dyn QosModule>> {
        let epoch = self.epoch.load(Ordering::Acquire);
        // L1: thread-local, epoch-tagged. A hit touches no lock and
        // allocates nothing (the inner map is probed by `&str`).
        let l1_hit = L1_RESOLVE.with(|l1| {
            let l1 = l1.borrow();
            l1.get(&(self.instance, peer))
                .and_then(|m| m.get(key.0.as_str()))
                .and_then(|(e, hit)| (*e == epoch).then(|| hit.clone()))
        });
        if let Some(hit) = l1_hit {
            return hit;
        }
        // L2: shared, rank-ordered. Serves warm-up on threads that have
        // not resolved this pair yet without re-walking the admin tables.
        let l2_hit = {
            let cache = self.cache.read();
            if cache.epoch == epoch {
                cache.map.get(&peer).and_then(|m| m.get(key.0.as_str())).cloned()
            } else {
                None
            }
        };
        let resolved = match l2_hit {
            Some(hit) => hit,
            None => {
                let resolved = self.resolve(peer, key);
                // Only memoize if no admin mutation raced with the
                // resolution; a stale entry written under an old epoch is
                // never served (the epoch check above fails) and is
                // cleared on the next miss.
                if self.epoch.load(Ordering::Acquire) == epoch {
                    let mut cache = self.cache.write();
                    if cache.epoch != epoch {
                        cache.map.clear();
                        cache.epoch = epoch;
                    }
                    cache.map.entry(peer).or_default().insert(key.0.clone(), resolved.clone());
                }
                resolved
            }
        };
        // Refill the L1 tagged with the epoch loaded *before* the lookup:
        // if an admin mutation raced in, the entry's tag is already stale
        // and the comparison above will never serve it.
        L1_RESOLVE.with(|l1| {
            let mut l1 = l1.borrow_mut();
            if l1.len() >= L1_PAIR_CAP && !l1.contains_key(&(self.instance, peer)) {
                l1.clear();
            }
            l1.entry((self.instance, peer))
                .or_default()
                .insert(key.0.clone(), (epoch, resolved.clone()));
        });
        resolved
    }

    fn resolve(&self, peer: NodeId, key: &ObjectKey) -> Option<Arc<dyn QosModule>> {
        let st = self.state.read();
        let name = st
            .bindings
            .get(&BindingKey { peer: Some(peer), key: key.clone() })
            .or_else(|| st.bindings.get(&BindingKey { peer: None, key: key.clone() }))?;
        st.modules.get(name).cloned()
    }

    /// The transport's own command interface (the "Transport-Command"
    /// branch of Fig. 3): `load_module(type, config)`,
    /// `unload_module(name)`, `list_modules()`, `bind(key, module)`,
    /// `unbind(key)`.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadOperation`] for unknown commands,
    /// [`OrbError::BadParam`] for malformed arguments, and the underlying
    /// operation's error otherwise.
    pub fn command(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "load_module" => {
                let type_name = args
                    .first()
                    .and_then(Any::as_str)
                    .ok_or_else(|| OrbError::BadParam("load_module(type, config)".to_string()))?;
                let config = args.get(1).cloned().unwrap_or(Any::Void);
                let name = self.load_module(type_name, &config)?;
                Ok(Any::Str(name))
            }
            "unload_module" => {
                let name = args
                    .first()
                    .and_then(Any::as_str)
                    .ok_or_else(|| OrbError::BadParam("unload_module(name)".to_string()))?;
                self.unload_module(name)?;
                Ok(Any::Void)
            }
            "list_modules" => Ok(Any::Sequence(
                self.loaded_modules().into_iter().map(Any::Str).collect(),
            )),
            "bind" => {
                let key = args
                    .first()
                    .and_then(Any::as_str)
                    .ok_or_else(|| OrbError::BadParam("bind(object_key, module)".to_string()))?;
                let module = args
                    .get(1)
                    .and_then(Any::as_str)
                    .ok_or_else(|| OrbError::BadParam("bind(object_key, module)".to_string()))?;
                self.bind(BindingKey { peer: None, key: ObjectKey(key.to_string()) }, module)?;
                Ok(Any::Void)
            }
            "unbind" => {
                let key = args
                    .first()
                    .and_then(Any::as_str)
                    .ok_or_else(|| OrbError::BadParam("unbind(object_key)".to_string()))?;
                let removed = self.unbind(&BindingKey { peer: None, key: ObjectKey(key.to_string()) });
                Ok(Any::Bool(removed.is_some()))
            }
            other => Err(OrbError::BadOperation(format!("transport command {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A module that XORs every byte — enough to verify both transforms run.
    struct XorModule {
        name: String,
        key: u8,
    }

    impl QosModule for XorModule {
        fn name(&self) -> &str {
            &self.name
        }
        fn command(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "key" => Ok(Any::Octet(self.key)),
                other => Err(OrbError::BadOperation(other.to_string())),
            }
        }
        fn outbound(&self, dst: NodeId, bytes: Vec<u8>) -> Result<Outbound, OrbError> {
            Ok(vec![(dst, bytes.iter().map(|b| b ^ self.key).collect())])
        }
        fn inbound<'a>(
            &self,
            _src: NodeId,
            bytes: &'a [u8],
        ) -> Result<Option<Cow<'a, [u8]>>, OrbError> {
            Ok(Some(Cow::Owned(bytes.iter().map(|b| b ^ self.key).collect())))
        }
    }

    fn xor_factory() -> ModuleFactory {
        Arc::new(|config: &Any| {
            let key = config.field("key").and_then(Any::as_i64).unwrap_or(0x55) as u8;
            Ok(Arc::new(XorModule { name: "xor".to_string(), key }) as Arc<dyn QosModule>)
        })
    }

    #[test]
    fn load_bind_and_transform() {
        let t = QosTransport::new();
        t.register_factory("xor", xor_factory());
        let name = t.load_module("xor", &Any::Void).unwrap();
        assert_eq!(name, "xor");
        assert_eq!(t.loaded_modules(), vec!["xor"]);

        let key = ObjectKey("obj".into());
        t.bind(BindingKey { peer: None, key: key.clone() }, "xor").unwrap();
        let m = t.bound_module(NodeId(9), &key).expect("wildcard binding matches any peer");
        let out = m.outbound(NodeId(1), vec![0x00, 0xFF]).unwrap();
        assert_eq!(out, vec![(NodeId(1), vec![0x55, 0xAA])]);
        let back = m.inbound(NodeId(1), &out[0].1).unwrap().unwrap();
        assert_eq!(back, vec![0x00, 0xFF]);
    }

    #[test]
    fn bound_module_cache_tracks_admin_mutations() {
        let t = QosTransport::new();
        t.install(Arc::new(XorModule { name: "a".into(), key: 1 }));
        t.install(Arc::new(XorModule { name: "b".into(), key: 2 }));
        let key = ObjectKey("o".into());
        // A negative resolution is memoized…
        assert!(t.bound_module(NodeId(3), &key).is_none());
        assert!(t.bound_module(NodeId(3), &key).is_none());
        // …but a later bind must invalidate it.
        t.bind(BindingKey { peer: None, key: key.clone() }, "a").unwrap();
        assert_eq!(t.bound_module(NodeId(3), &key).unwrap().name(), "a");
        // Repeated hits come from the cache and still agree.
        for _ in 0..3 {
            assert_eq!(t.bound_module(NodeId(3), &key).unwrap().name(), "a");
        }
        // Rebinding and unbinding are observed immediately.
        t.bind(BindingKey { peer: None, key: key.clone() }, "b").unwrap();
        assert_eq!(t.bound_module(NodeId(3), &key).unwrap().name(), "b");
        t.unbind(&BindingKey { peer: None, key: key.clone() });
        assert!(t.bound_module(NodeId(3), &key).is_none());
        // Unloading a module kills resolutions that pointed at it.
        t.bind(BindingKey { peer: Some(NodeId(7)), key: key.clone() }, "a").unwrap();
        assert_eq!(t.bound_module(NodeId(7), &key).unwrap().name(), "a");
        t.unload_module("a").unwrap();
        assert!(t.bound_module(NodeId(7), &key).is_none());
    }

    #[test]
    fn thread_local_cache_isolates_transport_instances() {
        // Two transports, same peer and key, different bindings: the
        // thread-local L1 must key on the transport instance, not just
        // (peer, key), or the second lookup here would serve the first
        // transport's memoized answer.
        let t1 = QosTransport::new();
        let t2 = QosTransport::new();
        t1.install(Arc::new(XorModule { name: "a".into(), key: 1 }));
        t2.install(Arc::new(XorModule { name: "b".into(), key: 2 }));
        let key = ObjectKey("o".into());
        t1.bind(BindingKey { peer: None, key: key.clone() }, "a").unwrap();
        t2.bind(BindingKey { peer: None, key: key.clone() }, "b").unwrap();
        for _ in 0..3 {
            assert_eq!(t1.bound_module(NodeId(1), &key).unwrap().name(), "a");
            assert_eq!(t2.bound_module(NodeId(1), &key).unwrap().name(), "b");
        }
        // A clone shares the instance id — its hits are interchangeable,
        // and a mutation through the clone invalidates the original's L1.
        let t1b = t1.clone();
        assert_eq!(t1b.bound_module(NodeId(1), &key).unwrap().name(), "a");
        t1b.install(Arc::new(XorModule { name: "b".into(), key: 2 }));
        t1b.bind(BindingKey { peer: None, key: key.clone() }, "b").unwrap();
        assert_eq!(t1.bound_module(NodeId(1), &key).unwrap().name(), "b");
    }

    #[test]
    fn peer_binding_beats_wildcard() {
        let t = QosTransport::new();
        t.install(Arc::new(XorModule { name: "a".into(), key: 1 }));
        t.install(Arc::new(XorModule { name: "b".into(), key: 2 }));
        let key = ObjectKey("o".into());
        t.bind(BindingKey { peer: None, key: key.clone() }, "a").unwrap();
        t.bind(BindingKey { peer: Some(NodeId(5)), key: key.clone() }, "b").unwrap();
        assert_eq!(t.bound_module(NodeId(5), &key).unwrap().name(), "b");
        assert_eq!(t.bound_module(NodeId(6), &key).unwrap().name(), "a");
    }

    #[test]
    fn unload_removes_bindings() {
        let t = QosTransport::new();
        t.install(Arc::new(XorModule { name: "x".into(), key: 0 }));
        let key = ObjectKey("o".into());
        t.bind(BindingKey { peer: None, key: key.clone() }, "x").unwrap();
        t.unload_module("x").unwrap();
        assert!(t.bound_module(NodeId(0), &key).is_none());
        assert!(t.unload_module("x").is_err());
    }

    #[test]
    fn bind_to_missing_module_fails() {
        let t = QosTransport::new();
        let err = t.bind(BindingKey { peer: None, key: ObjectKey("o".into()) }, "ghost");
        assert!(matches!(err, Err(OrbError::ModuleNotFound(_))));
    }

    #[test]
    fn transport_command_interface() {
        let t = QosTransport::new();
        t.register_factory("xor", xor_factory());
        let cfg = Any::Struct("Cfg".into(), vec![("key".into(), Any::Octet(7))]);
        let name = t.command("load_module", &[Any::from("xor"), cfg]).unwrap();
        assert_eq!(name, Any::Str("xor".into()));
        assert_eq!(
            t.command("list_modules", &[]).unwrap(),
            Any::Sequence(vec![Any::Str("xor".into())])
        );
        t.command("bind", &[Any::from("obj"), Any::from("xor")]).unwrap();
        assert!(t.bound_module(NodeId(0), &ObjectKey("obj".into())).is_some());
        assert_eq!(t.command("unbind", &[Any::from("obj")]).unwrap(), Any::Bool(true));
        assert_eq!(t.command("unbind", &[Any::from("obj")]).unwrap(), Any::Bool(false));
        t.command("unload_module", &[Any::from("xor")]).unwrap();
        assert!(t.command("load_module", &[Any::from("ghost")]).is_err());
        assert!(t.command("frob", &[]).is_err());
    }

    #[test]
    fn module_dynamic_interface_via_command() {
        let t = QosTransport::new();
        t.install(Arc::new(XorModule { name: "x".into(), key: 9 }));
        let m = t.module("x").unwrap();
        assert_eq!(m.command("key", &[]).unwrap(), Any::Octet(9));
        assert!(m.command("nope", &[]).is_err());
    }
}
