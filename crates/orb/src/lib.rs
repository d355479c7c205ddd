//! A CORBA-like object-oriented middleware, built from scratch.
//!
//! This crate is the middleware substrate of MAQS-RS, reproducing the
//! runtime structure of Fig. 1 of Becker & Geihs (ICDCS 2001): client →
//! stub → ORB → (network) → ORB → object adapter → skeleton → servant. It
//! provides everything the paper assumes from "an object-oriented
//! middleware like CORBA":
//!
//! * **CDR marshalling** ([`cdr`]) — aligned little-endian encoding of
//!   primitives, strings and sequences.
//! * **TypeCode / Any** ([`any`]) — self-describing values, the foundation
//!   of the dynamic invocation interface.
//! * **Interoperable object references** ([`ior`]) — object identity plus
//!   *QoS tags*, the "distinct tag in the IOR" of Fig. 3 that marks a
//!   reference as QoS-aware.
//! * **GIOP-like protocol** ([`giop`]) — request/reply messages, including
//!   the paper's dual use of a request as *service-request* or *command*.
//! * **Object adapter** ([`adapter`]) — servant registry and dispatch.
//! * **The ORB core** ([`core`]) — invocation interface implementing the
//!   Fig. 3 decision tree: untagged requests take the plain GIOP path,
//!   QoS-aware requests go through the QoS transport, commands are routed
//!   to the QoS transport or a named module.
//! * **QoS binding layer** ([`qos_binding`]) — dynamically loadable QoS
//!   modules with a common static (pseudo-object) interface and a
//!   module-specific dynamic interface (via DII), plus the binding table
//!   routing traffic through them.
//! * **Wire transports** ([`wire`]) — the pluggable byte-moving layer:
//!   the deterministic simulator wrapper, real TCP, and Unix-domain
//!   sockets behind one [`wire::WireTransport`] trait.
//! * **DII** ([`dii`]) — dynamic request construction.
//! * **Pseudo objects** ([`pseudo`]) — locally implemented objects, used
//!   for the static interfaces of QoS modules.
//! * **Tracing** ([`trace`]) — per-request trace contexts carried in a
//!   GIOP service-context slot, giving a per-layer cost breakdown.
//! * **Metrics** ([`metrics`]) — counters and latency histograms recorded
//!   at every layer of the request path, with mergeable/delta snapshots
//!   for fleet aggregation.
//! * **Coarse clock** ([`clock`]) — a ticker-amortized monotonic clock
//!   for timestamping paths too hot for per-call `Instant::now`.
//! * **Flight recorder** ([`flight`]) — an always-on, bounded ring buffer
//!   of structured lifecycle events, the middleware's black box.
//! * **Exporters** ([`export`]) — Prometheus text exposition, Chrome
//!   `trace_event` JSON, and JSONL egress for the observability plane.
//!
//! The network underneath is [`netsim`]; see that crate for link and fault
//! models.
//!
//! # Example
//!
//! ```
//! use netsim::Network;
//! use orb::prelude::*;
//!
//! // A trivial servant implementing one operation.
//! struct Echo;
//! impl Servant for Echo {
//!     fn interface_id(&self) -> &str { "IDL:Echo:1.0" }
//!     fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
//!         match op {
//!             "echo" => Ok(args[0].clone()),
//!             _ => Err(OrbError::BadOperation(op.to_string())),
//!         }
//!     }
//! }
//!
//! let net = Network::new(1);
//! let server = Orb::start(&net, "server");
//! let client = Orb::start(&net, "client");
//! let ior = server.activate("echo-1", Box::new(Echo));
//!
//! let reply = client.invoke(&ior, "echo", &[Any::from("hi")]).unwrap();
//! assert_eq!(reply.as_str(), Some("hi"));
//! # server.shutdown(); client.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod any;
pub mod cdr;
pub mod clock;
pub mod core;
pub mod dii;
pub mod error;
pub mod export;
pub mod flight;
pub mod giop;
pub mod ior;
pub mod metrics;
pub mod pseudo;
pub mod qos_binding;
pub mod retry;
pub mod sync;
pub mod trace;
pub mod wire;

/// Convenient re-exports of the types used by almost every ORB client.
pub mod prelude {
    pub use crate::adapter::Servant;
    pub use crate::any::{Any, TypeCode};
    pub use crate::core::Orb;
    pub use crate::error::OrbError;
    pub use crate::ior::Ior;
}

pub use crate::adapter::{ObjectAdapter, Servant};
pub use crate::any::{Any, TypeCode};
pub use crate::core::{Collected, DispatchRouting, Orb, OrbConfig, PendingCall};
pub use crate::error::OrbError;
pub use crate::flight::{FlightDump, FlightEvent, FlightEventKind, FlightRecorder};
pub use crate::ior::{Ior, ObjectKey};
pub use crate::metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot, QuantileEstimate};
pub use crate::retry::RetryPolicy;
pub use crate::sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedRwLock};
pub use crate::qos_binding::{ModuleFactory, QosModule, QosTransport};
pub use crate::trace::{Span, TraceContext};
pub use crate::wire::fault::{FaultyTransport, WireFault, WireFaultScript};
pub use crate::wire::{
    BackpressurePolicy, ConnHealth, Endpoint, NetSimTransport, TcpTransport, UdsTransport,
    WireConfig, WireError, WireEvent, WireFrame, WireObserver, WireTransport,
};
