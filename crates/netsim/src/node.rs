//! The per-node handle returned by [`crate::Network::attach`].

use crate::bytes::Bytes;
use crate::channel::{Receiver, RecvError, Sink};
use crate::message::{Message, NodeId};
use crate::network::{NetworkInner, SendError};
use crate::time::{VirtualClock, VirtualInstant};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A node's endpoint on the simulated network.
///
/// Cheap to clone; clones share the same inbox and virtual clock, which
/// lets a node run a receive loop on one thread while sending from others.
#[derive(Clone)]
pub struct NetHandle {
    pub(crate) id: NodeId,
    pub(crate) name: Arc<str>,
    pub(crate) inbox: Receiver<Message>,
    pub(crate) clock: VirtualClock,
    pub(crate) net: Arc<NetworkInner>,
}

impl fmt::Debug for NetHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetHandle")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("vt", &self.clock.now())
            .finish()
    }
}

impl NetHandle {
    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The human-readable name given at attach time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This node's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Current virtual time at this node.
    pub fn now(&self) -> VirtualInstant {
        self.clock.now()
    }

    /// Send `payload` to `dst`.
    ///
    /// Delivery is unreliable in exactly the ways the network is configured
    /// to be: messages eaten by the loss model or by faults are *not*
    /// errors (they are recorded in [`crate::NetworkStats`]), mirroring a
    /// datagram network where the sender cannot observe the drop.
    ///
    /// # Errors
    ///
    /// Returns an error if `dst` was never attached or if this node has
    /// been crashed by fault injection.
    pub fn send(&self, dst: NodeId, payload: impl Into<Bytes>) -> Result<(), SendError> {
        self.net.send(self.id, dst, payload.into(), &self.clock)
    }

    /// Wake this node's receive loop: enqueue an **empty** local message
    /// that bypasses link models, loss, and fault injection (it works
    /// even while the node is crashed). Receivers blocked in
    /// [`NetHandle::recv`] observe it like any other message; protocol
    /// layers treat an empty payload as a pure wakeup. This is the
    /// event-driven alternative to polling `recv_timeout` in a loop.
    pub fn poke(&self) {
        self.net.poke(self.id, &self.clock);
    }

    /// Push every message for this node into `sink` instead of the inbox
    /// queue. The sink runs on the *sending* thread, after the network
    /// has made every per-message decision (faults, loss, link `seq`,
    /// timing) and released its lock; this node's virtual clock advances
    /// to the message's delivery time just before the sink sees it.
    /// Messages already queued are handed over first, in order. The sink
    /// must return promptly and must not send (it may run while another
    /// node's send is in progress). A handle installs at most one sink;
    /// later calls return `false`. Afterwards [`NetHandle::recv`] and
    /// friends report [`RecvError::Disconnected`].
    pub fn set_sink(&self, sink: Sink<Message>) -> bool {
        let clock = self.clock.clone();
        self.inbox.divert(Box::new(move |msg: Message| {
            clock.advance_to(msg.deliver_vt);
            sink(msg);
        }))
    }

    /// Block until a message arrives. Advances the virtual clock to the
    /// message's delivery time.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Disconnected`] if the network is gone.
    pub fn recv(&self) -> Result<Message, RecvError> {
        let msg = self.inbox.recv()?;
        self.clock.advance_to(msg.deliver_vt);
        Ok(msg)
    }

    /// Receive without blocking.
    ///
    /// # Errors
    ///
    /// [`RecvError::Empty`] if no message is queued,
    /// [`RecvError::Disconnected`] if the network is gone.
    pub fn try_recv(&self) -> Result<Message, RecvError> {
        let msg = self.inbox.try_recv()?;
        self.clock.advance_to(msg.deliver_vt);
        Ok(msg)
    }

    /// Block up to a wall-clock `timeout` for a message.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] on timeout, [`RecvError::Disconnected`] if
    /// the network is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        let msg = self.inbox.recv_timeout(timeout)?;
        self.clock.advance_to(msg.deliver_vt);
        Ok(msg)
    }

    /// Number of messages currently queued in the inbox.
    pub fn pending(&self) -> usize {
        self.inbox.len()
    }
}
