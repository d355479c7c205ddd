//! An unbounded multi-producer, multi-consumer FIFO queue.
//!
//! The node inboxes here, the ORB's dispatch queues and the socket
//! transport's inbox all run on it. Inboxes may be received from by
//! several threads at once (a receive loop plus any thread blocked in a
//! shutdown wake-up), which is why this is not `std::sync::mpsc`.
//!
//! Two properties matter on the ORB's hot path:
//!
//! * **Wake only sleepers.** Receivers count themselves under the queue
//!   lock before they park, and a send notifies only when that count is
//!   non-zero. std's futex condvar makes a `futex_wake` syscall on every
//!   notify, waiter or not, so a busy consumer costs its producers
//!   nothing.
//! * **Diversion.** [`Receiver::divert`] turns the queue into a push
//!   callback: from then on every send runs the callback on the sending
//!   thread instead of queueing. This is how a netsim node or a socket
//!   inbox hands frames straight to the ORB without a relay thread.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Error of the receive operations, here and on a [`crate::NetHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message is currently queued (`try_recv` only).
    Empty,
    /// No message arrived within the wall-clock timeout.
    Timeout,
    /// Every sender is gone (or the queue was diverted); no further
    /// messages can arrive.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Empty => write!(f, "no message queued"),
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "network disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// The callback a diverted queue pushes into ([`Receiver::divert`]).
pub type Sink<T> = Box<dyn Fn(T) + Send + Sync>;

struct Queue<T> {
    items: VecDeque<T>,
    /// Receivers parked on `ready` right now.
    sleepers: usize,
}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// Set once by [`Receiver::divert`], under the queue lock.
    sink: OnceLock<Sink<T>>,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A new unbounded queue, as its sending and receiving halves. Both
/// halves clone; the queue disconnects when the last of either is gone.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue { items: VecDeque::new(), sleepers: 0 }),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        sink: OnceLock::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// The sending half of [`unbounded`].
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueue `value`, waking one parked receiver if there is one. On a
    /// diverted queue, run the sink on this thread instead. Hands the
    /// value back if every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        if let Some(sink) = self.shared.sink.get() {
            sink(value);
            return Ok(());
        }
        if self.shared.receivers.load(Ordering::SeqCst) == 0 {
            return Err(value);
        }
        let mut q = self.shared.lock();
        // `divert` drains and installs under this lock: re-check, so a
        // value can never land in a queue nobody will read again.
        if let Some(sink) = self.shared.sink.get() {
            drop(q);
            sink(value);
            return Ok(());
        }
        q.items.push_back(value);
        let wake = q.sleepers > 0;
        drop(q);
        if wake {
            self.shared.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Take the lock so a receiver between its disconnect check
            // and its park cannot miss this wakeup.
            drop(self.shared.lock());
            self.shared.ready.notify_all();
        }
    }
}

/// The receiving half of [`unbounded`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    fn disconnected(&self) -> bool {
        self.shared.senders.load(Ordering::SeqCst) == 0 || self.shared.sink.get().is_some()
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.shared.lock().items.len()
    }

    /// Whether no value is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Turn the queue into a push callback: values already queued are
    /// handed to `sink` in order, then every later send runs `sink` on
    /// the sending thread. Order is kept across the switch — the drain
    /// and the install happen under the queue lock, which senders
    /// re-check under. Receivers parked on the queue are woken and see
    /// [`RecvError::Disconnected`]. A queue diverts at most once; later
    /// calls return `false` and drop their sink.
    pub fn divert(&self, sink: Sink<T>) -> bool {
        let mut q = self.shared.lock();
        if self.shared.sink.get().is_some() {
            return false;
        }
        while let Some(v) = q.items.pop_front() {
            sink(v);
        }
        let installed = self.shared.sink.set(sink).is_ok();
        drop(q);
        self.shared.ready.notify_all();
        installed
    }

    /// Block until a value arrives.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] once the queue is empty and every
    /// sender is gone, or once the queue is diverted.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut q = self.shared.lock();
        loop {
            if let Some(v) = q.items.pop_front() {
                return Ok(v);
            }
            if self.disconnected() {
                return Err(RecvError::Disconnected);
            }
            q.sleepers += 1;
            q = self.shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            q.sleepers -= 1;
        }
    }

    /// Take a value without blocking.
    ///
    /// # Errors
    ///
    /// [`RecvError::Empty`] if none is queued, [`RecvError::Disconnected`]
    /// if none ever will be.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        match self.shared.lock().items.pop_front() {
            Some(v) => Ok(v),
            None if self.disconnected() => Err(RecvError::Disconnected),
            None => Err(RecvError::Empty),
        }
    }

    /// Block up to `timeout` for a value.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] on timeout, [`RecvError::Disconnected`] if
    /// no value can arrive any more.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut q = self.shared.lock();
        loop {
            if let Some(v) = q.items.pop_front() {
                return Ok(v);
            }
            if self.disconnected() {
                return Err(RecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            q.sleepers += 1;
            q = self
                .shared
                .ready
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            q.sleepers -= 1;
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.clone().send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(RecvError::Empty));
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvError::Timeout));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(3), Err(3));
    }

    #[test]
    fn every_value_reaches_exactly_one_of_many_receivers() {
        let (tx, rx) = unbounded::<u32>();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for v in 0..300 {
            tx.send(v).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<_>>());
    }

    /// Notifying only counted sleepers must not lose a wakeup: three
    /// receivers (two blocking, one polling with short timeouts, so they
    /// park and unpark constantly) against two senders that alternate
    /// bursts with pauses. Every value arrives exactly once and no
    /// receiver hangs.
    #[test]
    fn sleeper_counted_wakeups_lose_nothing_under_bursts() {
        const SENDERS: u32 = 2;
        const PER_SENDER: u32 = 4_000;
        let (tx, rx) = unbounded::<u32>();
        let receivers: Vec<_> = (0..3)
            .map(|r| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let v = if r == 2 {
                            match rx.recv_timeout(Duration::from_micros(50)) {
                                Err(RecvError::Timeout) => continue,
                                other => other,
                            }
                        } else {
                            rx.recv()
                        };
                        match v {
                            Ok(v) => got.push(v),
                            Err(_) => return got,
                        }
                    }
                })
            })
            .collect();
        drop(rx);
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut rng = crate::Rng::seed_from_u64(u64::from(s) + 1);
                    let mut v = s * PER_SENDER;
                    let end = v + PER_SENDER;
                    while v < end {
                        let burst = 1 + (rng.next_u64() % 64) as u32;
                        for _ in 0..burst.min(end - v) {
                            tx.send(v).unwrap();
                            v += 1;
                        }
                        // A pause long enough for receivers to park.
                        if rng.next_u64().is_multiple_of(4) {
                            std::thread::sleep(Duration::from_micros(100));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = receivers.into_iter().flat_map(|r| r.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all.len(), (SENDERS * PER_SENDER) as usize, "a value was lost or duplicated");
        assert_eq!(all, (0..SENDERS * PER_SENDER).collect::<Vec<_>>());
    }

    #[test]
    fn divert_hands_over_queued_values_in_order_then_pushes() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        assert!(rx.divert(Box::new(move |v| sink_seen.lock().unwrap().push(v))));
        tx.send(3).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(rx.try_recv(), Err(RecvError::Disconnected), "a diverted queue is not read");
        assert!(!rx.divert(Box::new(|_| {})), "a queue diverts once");
    }

    #[test]
    fn divert_wakes_a_parked_receiver() {
        let (tx, rx) = unbounded::<u32>();
        let parked = {
            let rx = rx.clone();
            std::thread::spawn(move || rx.recv())
        };
        std::thread::sleep(Duration::from_millis(20));
        rx.divert(Box::new(|_| {}));
        assert_eq!(parked.join().unwrap(), Err(RecvError::Disconnected));
        drop(tx);
    }
}
