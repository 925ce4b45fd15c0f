//! Request and response types of the serving layer, and the one-shot slot
//! a worker answers each admitted request through.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::Instant;

/// One scoring request: the features of a single (user, item) candidate in
/// one domain. This is the wire unit clients submit; a scoring worker groups
/// the same-domain requests of one pickup into a single forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Domain id (routes to the materialized Θ_d).
    pub domain: usize,
    /// Global user id.
    pub user: u32,
    /// Global item id.
    pub item: u32,
    /// User-group side feature.
    pub user_group: u32,
    /// Item-category side feature.
    pub item_cat: u32,
    /// Dense user features; required iff the snapshot's model embeds them.
    pub dense_user: Option<Vec<f32>>,
    /// Dense item features; required iff the snapshot's model embeds them.
    pub dense_item: Option<Vec<f32>>,
}

impl ScoreRequest {
    /// A sparse-only request (no dense side features).
    pub fn new(domain: usize, user: u32, item: u32, user_group: u32, item_cat: u32) -> Self {
        ScoreRequest {
            domain,
            user,
            item,
            user_group,
            item_cat,
            dense_user: None,
            dense_item: None,
        }
    }
}

/// A successfully scored request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id [`Server::submit`](crate::Server::submit) returned.
    pub id: u64,
    /// Predicted click probability.
    pub score: f32,
    /// Version of the snapshot that produced the score — under a hot swap,
    /// every response is attributable to exactly one published snapshot.
    pub snapshot_version: u64,
}

/// The terminal outcome of one admitted request. Every admitted request
/// receives exactly one `ServeResult`; rejected submissions (queue full)
/// fail synchronously at [`Server::submit`](crate::Server::submit) instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResult {
    /// Scored before its deadline.
    Scored(Response),
    /// Deadline passed before the request's forward pass started.
    DeadlineExceeded {
        /// The request's id.
        id: u64,
    },
    /// The request failed validation against the current snapshot.
    Invalid {
        /// The request's id.
        id: u64,
        /// What was wrong.
        error: String,
    },
}

impl ServeResult {
    /// The request id this result belongs to.
    pub fn id(&self) -> u64 {
        match self {
            ServeResult::Scored(r) => r.id,
            ServeResult::DeadlineExceeded { id } | ServeResult::Invalid { id, .. } => *id,
        }
    }
}

/// The service class of a request: which admission queue it competes in
/// and how aggressively overload sheds it.
///
/// Classes partition the admission bound: each has its own bounded depth,
/// so a flood of `Bulk` traffic can never starve `Interactive` admission —
/// the bulk queue fills and sheds (typed, per class) while interactive
/// requests keep flowing into their own budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SloClass {
    /// User-facing traffic: tight latency target, scored ahead of bulk.
    #[default]
    Interactive,
    /// Offline/batch rescoring traffic: tolerant of queueing, first to
    /// shed under overload.
    Bulk,
}

impl SloClass {
    /// Index into per-class arrays (`Interactive = 0`, `Bulk = 1`).
    pub const COUNT: usize = 2;

    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Bulk => 1,
        }
    }

    /// Stable lower-case label, used in per-class metric names.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Bulk => "bulk",
        }
    }

    /// Both classes, in index order.
    pub const ALL: [SloClass; 2] = [SloClass::Interactive, SloClass::Bulk];
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded request queue is at capacity. Explicit rejection, never
    /// blocking: the caller sheds load or retries with backoff.
    QueueFull,
    /// The request's service class is at its own bounded depth: the
    /// request was shed by class under overload. Other classes may still
    /// be admitting.
    ShedOverload(SloClass),
    /// The server is shutting down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue full"),
            SubmitError::ShedOverload(c) => {
                write!(f, "{} queue overloaded, request shed", c.label())
            }
            SubmitError::Closed => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Internal envelope: a request plus its routing/accounting state.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub id: u64,
    pub req: ScoreRequest,
    pub class: SloClass,
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    pub reply: Reply,
}

/// Where one request's result travels from its worker to its client.
#[derive(Debug)]
enum Slot {
    /// No result yet and nobody waiting.
    Empty,
    /// No result yet; this thread is parked in [`Pending::wait`].
    Waiting(Thread),
    /// The result, not yet taken.
    Ready(ServeResult),
    /// The client took the result.
    Taken,
    /// The worker's end was dropped without a result.
    HungUp,
}

/// A one-shot reply slot for request `id`: the worker's [`Reply`] and the
/// client's [`Pending`]. One allocation, one uncontended lock per side,
/// and a wake-up only when the client is already parked.
pub(crate) fn reply_slot(id: u64) -> (Reply, Pending) {
    let slot = Arc::new(Mutex::new(Slot::Empty));
    (Reply(Some(Arc::clone(&slot))), Pending { id, slot, not_sync: PhantomData })
}

/// The worker's end of a reply slot. Dropping it unsent hangs the slot up,
/// so a waiting client panics instead of sleeping forever.
#[derive(Debug)]
pub(crate) struct Reply(Option<Arc<Mutex<Slot>>>);

impl Reply {
    /// Delivers `result`, waking the client if it is parked on it. Only
    /// the first call delivers; a client that already hung up (dropped its
    /// `Pending`) is ignored.
    pub fn send(&mut self, result: ServeResult) {
        if let Some(slot) = self.0.take() {
            settle(&slot, Slot::Ready(result));
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            settle(&slot, Slot::HungUp);
        }
    }
}

/// The worker's one transition, to `Ready` or `HungUp`: set it under the
/// lock, then unpark the client only if one is parked.
fn settle(slot: &Mutex<Slot>, end: Slot) {
    let previous = std::mem::replace(&mut *lock(slot), end);
    if let Slot::Waiting(client) = previous {
        client.unpark();
    }
}

/// Handle for one admitted request; resolves to its [`ServeResult`].
///
/// The result is delivered once, through a one-shot slot the worker fills.
/// A `Pending` is `Send` but not `Sync`: it may be moved to, and waited on
/// from, any thread — not only the one that submitted it — but by one
/// thread at a time, since a slot wakes exactly one parked waiter.
pub struct Pending {
    id: u64,
    slot: Arc<Mutex<Slot>>,
    not_sync: PhantomData<std::cell::Cell<()>>,
}

impl Pending {
    /// The request id (matches the eventual result's id).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the result arrives and returns it. Admitted requests
    /// always get exactly one result, even across server shutdown. The
    /// result is handed out once: `wait` after a `poll` that returned it
    /// (or a second `wait`) panics, as it does if the server dropped the
    /// request unanswered.
    pub fn wait(&self) -> ServeResult {
        loop {
            {
                let mut s = lock(&self.slot);
                match std::mem::replace(&mut *s, Slot::Taken) {
                    Slot::Ready(result) => return result,
                    Slot::Empty | Slot::Waiting(_) => *s = Slot::Waiting(thread::current()),
                    gone @ (Slot::Taken | Slot::HungUp) => {
                        *s = gone;
                        drop(s);
                        panic!("server replies to every admitted request");
                    }
                }
            }
            // An unpark that lands before this park makes it return at
            // once; a spurious wake-up re-checks the slot.
            thread::park();
        }
    }

    /// Non-blocking check; `None` while the request is still in flight and
    /// after its result was taken.
    pub fn poll(&self) -> Option<ServeResult> {
        let mut s = lock(&self.slot);
        match std::mem::replace(&mut *s, Slot::Taken) {
            Slot::Ready(result) => Some(result),
            other => {
                *s = other;
                None
            }
        }
    }
}

/// The slot's lock. Every critical section is one `mem::replace`, so even
/// a poisoned lock holds a consistent state — and `Reply`'s `Drop` must
/// not panic.
fn lock(slot: &Mutex<Slot>) -> std::sync::MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on a thread of its own and returns its outcome, panic
    /// included. A run that has not finished within ten seconds fails the
    /// test instead of hanging it (its thread is left parked).
    fn on_thread<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> impl FnOnce() -> thread::Result<T> {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        move || {
            let outcome = rx.recv_timeout(Duration::from_secs(10)).expect("the thread hung");
            handle.join().expect("the outcome was sent");
            outcome
        }
    }

    fn assert_hung_up(outcome: thread::Result<ServeResult>) {
        let payload = outcome.expect_err("wait returned without a result");
        let message = payload.downcast_ref::<&str>().copied();
        assert_eq!(message, Some("server replies to every admitted request"));
    }

    fn scored(id: u64) -> ServeResult {
        ServeResult::Scored(crate::Response { id, score: 0.5, snapshot_version: 1 })
    }

    /// Spins until a thread is parked (or about to park) on `slot`.
    fn until_waiting(slot: &Mutex<Slot>) {
        while !matches!(*lock(slot), Slot::Waiting(_)) {
            thread::yield_now();
        }
    }

    #[test]
    fn a_result_that_lands_before_wait_is_returned_without_parking() {
        // Nothing else holds the slot: a `wait` that parked would never
        // be woken, and the bounded run would fail.
        let finished = on_thread(|| {
            let (mut reply, rx) = reply_slot(1);
            reply.send(scored(3));
            rx.wait()
        });
        assert_eq!(finished().expect("wait returned"), scored(3));
    }

    #[test]
    fn a_parked_waiter_is_woken_by_the_result() {
        let (mut reply, rx) = reply_slot(1);
        let slot = Arc::clone(&rx.slot);
        let finished = on_thread(move || rx.wait());
        until_waiting(&slot);
        reply.send(scored(4));
        assert_eq!(finished().expect("wait returned"), scored(4));
    }

    #[test]
    fn poll_is_none_in_flight_then_the_result_then_none() {
        let (mut reply, rx) = reply_slot(1);
        assert_eq!(rx.poll(), None);
        reply.send(scored(5));
        assert_eq!(rx.poll(), Some(scored(5)));
        assert_eq!(rx.poll(), None);
        // The result was handed out once: a later `wait` panics at once.
        assert_hung_up(catch_unwind(AssertUnwindSafe(|| rx.wait())));
    }

    #[test]
    fn a_reply_dropped_unsent_fails_wait_and_poll_instead_of_hanging() {
        // The worker's end drops while the client is parked on it.
        let (reply, rx) = reply_slot(1);
        let slot = Arc::clone(&rx.slot);
        let finished = on_thread(move || rx.wait());
        until_waiting(&slot);
        drop(reply);
        assert_hung_up(finished());
        // The worker's end drops before anyone waits.
        let (reply, rx) = reply_slot(1);
        drop(reply);
        assert_eq!(rx.poll(), None);
        assert_hung_up(on_thread(move || rx.wait())());
    }

    #[test]
    fn a_result_sent_to_a_client_that_hung_up_is_dropped() {
        let (mut reply, rx) = reply_slot(1);
        drop(rx);
        reply.send(scored(6));
    }
}
