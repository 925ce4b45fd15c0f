//! Request and response types of the serving layer.

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
    pub reply: std::sync::mpsc::Sender<ServeResult>,
}
