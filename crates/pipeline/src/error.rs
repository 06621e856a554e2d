//! The one error type of the pipeline crate.
//!
//! Planning, running, tuning, and serving used to fail through separate
//! enums (`PlanError`, `SessionError`) and ad-hoc prefixed strings;
//! everything now funnels into [`PipelineError`], which implements
//! [`std::error::Error`] and prints one consistent, human-readable
//! `what: why` message — lowercase, no `error:` prefix, no `{e:?}`
//! debug dumps. Front ends (`wlc`, the wire server) add their own
//! context around the message; the message itself never does.

use std::fmt;

/// Why a job was refused at the service's front door instead of being
/// queued (see `docs/SERVICE.md`, "Admission control").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionReason {
    /// The tenant's bounded queue is at capacity.
    QueueFull {
        /// The tenant's configured queue capacity.
        capacity: usize,
    },
    /// The tenant already has its maximum number of jobs in flight
    /// (queued plus running).
    InFlightLimit {
        /// The tenant's configured in-flight limit.
        limit: usize,
    },
    /// The tenant is not registered and the service does not
    /// auto-register unknown tenants.
    UnknownTenant,
}

impl fmt::Display for AdmissionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            AdmissionReason::InFlightLimit { limit } => {
                write!(f, "in-flight limit reached (limit {limit})")
            }
            AdmissionReason::UnknownTenant => write!(f, "tenant is not registered"),
        }
    }
}

/// Why a wavefront could not be planned, executed, tuned, or served.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The nest has no dimension along which a wavefront can advance
    /// (every candidate dimension carries dependences both ways).
    NoWavefrontDim,
    /// The chosen distribution dimension is not one of the wavefront
    /// dimensions, so the pipeline would carry no dependence.
    WaveNotDistributed {
        /// Dimensions that could carry the wavefront.
        wave_dims: Vec<usize>,
        /// The dimension that was requested for distribution.
        dist_dim: usize,
    },
    /// Dependences along `dim` point in both directions: no traversal
    /// order of that dimension satisfies them.
    ConflictingDependences {
        /// The conflicted dimension.
        dim: usize,
    },
    /// The selected engine computes on real data but the session has no
    /// store attached (see `Session::store`).
    MissingStore,
    /// Host calibration produced unusable constants (non-finite or
    /// non-positive α), so no model can be built from it.
    Calibration(String),
    /// An engine worker panicked while executing a service job. The
    /// payload is the panic message when it was a string.
    EnginePanic(String),
    /// The service refused to queue a job for a tenant — the typed
    /// admission outcome (never a silent drop, never a blocked
    /// listener).
    AdmissionDenied {
        /// The tenant whose job was refused.
        tenant: String,
        /// Why admission failed.
        reason: AdmissionReason,
    },
    /// A wire frame violated the serving protocol: bad magic/opcode,
    /// truncated or oversized frame, malformed field, or a rank the
    /// server does not serve.
    ProtocolError {
        /// What was wrong with the frame.
        reason: String,
    },
    /// A job specification failed validation before submission (zero
    /// processors, unknown array name, mismatched array payload, …).
    InvalidJob {
        /// What was wrong with the specification.
        reason: String,
    },
    /// A `.wf` program sent over the wire was rejected by the language
    /// front end (parse, legality, or lowering failure).
    CompileRejected {
        /// The front end's diagnostic.
        reason: String,
    },
    /// The remote side of a wire connection reported an execution
    /// failure that has no richer local representation.
    Remote {
        /// The remote error text.
        message: String,
    },
    /// A wire connection failed at the transport level.
    Io {
        /// The failed operation plus the OS error text.
        context: String,
    },
    /// A submitted DAG contains a dependency cycle, so no topological
    /// execution order exists. The payload names one cycle.
    CyclicDag {
        /// Node labels along the cycle, in edge order.
        nodes: Vec<String>,
    },
    /// A job could not run because a predecessor it consumes an output
    /// from failed (or its handle was dropped unresolved).
    DependencyFailed {
        /// The label (or output name) of the failed predecessor.
        producer: String,
        /// The predecessor's own error.
        error: Box<PipelineError>,
    },
    /// A resident-array handle does not resolve in this service: it was
    /// freed, or it belongs to a different service instance. Use after
    /// free is a typed error, never UB.
    UnknownHandle {
        /// The handle's id.
        id: u64,
    },
    /// Two bindings of one job (or one rotation step) would alias the
    /// same resident array, or a handle is already checked out by a job
    /// in flight — granting both would break the in-place write fence.
    HandleConflict {
        /// What aliased what.
        reason: String,
    },
    /// A [`crate::service::LoopSpec`] failed validation before
    /// submission (empty rotation permutation, rotated name not bound
    /// as an output handle, zero steps, …).
    InvalidLoop {
        /// What was wrong with the specification.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoWavefrontDim => {
                write!(f, "nest has no wavefront dimension to pipeline along")
            }
            PipelineError::WaveNotDistributed {
                wave_dims,
                dist_dim,
            } => write!(
                f,
                "distributed dimension {dist_dim} is not a wavefront dimension \
                 (wavefront advances along {wave_dims:?})"
            ),
            PipelineError::ConflictingDependences { dim } => write!(
                f,
                "dimension {dim} carries dependences in both directions; \
                 no loop order satisfies them"
            ),
            PipelineError::MissingStore => write!(
                f,
                "engine needs array data: attach one with Session::store(..) \
                 before running"
            ),
            PipelineError::Calibration(why) => write!(f, "calibration failed: {why}"),
            PipelineError::EnginePanic(why) => write!(f, "engine panicked: {why}"),
            PipelineError::AdmissionDenied { tenant, reason } => {
                write!(f, "admission denied for tenant `{tenant}`: {reason}")
            }
            PipelineError::ProtocolError { reason } => {
                write!(f, "wire protocol violation: {reason}")
            }
            PipelineError::InvalidJob { reason } => write!(f, "invalid job: {reason}"),
            PipelineError::CompileRejected { reason } => {
                write!(f, "program rejected: {reason}")
            }
            PipelineError::Remote { message } => write!(f, "server reported: {message}"),
            PipelineError::Io { context } => write!(f, "wire i/o failed: {context}"),
            PipelineError::CyclicDag { nodes } => write!(
                f,
                "dag has a dependency cycle through [{}]",
                nodes.join(" -> ")
            ),
            PipelineError::DependencyFailed { producer, error } => {
                write!(f, "dependency `{producer}` failed: {error}")
            }
            PipelineError::UnknownHandle { id } => write!(
                f,
                "resident-array handle #{id} does not resolve here \
                 (freed, or from another service)"
            ),
            PipelineError::HandleConflict { reason } => {
                write!(f, "resident-array handle conflict: {reason}")
            }
            PipelineError::InvalidLoop { reason } => write!(f, "invalid loop: {reason}"),
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_readable_not_debug() {
        let errs: Vec<PipelineError> = vec![
            PipelineError::NoWavefrontDim,
            PipelineError::WaveNotDistributed {
                wave_dims: vec![0, 1],
                dist_dim: 2,
            },
            PipelineError::ConflictingDependences { dim: 1 },
            PipelineError::MissingStore,
            PipelineError::Calibration("ping-pong returned NaN".into()),
            PipelineError::EnginePanic("index out of bounds".into()),
            PipelineError::AdmissionDenied {
                tenant: "acme".into(),
                reason: AdmissionReason::QueueFull { capacity: 8 },
            },
            PipelineError::AdmissionDenied {
                tenant: "acme".into(),
                reason: AdmissionReason::InFlightLimit { limit: 0 },
            },
            PipelineError::AdmissionDenied {
                tenant: "ghost".into(),
                reason: AdmissionReason::UnknownTenant,
            },
            PipelineError::ProtocolError {
                reason: "frame of 2 GiB exceeds the limit".into(),
            },
            PipelineError::InvalidJob {
                reason: "a line topology needs at least one processor".into(),
            },
            PipelineError::CompileRejected {
                reason: "parse error at line 3".into(),
            },
            PipelineError::Remote {
                message: "engine panicked: boom".into(),
            },
            PipelineError::Io {
                context: "read frame header: connection reset".into(),
            },
            PipelineError::CyclicDag {
                nodes: vec!["a".into(), "b".into(), "a".into()],
            },
            PipelineError::UnknownHandle { id: 7 },
            PipelineError::HandleConflict {
                reason: "`curr` and `next` rotate onto the same handle".into(),
            },
            PipelineError::InvalidLoop {
                reason: "rotation names `ghost`, which no binding declares".into(),
            },
            PipelineError::DependencyFailed {
                producer: "octant0".into(),
                error: Box::new(PipelineError::EnginePanic("boom".into())),
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            // No Debug-style braces from struct formatting, and one
            // consistent style: lowercase, no "error: " prefix.
            assert!(!msg.starts_with('{'), "{msg}");
            assert!(!msg.starts_with("error"), "{msg}");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "service-path errors share one lowercase style: {msg}"
            );
        }
    }

    #[test]
    fn admission_reasons_render_their_limits() {
        assert_eq!(
            AdmissionReason::QueueFull { capacity: 4 }.to_string(),
            "queue full (capacity 4)"
        );
        assert_eq!(
            AdmissionReason::InFlightLimit { limit: 0 }.to_string(),
            "in-flight limit reached (limit 0)"
        );
    }

    #[test]
    fn is_a_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&PipelineError::MissingStore);
    }
}
