//! Per-tenant admission control: the sizing knobs of one tenant and the
//! pure decision function the service consults before a job may join a
//! tenant queue.
//!
//! Admission is decided under the service's queue lock and is the only
//! gate on the serving path — a job either joins its tenant's bounded
//! queue or comes back immediately with a typed
//! [`crate::error::PipelineError::AdmissionDenied`]. Nothing is ever
//! silently dropped, and the wire listener never blocks on a full
//! tenant.

use crate::error::AdmissionReason;

/// Sizing and scheduling knobs of one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    /// Fair-share weight relative to other tenants: a tenant with
    /// weight 2 receives twice the dispatch slots of a weight-1 tenant
    /// while both have work queued (stride scheduling). Clamped to be
    /// positive and finite.
    pub weight: f64,
    /// Maximum jobs the tenant may have queued-or-running at once;
    /// submissions beyond it are denied with
    /// [`AdmissionReason::InFlightLimit`].
    pub max_in_flight: usize,
    /// Jobs the tenant's own queue holds; submissions to a full queue
    /// are denied with [`AdmissionReason::QueueFull`] (via
    /// `try_submit`) or block (via `submit`).
    pub queue_capacity: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1.0,
            max_in_flight: usize::MAX,
            queue_capacity: 64,
        }
    }
}

impl TenantConfig {
    /// The effective (clamped) fair-share weight.
    pub(crate) fn effective_weight(&self) -> f64 {
        if self.weight.is_finite() && self.weight > 0.0 {
            self.weight
        } else {
            1.0
        }
    }

    /// The effective queue capacity (at least one slot).
    pub(crate) fn effective_capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }
}

/// Decide admission for one more job given the tenant's current
/// occupancy. `queued` counts jobs waiting in the tenant queue;
/// `in_flight` counts queued plus running jobs.
pub(crate) fn admit(
    cfg: &TenantConfig,
    queued: usize,
    in_flight: usize,
) -> Result<(), AdmissionReason> {
    if in_flight >= cfg.max_in_flight {
        return Err(AdmissionReason::InFlightLimit {
            limit: cfg.max_in_flight,
        });
    }
    if queued >= cfg.effective_capacity() {
        return Err(AdmissionReason::QueueFull {
            capacity: cfg.effective_capacity(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tenant_admits_until_queue_fills() {
        let cfg = TenantConfig::default();
        assert_eq!(admit(&cfg, 0, 0), Ok(()));
        assert_eq!(admit(&cfg, 63, 1000), Ok(()));
        assert_eq!(
            admit(&cfg, 64, 64),
            Err(AdmissionReason::QueueFull { capacity: 64 })
        );
    }

    #[test]
    fn in_flight_limit_applies_before_queue_capacity() {
        let cfg = TenantConfig {
            max_in_flight: 2,
            ..Default::default()
        };
        assert_eq!(admit(&cfg, 0, 1), Ok(()));
        assert_eq!(
            admit(&cfg, 0, 2),
            Err(AdmissionReason::InFlightLimit { limit: 2 })
        );
        // Limit 0 denies everything — what
        // `tests/serve.rs::typed_errors_round_trip_the_wire` drives
        // over the wire.
        let zero = TenantConfig {
            max_in_flight: 0,
            ..Default::default()
        };
        assert_eq!(
            admit(&zero, 0, 0),
            Err(AdmissionReason::InFlightLimit { limit: 0 })
        );
    }

    #[test]
    fn degenerate_knobs_are_clamped() {
        let cfg = TenantConfig {
            weight: -3.0,
            queue_capacity: 0,
            ..Default::default()
        };
        assert_eq!(cfg.effective_weight(), 1.0);
        assert_eq!(cfg.effective_capacity(), 1);
        assert_eq!(admit(&cfg, 0, 0), Ok(()));
        assert_eq!(
            admit(&cfg, 1, 1),
            Err(AdmissionReason::QueueFull { capacity: 1 })
        );
    }
}
