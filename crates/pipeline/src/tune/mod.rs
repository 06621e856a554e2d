//! Host calibration.
//!
//! The paper picks the pipeline block size `b` from Equation (1) with
//! α/β read off a spec sheet, and leaves dynamic selection as future
//! work. [`calibrate`] measures α, β, and the per-element compute cost
//! *on the running host* — a ping-pong over the same [`crate::link`]
//! post/wait hand-off the threaded runtime performs, each side reading
//! the boundary the other just wrote — and packages them as a
//! [`wavefront_model::CalibratedMachine`]. Given those constants,
//! [`crate::BlockPolicy::Adaptive`] chooses `b` at plan time by
//! simulating the plan at every distinct tile count.
//!
//! `wlc tune` drives both and reports model-vs-searched block sizes as
//! JSON; see `docs/TUNING.md`.

mod calibrate;

pub use calibrate::{calibrate_host, calibrate_with, CalibrationConfig};
