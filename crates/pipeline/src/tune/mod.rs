//! Closed-loop block-size tuning.
//!
//! The paper picks the pipeline block size `b` from Equation (1) with
//! α/β read off a spec sheet, and leaves dynamic selection as future
//! work. This module closes that loop twice over:
//!
//! * [`calibrate`] measures α, β, and the per-element compute cost *on
//!   the running host* — a ping-pong over the same [`crate::link`]
//!   post/wait hand-off the threaded runtime performs, each side reading
//!   the boundary the other just wrote — and packages them as a
//!   [`wavefront_model::CalibratedMachine`].
//! * [`adaptive`] implements [`crate::BlockPolicy::Adaptive`]: start
//!   from the model's optimum, run two small probe tiles, re-fit α/β
//!   from the observed message latencies in the telemetry stream, and
//!   re-block the remaining wavefront at the refitted optimum. It works
//!   on all three engines (DES simulator, sequential reference, OS
//!   threads) and on both the 1-D line and the 2-D mesh.
//!
//! `wlc tune` drives both ends and reports chosen-vs-model-vs-exhaustive
//! block sizes as JSON; see `docs/TUNING.md`.

pub mod adaptive;
pub mod calibrate;

pub use calibrate::{calibrate_host, calibrate_with, CalibrationConfig};

pub(crate) use adaptive::adapt;
