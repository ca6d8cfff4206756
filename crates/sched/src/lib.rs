//! # iotax-sched
//!
//! A Cobalt-like HPC scheduler substrate.
//!
//! ALCF Theta used the Cobalt scheduler; its logs contribute the five
//! scheduler features the paper's models consume (§V): node count, core
//! count, start time, end time, and placement. This crate provides:
//!
//! * `pool` (private) — a node pool with first-fit contiguous allocation
//!   and strict double-allocation checking.
//! * [`scheduler`] — an event-driven FCFS scheduler with optional EASY-style
//!   backfill that turns job *requests* (arrival, node count, walltime) into
//!   placed, timed *records*.
//! * [`log`] — the scheduler log record and its five job-level ML features.
//!
//! The simulator uses the resulting placements and timings to decide which
//! jobs overlap (and therefore contend); the taxonomy only ever sees the
//! five observable features, like the paper's models.

pub mod log;
mod pool;
pub mod scheduler;

pub use log::COBALT_FEATURE_NAMES;
pub use scheduler::{JobRequest, Scheduler, SchedulerConfig};
