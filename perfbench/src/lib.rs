//! End-to-end and per-layer benchmark of the DTM library.
//!
//! Two closed-loop workloads drive the library through its public API
//! (see `README.md` in this directory for why each was chosen and which
//! layer metric should move which end-to-end metric):
//!
//! - `cold-3d24p4`: partition, split, factor and a one-worker
//!   work-stealing pool solve per request;
//! - `dist-uds-3d24p8`: one setup, then a one-child-process socket solve
//!   per request.

pub mod measure;
pub mod problem;
pub mod replay;
pub mod report;
pub mod spans;
pub mod workloads;
