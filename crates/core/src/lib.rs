//! # SLINFER — resource-efficient serverless LLM inference
//!
//! This crate implements the paper's contribution: a serverless inference
//! scheme that elastically shares heterogeneous CPU/GPU nodes among many
//! small- to mid-sized LLMs while holding per-token SLOs. It plugs into the
//! [`cluster`] simulation driver as a [`Policy`](cluster::Policy).
//!
//! The three subsystems map one-to-one onto the paper:
//!
//! - [`quantify`] + [`shadow`] + the token-level loop in [`scheduler`] —
//!   the **headroom-driven compute subsystem** (§VI): per-hardware
//!   performance quantification on a power-of-two sampling grid with 1-D/2-D
//!   linear interpolation, shadow validation of every admission (three
//!   violation cases, 10% overestimation), and min-headroom token-level
//!   scheduling (Eq. 1, Fig. 14).
//! - [`memory`] — the **hazard-aware memory subsystem** (§VII): Eq. 2 demand
//!   estimation, watermark-based early-scale-up / lazy-scale-down, and the
//!   optimistic-budget + pessimistic-execution orchestrator with a
//!   reservation station that serializes risky scale-ups (Fig. 19). The
//!   optimistic budget is derived, not stored: the scheduler computes it
//!   from the grant each instance on the node is heading to.
//! - [`consolidate`] — the **efficiency-oriented consolidator** (§VIII):
//!   proactive preemption of smaller-batch neighbours and reactive
//!   bin-packing of new requests onto the largest-batch instance.
//!
//! # Quickstart
//!
//! ```
//! use cluster::{ClusterSpec, Simulation, WorldConfig};
//! use hwmodel::ModelSpec;
//! use slinfer::{Slinfer, SlinferConfig};
//! use workload::serverless::TraceSpec;
//!
//! // Four 7B replicas on 1 CPU + 1 GPU, a light trace.
//! let models: Vec<ModelSpec> = (0..4).map(|i| ModelSpec::llama2_7b().replica(i)).collect();
//! let trace = TraceSpec::azure_like(4, 7).with_load_scale(0.2).generate();
//! let cluster = ClusterSpec::heterogeneous(1, 1);
//! let sim = Simulation::new(
//!     &cluster,
//!     models,
//!     WorldConfig::default(),
//!     Slinfer::new(SlinferConfig::default()),
//! );
//! let metrics = sim.run(&trace);
//! assert!(metrics.slo_rate() > 0.8);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod consolidate;
pub mod memory;
pub mod quantify;
pub mod scheduler;
pub mod shadow;

pub use config::SlinferConfig;
pub use quantify::{Quantifier, QuantifierSet};
pub use scheduler::Slinfer;
