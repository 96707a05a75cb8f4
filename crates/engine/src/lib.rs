//! Simulated LLM inference-engine substrate.
//!
//! The paper runs vLLM (GPU) and OpenVINO (CPU) under every scheduler; this
//! crate is their stand-in. It models exactly the engine behaviours the
//! schedulers interact with:
//!
//! - [`blocks`] — a paged-attention block pool ([`BlockPool`]): KV memory is
//!   allocated in fixed 16-token blocks, so capacity and fragmentation are
//!   block-granular like vLLM's (§III-A, \[37\]).
//! - [`request`] — the per-request state machine
//!   (waiting → prefill → decode → finished) with token-deadline tracking.
//! - [`instance`] — a model [`Instance`]: continuous batch, waiting queue,
//!   KV pool and loading/active lifecycle; each transition returns what
//!   happened (tokens produced, requests finished) for the cluster layer
//!   to record. With `retain_sessions` set,
//!   an instance also *parks* finished session turns' KV so a follow-up
//!   turn's prefill skips the cached prefix (`begin_prefill` returns the
//!   compute/cached token split; parked entries are evicted coldest-first
//!   under capacity pressure).
//!
//! An instance is *passive*: it never decides when to run. The cluster
//! driver asks it to begin/finish iterations, and scheduling policies
//! (SLINFER, the baselines) decide which instance runs next. That split
//! mirrors the paper's separation between the inference engine and the
//! SLINFER control plane.

#![forbid(unsafe_code)]

pub mod blocks;
pub mod instance;
pub mod request;

pub use blocks::BlockPool;
pub use instance::{Instance, InstanceId, InstanceState, IterationKind};
pub use request::{ReqPhase, RunningRequest};
