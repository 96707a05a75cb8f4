//! Synthetic workload generation for the SLINFER reproduction.
//!
//! The paper drives its evaluation with request *lengths* sampled from the
//! Azure LLM inference traces (and four other datasets, §IX-I1) and request
//! *arrivals* sampled from the Azure Serverless trace (one serverless
//! function per model, §IX-A) plus BurstGPT (§IX-I2). None of those traces
//! ship with this repository, so this crate generates synthetic equivalents
//! matched to every statistic the paper prints about them:
//!
//! - [`datasets`] — input/output token-length distributions for
//!   AzureConv, AzureCode, HumanEval, ShareGPT and LongBench, matched to
//!   Figure 34's CDFs and the quoted quantiles (97.9% of conversation and
//!   85.9% of coding inputs under 4 K tokens).
//! - [`serverless`] — the multi-model invocation generator: Zipf-skewed
//!   model popularity, bursty per-model arrivals, calibrated to Figure 21
//!   (2 366 / 4 684 / 9 266 requests over 30 min for 32 / 64 / 128 models)
//!   and Figure 12 (top-1% models see concurrency bursts beyond 128 and
//!   contribute ≈26% of requests).
//! - [`burstgpt`] — a Gamma-interarrival load generator for the §IX-I2
//!   sensitivity sweep.
//! - [`sessions`] — a multi-turn chat/session generator: heavy-tailed
//!   per-user session rates, geometric turn counts, exponential think-time
//!   gaps, and growing per-turn context, with every request tagged by
//!   [`request::SessionTag`] so schedulers can route turns back to the
//!   instance holding the session's KV cache.
//! - [`stats`] — trace characterization used by the Figure 21/12/34
//!   experiments.
//!
//! # Example
//!
//! ```
//! use workload::serverless::TraceSpec;
//!
//! let trace = TraceSpec::azure_like(32, 42).generate();
//! assert_eq!(trace.n_models, 32);
//! // Figure 21: the 32-model trace holds ~2.4 K requests over 30 minutes.
//! assert!((2000..2800).contains(&trace.requests.len()));
//! ```

#![forbid(unsafe_code)]

pub mod burstgpt;
pub mod datasets;
pub mod request;
pub mod serverless;
pub mod sessions;
pub mod stats;

pub use datasets::Dataset;
pub use request::{ModelId, Request, RequestId, SessionTag, Slo, Trace};
pub use sessions::SessionSpec;
