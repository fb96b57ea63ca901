#![warn(missing_docs)]
//! DAC-2012-style contest evaluation: scoring, benchmark suites, flow
//! orchestration and report formatting.
//!
//! The contest scored a placement by routing it with the official global
//! router and computing **scaled HPWL** = `HPWL · (1 + 0.03·max(0, RC−100))`
//! where RC is the mean ACE(k%) congestion over k ∈ {0.5, 1, 2, 5}. This
//! crate reimplements that protocol against `rdp-route` and drives the
//! whole experiment matrix of DESIGN.md:
//!
//! * [`session`] — [`EvalSession`], the single configuration surface:
//!   routing, congestion measurement, scoring and place-then-score flows
//!   all against one held [`rdp_route::RouterConfig`];
//! * [`score`] — run the router, compute RC and scaled HPWL;
//! * [`suite`] — the named benchmark suites (`s1..s8` standard,
//!   `h1..h4` hierarchical) substituting the contest circuits;
//! * [`runner`] — place-then-score flows with per-stage timing;
//! * [`report`] — aligned text tables and CSV emission for
//!   `target/experiments/`;
//! * [`cache`] — [`DesignCache`], a shared immutable benchmark cache for
//!   callers (like `rdp-serve`) that evaluate the same config repeatedly.
//!
//! # Examples
//!
//! ```
//! use rdp_eval::{runner, suite};
//! use rdp_core::PlaceOptions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = suite::build(&suite::tiny_config("t1", 1))?;
//! let outcome = runner::run_flow(&bench, PlaceOptions::fast())?;
//! println!("scaled HPWL = {:.0}", outcome.score.scaled_hpwl);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod report;
pub mod runner;
pub mod score;
pub mod session;
pub mod suite;

pub use cache::DesignCache;
pub use runner::{run_flow, FlowOutcome};
pub use score::{score_placement, ContestScore};
pub use session::EvalSession;
