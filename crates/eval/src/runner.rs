//! Flow orchestration: place a benchmark, legalize (inside the placer),
//! score against the contest router, and keep per-stage timing.
//!
//! The actual flow lives on [`EvalSession`]; [`run_flow`] is the one-line
//! entry point at the default scoring-router configuration.

use crate::session::EvalSession;
use rdp_core::{PlaceError, PlaceOptions};
use rdp_gen::GeneratedBench;

pub use crate::session::FlowOutcome;

/// Places `bench` with `options` and scores the result with the default
/// scoring-router configuration.
///
/// # Errors
///
/// Propagates [`PlaceError`] for unplaceable designs.
pub fn run_flow(bench: &GeneratedBench, options: PlaceOptions) -> Result<FlowOutcome, PlaceError> {
    EvalSession::new(&bench.design).run_flow_on(bench, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_gen::GeneratorConfig;

    #[test]
    fn flow_produces_legal_scored_placement() {
        let bench = rdp_gen::generate(&GeneratorConfig::tiny("fl", 9)).unwrap();
        let out = run_flow(&bench, PlaceOptions::fast()).unwrap();
        assert!(out.legality.is_legal(), "violations: {:?}", out.legality.violations);
        assert!(out.score.scaled_hpwl >= out.score.hpwl * 0.999);
        assert!(out.place_time.as_nanos() > 0);
    }

    #[test]
    fn routability_mode_beats_wirelength_mode_on_rc() {
        // The headline claim (experiment T2's shape): the routability-driven
        // flow yields lower RC than the wirelength-driven baseline on a
        // supply-tight design.
        let mut cfg = GeneratorConfig::tiny("flr", 10);
        cfg.route.tracks_per_edge_h = 18.0;
        cfg.route.tracks_per_edge_v = 18.0;
        let bench = rdp_gen::generate(&cfg).unwrap();
        let full = run_flow(&bench, PlaceOptions::fast()).unwrap();
        let wl_only = run_flow(&bench, PlaceOptions::fast().wirelength_driven()).unwrap();
        assert!(
            full.score.rc <= wl_only.score.rc + 3.0,
            "routability flow rc {} much worse than baseline {}",
            full.score.rc,
            wl_only.score.rc
        );
    }
}
