//! Checkpoint-resume determinism (ISSUE 9).
//!
//! The serve layer's restart story rests on one contract: resuming a flow
//! from any stage checkpoint — at any thread count, through the text
//! serialization — produces a final placement **bitwise identical** to the
//! uninterrupted run. These tests pin that contract in estimator-congestion
//! mode (the router-congestion mode carries non-checkpointed warm routing
//! state and is documented as resume-approximate).

use rdp_core::{
    CongestionSchedule, CongestionSource, FlowCheckpoint, FlowProgress, GpDensityModel, GpSolver,
    PlaceError, PlaceOptions, Placer,
};
use rdp_db::Placement;
use rdp_gen::{generate, GeneratedBench, GeneratorConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn bench(name: &str, seed: u64) -> GeneratedBench {
    generate(&GeneratorConfig::tiny(name, seed)).unwrap()
}

/// Bit-exact fingerprint of a placement: position bits + orientation per
/// node, in node order.
type Bits = Vec<(u64, u64, &'static str)>;

fn placement_bits(b: &GeneratedBench, p: &Placement) -> Bits {
    b.design
        .node_ids()
        .map(|id| {
            let c = p.center(id);
            (c.x.to_bits(), c.y.to_bits(), p.orient(id).as_str())
        })
        .collect()
}

/// One uninterrupted run that also records every checkpoint it saves.
fn baseline_with_checkpoints(
    b: &GeneratedBench,
    opts: PlaceOptions,
) -> (Bits, u64, Vec<FlowCheckpoint>) {
    let mut cps: Vec<FlowCheckpoint> = Vec::new();
    let result = Placer::new(&b.design, opts)
        .with_initial(b.placement.clone())
        .with_checkpoint_sink(|cp| cps.push(cp.clone()))
        .run()
        .unwrap();
    (placement_bits(b, &result.placement), result.hpwl.to_bits(), cps)
}

/// Resumes `opts` from `cp` through the text round-trip, exactly as a
/// restarted server would, and returns the final fingerprint.
fn resume_bits(b: &GeneratedBench, opts: PlaceOptions, cp: &FlowCheckpoint) -> (Bits, u64) {
    let restored = FlowCheckpoint::from_text(&cp.to_text()).unwrap();
    let resumed = Placer::new(&b.design, opts).resume_from(restored).run().unwrap();
    (placement_bits(b, &resumed.placement), resumed.hpwl.to_bits())
}

#[test]
fn resume_from_each_stage_checkpoint_matches_uninterrupted_bitwise() {
    let b = bench("rsm", 71);
    let learned = CongestionSchedule::Uniform(CongestionSource::Learned);
    for (name, opts) in [
        ("fast", PlaceOptions::fast()),
        (
            "nesterov",
            PlaceOptions::fast().with_solver(GpSolver::Nesterov, GpDensityModel::Electrostatic),
        ),
        ("learned", PlaceOptions::fast().with_estimator(learned)),
    ] {
        let (base_bits, base_hpwl, cps) = baseline_with_checkpoints(&b, opts.clone());
        // The fast flow saves at least global_place + one inflate + legalize.
        assert!(cps.len() >= 3, "expected >= 3 checkpoints, got {}", cps.len());
        assert!(cps.iter().any(|cp| cp.stage == "global_place"));
        assert!(cps.iter().any(|cp| cp.legal), "legalize checkpoint missing");

        for cp in &cps {
            for threads in [1usize, 2, 8] {
                let (bits, hpwl) = resume_bits(&b, opts.clone().with_threads(threads), cp);
                let at = format!("resuming {name} from `{}` at {threads} threads", cp.stage);
                assert_eq!(hpwl, base_hpwl, "hpwl mismatch {at}");
                assert_eq!(bits, base_bits, "placement mismatch {at}");
            }
        }
    }
}

#[test]
fn cancel_after_each_checkpoint_stops_there_and_resumes_bitwise() {
    let b = bench("rsk", 76);
    let (base_bits, base_hpwl, cps) = baseline_with_checkpoints(&b, PlaceOptions::fast());
    for (k, expected) in cps.iter().enumerate() {
        // The sink fires the token as the k-th checkpoint is saved: the
        // driver polls it at the very next stage boundary.
        let token = Arc::new(AtomicBool::new(false));
        let fire = Arc::clone(&token);
        let mut saved = 0;
        let progress = Placer::new(&b.design, PlaceOptions::fast())
            .with_initial(b.placement.clone())
            .with_cancel(token)
            .with_checkpoint_sink(move |_| {
                saved += 1;
                if saved == k + 1 {
                    fire.store(true, Ordering::Relaxed);
                }
            })
            .run_resumable()
            .unwrap();
        let FlowProgress::Interrupted(cp) = progress else {
            panic!("cancel after checkpoint {k} (`{}`) must interrupt", expected.stage);
        };
        assert_eq!(cp.stage, expected.stage);
        assert_eq!(cp.to_text(), expected.to_text(), "interrupted at `{}`", cp.stage);
        for threads in [1usize, 2] {
            let (bits, hpwl) = resume_bits(&b, PlaceOptions::fast().with_threads(threads), &cp);
            assert_eq!(hpwl, base_hpwl, "hpwl mismatch resuming `{}` at {threads}", cp.stage);
            assert_eq!(bits, base_bits, "placement mismatch resuming `{}` at {threads}", cp.stage);
        }
    }
}

#[test]
fn cancel_interrupts_at_stage_boundary_and_resume_completes_identically() {
    let b = bench("rsc", 72);
    let (base_bits, base_hpwl, _) = baseline_with_checkpoints(&b, PlaceOptions::fast());

    // A pre-fired token stops the flow at the first stage boundary.
    let token = Arc::new(AtomicBool::new(true));
    let progress = Placer::new(&b.design, PlaceOptions::fast())
        .with_initial(b.placement.clone())
        .with_cancel(Arc::clone(&token))
        .run_resumable()
        .unwrap();
    let FlowProgress::Interrupted(cp) = progress else {
        panic!("pre-fired cancel token must interrupt the flow");
    };
    assert_eq!(cp.stage, "global_place");

    // `run()` surfaces the same situation as a structured error.
    let err = Placer::new(&b.design, PlaceOptions::fast())
        .with_initial(b.placement.clone())
        .with_cancel(token)
        .run()
        .unwrap_err();
    assert!(matches!(err, PlaceError::Interrupted { ref stage } if stage == "global_place"));

    // Resuming the interrupted run lands on the uninterrupted result.
    let resumed = Placer::new(&b.design, PlaceOptions::fast())
        .resume_from(cp)
        .run()
        .unwrap();
    assert_eq!(resumed.hpwl.to_bits(), base_hpwl);
    assert_eq!(placement_bits(&b, &resumed.placement), base_bits);
}

#[test]
fn resume_from_legal_checkpoint_skips_straight_to_polish() {
    let b = bench("rsl", 73);
    let (base_bits, _, cps) = baseline_with_checkpoints(&b, PlaceOptions::fast());
    let legal = cps.iter().find(|cp| cp.legal).expect("legalize checkpoint");
    let resumed = Placer::new(&b.design, PlaceOptions::fast())
        .resume_from(legal.clone())
        .run()
        .unwrap();
    assert_eq!(placement_bits(&b, &resumed.placement), base_bits);
    // Legalization was not re-run: its stats are the documented zeros and
    // no legalize stage timing is recorded.
    assert_eq!(resumed.legalize.failed, 0);
    assert!(!resumed.trace.stages.iter().any(|s| s.stage == "legalize"));
}

#[test]
fn mismatched_checkpoint_is_rejected_structurally() {
    let b = bench("rsx", 74);
    let mut other_cfg = GeneratorConfig::tiny("rsy", 75);
    other_cfg.num_cells = 300; // different node count than `b`
    let other = generate(&other_cfg).unwrap();
    let (_, _, cps) = baseline_with_checkpoints(&other, PlaceOptions::fast());
    let foreign = cps.last().unwrap().clone();
    // The two tiny designs have different node counts, so the checkpoint
    // must be rejected before any stage runs.
    let err = Placer::new(&b.design, PlaceOptions::fast())
        .resume_from(foreign)
        .run()
        .unwrap_err();
    match err {
        PlaceError::BadResume { reason } => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected BadResume, got {other:?}"),
    }
}
