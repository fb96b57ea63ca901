//! The layer probe of the traced run: times the public functions of every
//! layer on the workload's own design and placement, from outside the
//! program.
//!
//! Kernels are replayed on the `global_place` checkpoint at 1 and 2
//! threads (their outputs must match bit for bit); legalization is
//! replayed on the last pre-legalization checkpoint and detailed placement
//! on the `legalize` checkpoint; the routers run on the final placement.
//! The program's own timers (`RoutingOutcome::*_elapsed`,
//! `InflationStats::congestion_time`, `Trace`) are not read.

use crate::spans::Recorder;
use crate::stats::{mix, time_median};
use crate::workloads::{self, Placed};
use crate::{out_dir, Args, Outcome, THREADS};
use rdp_core::density::build_fields;
use rdp_core::electrostatics::build_electro_fields;
use rdp_core::fused::{fused_wl_den_grad, fused_wl_electro_grad};
use rdp_core::inflation::{inflate, InflationConfig};
use rdp_core::model::Model;
use rdp_core::wirelength::{smooth_wl_grad_par, WlScratch};
use rdp_core::PlaceOptions;
use rdp_db::validate::check_legal;
use rdp_db::Design;
use rdp_eval::EvalSession;
use rdp_gen::GeneratorConfig;
use rdp_geom::fft::Fft2;
use rdp_geom::parallel::{chunked_map, Parallelism};
use rdp_geom::rng::Rng;
use rdp_route::learned::predict_congestion_par;
use rdp_route::pattern::estimate_congestion_par;
use rdp_route::{EstimatorWeights, GlobalRouter, LayerMode, RouteGrid, RouterConfig};
use std::time::Duration;

/// Timed repetitions per probe measurement (after one warm-up call).
const REPS: usize = 5;
/// Timed repetitions per kernel and thread count: the kernels take
/// microseconds to a millisecond at these sizes.
const KERNEL_REPS: usize = 51;

pub struct ProbeInput<'a> {
    pub config: &'a GeneratorConfig,
    pub design: &'a Design,
    /// A placement run of this workload, with its checkpoints kept.
    pub placed: &'a Placed,
    pub opts: &'a PlaceOptions,
}

fn same(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One kernel at 1 and 2 threads: records `<name>_s.t1`, `<name>_s.t2`
/// and `geom.parallel.eff_2t.<name>`, and checks that the two outputs,
/// flattened by `digest` outside the timed calls, are bitwise equal.
/// Returns both times and the 2-thread output.
fn kernel<R>(
    rec: &mut Recorder,
    out: &mut Outcome,
    pars: &[Parallelism; 2],
    name: &str,
    mut run: impl FnMut(&Parallelism) -> R,
    digest: impl Fn(&R) -> Vec<f64>,
) -> ([f64; 2], R) {
    let (t1, o1) = rec.span(&format!("{name}.t1"), |_| {
        time_median(KERNEL_REPS, || run(&pars[0]))
    });
    let (t2, o2) = rec.span(&format!("{name}.t2"), |_| {
        time_median(KERNEL_REPS, || run(&pars[1]))
    });
    out.check(same(&digest(&o1), &digest(&o2)), || {
        format!("{name}: 1- and 2-thread outputs differ")
    });
    out.set(&format!("{name}_s.t1"), t1);
    out.set(&format!("{name}_s.t2"), t2);
    out.set(&format!("geom.parallel.eff_2t.{name}"), t1 / (2.0 * t2));
    ([t1, t2], o2)
}

/// A gradient kernel's output: x and y gradients plus scalar results.
type Grad = (Vec<f64>, Vec<f64>, Vec<f64>);

fn flat((gx, gy, scalars): &Grad) -> Vec<f64> {
    [gx.as_slice(), gy, scalars].concat()
}

pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome, input: ProbeInput<'_>) {
    rec.span("probe", |rec| probe(args, rec, out, &input));
}

fn probe(args: &Args, rec: &mut Recorder, out: &mut Outcome, input: &ProbeInput<'_>) {
    let design = input.design;
    let placed = input.placed;
    let Ok(result) = &placed.result else {
        out.errors
            .push("probe: the placement it replays failed".into());
        return;
    };
    let (Some(gp_cp), Some(legal_cp)) = (
        placed.checkpoint("global_place"),
        placed.checkpoint("legalize"),
    ) else {
        out.errors
            .push("probe: the placement run saved no global_place/legalize checkpoint".into());
        return;
    };
    let pre_legal = placed.checkpoint("inflate").unwrap_or(gp_cp);
    let pars = [Parallelism::with_pool(1), Parallelism::with_pool(THREADS)];
    let par2 = &pars[1];

    // Flow stages of the replayed run, and the optimizer counters of its
    // global-placement stage (the last GP level before `global_place`).
    let st = placed.stages();
    let gp_out = &gp_cp.gp;
    out.set("core.placer.stage.gp_s", st.gp);
    out.set("core.placer.stage.inflate_s", st.inflate);
    out.set("core.placer.stage.legalize_s", st.legalize);
    out.set("core.placer.stage.detail_s", st.detail);
    out.set("core.placer.rounds", st.rounds as f64);
    out.set(
        "core.optimizer.gradient_evals",
        gp_out.gradient_evals as f64,
    );
    out.set("core.optimizer.outer_rounds", gp_out.outer_rounds as f64);
    out.set("core.optimizer.recoveries", gp_out.recoveries as f64);
    out.set("core.optimizer.overflow", gp_out.overflow_ratio);

    // Inputs: generation and the Bookshelf round trip.
    let (t, _) = rec.span("gen.generate", |_| {
        time_median(REPS, || rdp_gen::generate(input.config))
    });
    out.set("gen.generate_s", t);
    let dir = out_dir().join(format!("probe-{}-{}", args.workload, std::process::id()));
    let (t, w) = rec.span("db.bookshelf_write", |_| {
        time_median(REPS, || {
            rdp_db::bookshelf::write_design(design, &result.placement, &dir)
        })
    });
    out.check(w.is_ok(), || {
        format!("probe: writing Bookshelf files to {} failed", dir.display())
    });
    out.set("db.bookshelf_write_s", t);
    let aux = dir.join(format!("{}.aux", design.name()));
    let (t, r) = rec.span("db.bookshelf_read", |_| {
        time_median(REPS, || rdp_db::bookshelf::read_design(&aux))
    });
    out.check(r.is_ok(), || {
        format!("probe: reading {} failed", aux.display())
    });
    out.set("db.bookshelf_read_s", t);
    let _ = std::fs::remove_dir_all(&dir);

    // Model and clustering.
    let (t, model) = rec.span("core.model.build", |_| {
        time_median(REPS, || Model::from_design(design, &gp_cp.placement))
    });
    out.set("core.model.build_s", t);
    let (t, levels) = rec.span("core.cluster.build_levels", |_| {
        time_median(REPS, || {
            rdp_core::cluster::build_levels(&model, input.opts.cluster_limit)
        })
    });
    out.set("core.cluster.build_levels_s", t);
    out.set("core.cluster.levels", levels.len() as f64);

    // GP kernels at 1 and 2 threads.
    let n = model.len();
    let gp = &input.opts.gp;
    let bins = ((n as f64).sqrt().ceil() as usize).clamp(16, 256);
    let die = model.die;
    let gamma = gp.gamma_mult * 0.5 * (die.width() / bins as f64 + die.height() / bins as f64);
    let regions = design.regions();
    let mut scratch = WlScratch::new();
    let zeros = || vec![0.0; n];
    let (_, wl_out) = kernel(
        rec,
        out,
        &pars,
        "core.wirelength.grad",
        |par| {
            let (mut gx, mut gy) = (zeros(), zeros());
            let wl = smooth_wl_grad_par(
                &model,
                gp.wirelength,
                gamma,
                &mut gx,
                &mut gy,
                &mut scratch,
                par,
            );
            (gx, gy, vec![wl])
        },
        flat,
    );
    let mut bell = build_fields(&model, regions, &[], bins, gp.target_density);
    let (_, bell_out) = kernel(
        rec,
        out,
        &pars,
        "core.density.bell_grad",
        |par| {
            let (mut gx, mut gy) = (zeros(), zeros());
            let pen = bell
                .iter_mut()
                .map(|f| f.penalty_grad_par(&model, &mut gx, &mut gy, par).penalty)
                .collect();
            (gx, gy, pen)
        },
        flat,
    );
    // Fused passes return (wirelength gradient, density gradient).
    let flat2 = |(w, d): &(Grad, Grad)| [flat(w), flat(d)].concat();
    let (bell_fused, (fused_wl, fused_den)) = kernel(
        rec,
        out,
        &pars,
        "core.fused.wl_bell_grad",
        |par| {
            let (mut wx, mut wy, mut dx, mut dy) = (zeros(), zeros(), zeros(), zeros());
            let (wl, stats) = fused_wl_den_grad(
                &model,
                gp.wirelength,
                gamma,
                &mut bell,
                &mut scratch,
                &mut wx,
                &mut wy,
                &mut dx,
                &mut dy,
                par,
            );
            ((wx, wy, vec![wl]), (dx, dy, vec![stats.penalty]))
        },
        flat2,
    );
    // The fused pass must equal the separate kernels bit for bit.
    out.check(
        same(&flat(&fused_wl), &flat(&wl_out))
            && same(&fused_den.0, &bell_out.0)
            && same(&fused_den.1, &bell_out.1),
        || "core.fused.wl_bell_grad differs from the separate kernels".into(),
    );
    let mut electro = build_electro_fields(&model, regions, &[], bins, gp.target_density);
    kernel(
        rec,
        out,
        &pars,
        "core.electrostatics.grad",
        |par| {
            let (mut gx, mut gy) = (zeros(), zeros());
            let pen = electro
                .iter_mut()
                .map(|f| f.penalty_grad_par(&model, &mut gx, &mut gy, par).penalty)
                .collect();
            (gx, gy, pen)
        },
        flat,
    );
    let (electro_fused, _) = kernel(
        rec,
        out,
        &pars,
        "core.fused.wl_electro_grad",
        |par| {
            let (mut wx, mut wy, mut dx, mut dy) = (zeros(), zeros(), zeros(), zeros());
            let (wl, stats) = fused_wl_electro_grad(
                &model,
                gp.wirelength,
                gamma,
                &mut electro,
                &mut scratch,
                &mut wx,
                &mut wy,
                &mut dx,
                &mut dy,
                par,
            );
            ((wx, wy, vec![wl]), (dx, dy, vec![stats.penalty]))
        },
        flat2,
    );
    let fft_n = bins.next_power_of_two();
    let mut rng = Rng::seed_from_u64(mix(args.seed, 0xff7));
    let signal: Vec<f64> = (0..fft_n * fft_n)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut plan = Fft2::new(fft_n, fft_n);
    kernel(
        rec,
        out,
        &pars,
        "geom.fft.fft2d",
        |par| {
            let mut re = signal.clone();
            let mut im = vec![0.0; re.len()];
            plan.forward(&mut re, &mut im, par);
            plan.inverse(&mut re, &mut im, par);
            (re, im, Vec::new())
        },
        flat,
    );
    // Share of the GP stage the gradient kernel of the run's engine
    // accounts for: evaluations × per-call time ÷ stage time.
    let per_call = match gp.density_model {
        rdp_core::GpDensityModel::Bell => bell_fused[1],
        rdp_core::GpDensityModel::Electrostatic => electro_fused[1],
    };
    out.set(
        "core.optimizer.grad_share",
        gp_out.gradient_evals as f64 * per_call / st.gp.max(1e-12),
    );

    // Congestion estimators and inflation on the global_place checkpoint.
    let gp_pl = &gp_cp.placement;
    let usage = |g: &RouteGrid| g.edge_ids().map(|e| g.usage(e)).collect::<Vec<f64>>();
    kernel(
        rec,
        out,
        &pars,
        "route.pattern.estimate",
        |par| estimate_congestion_par(design, gp_pl, par),
        usage,
    );
    kernel(
        rec,
        out,
        &pars,
        "route.learned.predict",
        |par| predict_congestion_par(design, gp_pl, EstimatorWeights::builtin(), par),
        usage,
    );
    let est = estimate_congestion_par(design, gp_pl, par2);
    let mut infl_models: Vec<Model> = (0..=REPS).map(|_| model.clone()).collect();
    let (t, stats) = rec.span("core.inflation.inflate", |_| {
        time_median(REPS, || {
            let mut m = infl_models.pop().unwrap_or_else(|| model.clone());
            inflate(&mut m, &est, InflationConfig::default())
        })
    });
    out.set("core.inflation.inflate_s", t);
    out.set("core.inflation.cells_inflated", stats.inflated as f64);

    // Legalization and detailed placement replays.
    let (t, lstats) = rec.span("core.legalize", |_| {
        time_median(REPS, || {
            let mut pl = pre_legal.placement.clone();
            rdp_core::legalize::legalize_with_displacement_par(design, &mut pl, par2)
        })
    });
    out.set("core.legalize.legalize_s", t);
    out.set("core.legalize.failed", lstats.failed as f64);
    out.set("core.legalize.displacement", lstats.total_displacement);
    let detail_grid = estimate_congestion_par(design, &legal_cp.placement, par2);
    let congestion = input.opts.routability.then_some(&detail_grid);
    let (t, dstats) = rec.span("core.detail", |_| {
        time_median(REPS, || {
            let mut pl = legal_cp.placement.clone();
            rdp_core::detail::detailed_place(design, &mut pl, congestion, input.opts.detail)
        })
    });
    out.set("core.detail.detail_s", t);
    out.set("core.detail.swaps", dstats.swaps as f64);
    out.set("core.detail.reorders", dstats.reorders as f64);

    // Routers on the final placement.
    let fin = &result.placement;
    let full = GlobalRouter::new(RouterConfig::default());
    let (t_full, routed) = rec.span("route.router.route2d", |_| {
        time_median(3, || full.route(design, fin))
    });
    let pattern_only = GlobalRouter::new(RouterConfig::builder().rounds(0).build());
    let (t_pattern, _) = rec.span("route.router.pattern", |_| {
        time_median(3, || pattern_only.route(design, fin))
    });
    let layered = GlobalRouter::new(RouterConfig::builder().layers(LayerMode::Layered).build());
    let (t3d, _) = rec.span("route.router.route3d", |_| {
        time_median(3, || layered.route(design, fin))
    });
    out.set("route.router.route2d_s", t_full);
    out.set("route.router.pattern_s", t_pattern);
    out.set("route.router.negotiation_s", (t_full - t_pattern).max(0.0));
    out.set("route.router.iterations", routed.iterations as f64);
    out.set("route.router.segments", routed.num_segments as f64);
    out.set("route.router.route3d_s", t3d);
    let mut moved_pl = fin.clone();
    let moved = workloads::seeded_move(design, &mut moved_pl, mix(args.seed, 0x3000), 0.05);
    let (t_rr, rr) = rec.span("route.router.reroute", |_| {
        time_median(3, || {
            full.reroute_incremental(&routed, design, &moved_pl, &moved)
        })
    });
    out.set("route.router.reroute_s", t_rr);
    out.set("route.router.reroute.dirty_nets", rr.dirty_nets as f64);
    out.set("route.router.reroute.vs_route", t_rr / t_full);
    eprintln!(
        "[ttqbench] reroute after a 5 % move: {t_rr:.4} s vs fresh route {t_full:.4} s (ratio {:.2}, {} dirty nets of {})",
        t_rr / t_full,
        rr.dirty_nets,
        design.nets().len()
    );

    // Scoring and the legality check.
    let session = EvalSession::new(design);
    let (t, _) = rec.span("eval.score", |_| time_median(3, || session.score(fin)));
    out.set("eval.score_s", t);
    let (t, legal) = rec.span("db.check_legal", |_| {
        time_median(REPS, || check_legal(design, fin, 32))
    });
    out.set("db.check_legal_s", t);
    out.check(legal.is_legal(), || {
        "probe: final placement is illegal".into()
    });

    // Pool dispatch cost: one `chunked_map` of two empty chunks.
    const CALLS: usize = 200;
    let (t, _) = rec.span("geom.parallel.dispatch", |_| {
        time_median(REPS, || {
            for _ in 0..CALLS {
                std::hint::black_box(chunked_map(par2, THREADS, |i| i));
            }
        })
    });
    out.set("geom.parallel.dispatch_us", 1e6 * t / CALLS as f64);
}

/// `serve.*` per-layer metrics for the workloads that do not drive the
/// job server themselves: three tiny seeded jobs through a 2-worker
/// server, so one waits in the queue.
pub fn serve_probe(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let server = rdp_serve::JobServer::start(workloads::server_config());
    let batch = rec.span("probe.serve", |rec| {
        workloads::closed_loop(&server, rec, true, Duration::ZERO, 3, |i| {
            let mut cfg = rdp_gen::GeneratorConfig::tiny(
                format!("probe-tiny{i}"),
                mix(args.seed, 0x7100 + i as u64),
            );
            if args.smoke {
                cfg.num_cells = 200;
            }
            rdp_serve::JobSpec::new(cfg)
        })
    });
    drop(server);
    batch.report_layers(out);
    out.check(batch.failures() == 0, || {
        "probe: a server job failed".into()
    });
}
