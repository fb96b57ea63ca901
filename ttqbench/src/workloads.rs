//! The four workloads: set-up, the measured loop, and the output checks.
//!
//! Every workload reports every end-to-end metric (see `README.md` for
//! what each one means on each workload). In the traced run the measured
//! loop alternates untraced and traced operations, so the tracing
//! overhead is measured inside one process, and the layer probe
//! ([`crate::probe`]) then measures every per-layer metric on the
//! workload's own inputs.

use crate::probe::{self, ProbeInput};
use crate::spans::Recorder;
use crate::stats::{median, mix, placement_hash};
use crate::{out_dir, Args, Outcome, THREADS};
use rdp_core::{
    CongestionSchedule, FlowCheckpoint, GpDensityModel, GpSolver, PlaceError, PlaceOptions,
    PlaceResult, Placer,
};
use rdp_db::validate::check_legal;
use rdp_db::{Design, NodeId, Placement};
use rdp_eval::EvalSession;
use rdp_gen::GeneratorConfig;
use rdp_geom::rng::Rng;
use rdp_geom::Point;
use rdp_route::{GlobalRouter, LayerMode, RouterConfig};
use rdp_serve::{JobServer, JobSpec, JobStatus, Rejected, ServerConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run: at least this many, and at least [`SETUP_SECS`] of
/// them; `setup_s` is their median.
const SETUP_REPS: usize = 15;
const SETUP_SECS: f64 = 0.5;
/// Violations `check_legal` lists before it stops collecting.
const MAX_VIOLATIONS: usize = 32;

/// Cells of the `flow-*` design: the suite's `h4` shape (8 fences,
/// 4 macros, 2 fixed blocks) scaled down so that several placements fit in
/// one run.
const FLOW_CELLS: usize = 1_000;
/// Jitter seeds per `flow-*` run (quality is their mean).
const FLOW_JITTERS: usize = 6;
/// Cells of the `route-congested` design: the suite's `s5` shape (8
/// macros, 3 fixed blocks, 22-track supply).
const ROUTE_CELLS: usize = 3_000;
/// Set-up repetitions of `route-congested`, whose set-up includes the
/// seed placement.
const SETUP_REPS_PLACED: usize = 3;
/// Incremental reroutes per routing cycle, each after a seeded move.
const REROUTE_CHAIN: usize = 2;
/// Share of movable standard cells each reroute step moves.
const MOVE_SHARE: f64 = 0.05;
/// Status poll interval of the closed-loop client.
const POLL: Duration = Duration::from_millis(2);

pub fn run(args: &Args, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "flow-hier" => flow(args, rec, &mut out, false),
        "flow-hier-eplace" => flow(args, rec, &mut out, true),
        "route-congested" => route(args, rec, &mut out),
        "serve-batch" => serve(args, rec, &mut out),
        other => out.errors.push(format!("unknown workload {other}")),
    }
    let _ = std::fs::remove_dir_all(bookshelf_dir());
    out
}

/// This process's Bookshelf scratch directory.
fn bookshelf_dir() -> std::path::PathBuf {
    out_dir().join(format!("bookshelf-{}", std::process::id()))
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

/// A design as the program sees it: read back from Bookshelf files.
pub struct Loaded {
    pub design: Design,
    pub placement: Placement,
}

/// Generation plus a Bookshelf write/read round trip.
pub fn setup_design(cfg: &GeneratorConfig, rec: &mut Recorder) -> Result<Loaded, String> {
    let bench = rec
        .span("gen.generate", |_| rdp_gen::generate(cfg))
        .map_err(|e| format!("generating {}: {e}", cfg.name))?;
    // Repeated set-ups overwrite the same files; `run` removes the
    // directory at the end.
    let dir = bookshelf_dir().join(&cfg.name);
    rec.span("db.bookshelf_write", |_| {
        rdp_db::bookshelf::write_design(&bench.design, &bench.placement, &dir)
    })
    .map_err(|e| format!("writing {}: {e}", dir.display()))?;
    let aux = dir.join(format!("{}.aux", bench.design.name()));
    let (design, placement) = rec
        .span("db.bookshelf_read", |_| {
            rdp_db::bookshelf::read_design(&aux)
        })
        .map_err(|e| format!("reading {}: {e}", aux.display()))?;
    if design.nodes().len() != bench.design.nodes().len()
        || design.nets().len() != bench.design.nets().len()
    {
        return Err(format!(
            "Bookshelf round trip of {} changed the netlist",
            cfg.name
        ));
    }
    Ok(Loaded { design, placement })
}

/// Runs set-ups (`f` gets the repetition index) until at least
/// `min_reps` ran and `min_secs` of set-up time passed, and records
/// `setup_s`, the median of their wall times.
fn repeated_setup<T>(
    rec: &mut Recorder,
    out: &mut Outcome,
    min_reps: usize,
    min_secs: f64,
    mut f: impl FnMut(&mut Recorder, usize) -> Result<T, String>,
) -> Option<Vec<T>> {
    let mut times = Vec::new();
    let mut all = Vec::new();
    while times.len() < min_reps || times.iter().sum::<f64>() < min_secs {
        let t = Instant::now();
        let v = rec.span("setup", |rec| f(rec, times.len()));
        times.push(t.elapsed().as_secs_f64());
        match v {
            Ok(v) => all.push(v),
            Err(e) => {
                out.errors.push(e);
                return None;
            }
        }
    }
    out.set("setup_s", median(&times));
    Some(all)
}

/// Checks that repeated set-ups produced identical inputs (compared by
/// fingerprint).
fn check_repeats<T: PartialEq + std::fmt::Debug>(
    out: &mut Outcome,
    what: &str,
    fingerprints: &[T],
) {
    out.check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
        format!("{what} is not deterministic: {fingerprints:x?}")
    });
    eprintln!("[ttqbench] {what} fingerprint {:x?}", fingerprints[0]);
}

/// One `Placer::run` with its stage marks (from the public checkpoint
/// sink) and, when `keep` is set, the checkpoints themselves.
pub struct Placed {
    pub result: Result<PlaceResult, PlaceError>,
    pub start: Instant,
    pub end: Instant,
    pub marks: Vec<(String, Instant)>,
    pub checkpoints: Vec<FlowCheckpoint>,
}

pub fn place(design: &Design, initial: &Placement, opts: PlaceOptions, keep: bool) -> Placed {
    let sink = Mutex::new((Vec::new(), Vec::new()));
    let initial = initial.clone();
    let start = Instant::now();
    let result = Placer::new(design, opts)
        .with_initial(initial)
        .with_checkpoint_sink(|cp: &FlowCheckpoint| {
            let mut s = sink.lock().expect("checkpoint sink poisoned");
            s.0.push((cp.stage.clone(), Instant::now()));
            if keep {
                s.1.push(cp.clone());
            }
        })
        .run();
    let end = Instant::now();
    let (marks, checkpoints) = sink.into_inner().expect("checkpoint sink poisoned");
    Placed {
        result,
        start,
        end,
        marks,
        checkpoints,
    }
}

/// Flow stage durations from the checkpoint marks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub gp: f64,
    pub inflate: f64,
    pub legalize: f64,
    pub detail: f64,
    pub rounds: usize,
}

impl Placed {
    fn mark(&self, stage: &str) -> Option<Instant> {
        self.marks.iter().find(|(s, _)| s == stage).map(|m| m.1)
    }

    fn last_inflate(&self) -> Option<Instant> {
        self.marks
            .iter()
            .rev()
            .find(|(s, _)| s.starts_with("inflate"))
            .map(|m| m.1)
    }

    pub fn stages(&self) -> Stages {
        let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
        let gp_end = self.mark("global_place").unwrap_or(self.start);
        let inflate_end = self.last_inflate().unwrap_or(gp_end);
        let legal_end = self.mark("legalize").unwrap_or(inflate_end);
        Stages {
            gp: secs(self.start, gp_end),
            inflate: secs(gp_end, inflate_end),
            legalize: secs(inflate_end, legal_end),
            detail: secs(legal_end, self.end),
            rounds: self
                .marks
                .iter()
                .filter(|(s, _)| s.starts_with("inflate"))
                .count(),
        }
    }

    /// Records the run as a `core.placer.run` span with one child per
    /// flow stage; a stage span ends at its checkpoint mark.
    pub fn record(&self, rec: &mut Recorder) {
        let Some(run) = rec.record("core.placer.run", self.start, self.end, None, None) else {
            return;
        };
        let mut prev = self.start;
        for (stage, t) in &self.marks {
            let name = match stage.as_str() {
                "global_place" => "core.placer.stage.gp",
                "legalize" => "core.placer.stage.legalize",
                _ => "core.placer.stage.inflate",
            };
            rec.record(name, prev, *t, Some(run), None);
            prev = *t;
        }
        rec.record("core.placer.stage.detail", prev, self.end, Some(run), None);
    }

    /// The last checkpoint whose stage name starts with `prefix`.
    pub fn checkpoint(&self, prefix: &str) -> Option<&FlowCheckpoint> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.stage.starts_with(prefix))
    }
}

/// Quality of one operation; repetitions must match it bit for bit.
#[derive(Debug, Clone, Copy)]
struct Quality {
    hpwl: f64,
    scaled_hpwl: f64,
    rc: f64,
    routed_overflow: f64,
    /// Further bits that must repeat (placement fingerprint etc.).
    extra: u64,
}

impl Quality {
    fn bits(&self) -> [u64; 5] {
        [
            self.hpwl.to_bits(),
            self.scaled_hpwl.to_bits(),
            self.rc.to_bits(),
            self.routed_overflow.to_bits(),
            self.extra,
        ]
    }

    /// Stores `q` as the quality of input `slot`, or checks it against the
    /// stored one.
    fn record(slots: &mut [Option<Quality>], slot: usize, q: Quality, errors: &mut Vec<String>) {
        match &slots[slot] {
            None => slots[slot] = Some(q),
            Some(prev) if prev.bits() != q.bits() => errors.push(format!(
                "input {slot}: quality differs between repetitions ({prev:?} vs {q:?})"
            )),
            Some(_) => {}
        }
    }

    /// Reports the mean quality over every input; an input never
    /// measured is a correctness failure.
    fn report_mean(slots: &[Option<Quality>], out: &mut Outcome) {
        let got: Vec<&Quality> = slots.iter().flatten().collect();
        out.check(got.len() == slots.len(), || {
            format!("only {} of {} inputs were measured", got.len(), slots.len())
        });
        let n = got.len().max(1) as f64;
        out.set("hpwl", got.iter().map(|q| q.hpwl).sum::<f64>() / n);
        out.set(
            "scaled_hpwl",
            got.iter().map(|q| q.scaled_hpwl).sum::<f64>() / n,
        );
        out.set("rc", got.iter().map(|q| q.rc).sum::<f64>() / n);
        out.set(
            "routed_overflow",
            got.iter().map(|q| q.routed_overflow).sum::<f64>() / n,
        );
    }
}

/// The measured loop shared by the `flow-*` and `route-congested`
/// workloads: runs `op(rec, i)` for i = 0, 1, ... until `seconds` have
/// passed and at least `min_iters` iterations ran. In the traced run
/// every second iteration is traced. Returns the untraced and traced
/// per-iteration latencies, the number of operations, and the loop's wall
/// time.
struct LoopStats {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    ops: usize,
    wall: f64,
}

fn measured_loop(
    args: &Args,
    rec: &mut Recorder,
    min_iters: usize,
    mut op: impl FnMut(&mut Recorder, usize) -> (f64, usize),
) -> LoopStats {
    let mut s = LoopStats {
        untraced: Vec::new(),
        traced: Vec::new(),
        ops: 0,
        wall: 0.0,
    };
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let traced = args.trace && i % 2 == 1;
        rec.set_enabled(traced);
        let (latency, ops) = op(rec, i);
        if traced {
            s.traced.push(latency);
        } else {
            s.untraced.push(latency);
        }
        s.ops += ops;
        i += 1;
        // The traced run needs at least one operation of each kind.
        let enough = i >= min_iters && (!args.trace || !s.traced.is_empty());
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    s.wall = start.elapsed().as_secs_f64();
    rec.set_enabled(args.trace);
    s
}

impl LoopStats {
    fn report(&self, out: &mut Outcome) {
        eprintln!("[ttqbench] untraced latencies (s): {:.4?}", self.untraced);
        out.set("latency_s", median(&self.untraced));
        out.set("ops_per_s", self.ops as f64 / self.wall);
        if !self.traced.is_empty() {
            let (u, t) = (median(&self.untraced), median(&self.traced));
            out.set("trace.overhead_s", t - u);
            out.set("trace.overhead_frac", (t - u) / u);
            eprintln!(
                "[ttqbench] tracing overhead: traced median {t:.4} s (n={}) - untraced median {u:.4} s (n={}) = {:+.4} s",
                self.traced.len(),
                self.untraced.len(),
                t - u
            );
        }
    }
}

// ---------------------------------------------------------------------
// flow-hier / flow-hier-eplace
// ---------------------------------------------------------------------

/// The suite's `h4` design (8 fences, 4 macros, 2 fixed blocks, seed
/// 204) scaled to [`FLOW_CELLS`]. The design is fixed; the workload seed
/// picks the placer's initial jitters.
pub fn flow_config(smoke: bool) -> GeneratorConfig {
    let mut cfg = rdp_eval::suite::fence_suite()
        .pop()
        .expect("the fence suite has h4");
    cfg.num_cells = if smoke { 700 } else { FLOW_CELLS };
    cfg.module_size = (cfg.num_cells / (4 * cfg.num_regions)).max(50);
    cfg
}

/// `PlaceOptions::default()` (what `rdp place` runs), optionally with the
/// Nesterov + electrostatic engine, with jitter seed `seed`.
fn flow_options(eplace: bool, seed: u64) -> PlaceOptions {
    let opts = PlaceOptions {
        seed,
        ..PlaceOptions::default()
    }
    .with_threads(THREADS);
    if eplace {
        opts.with_solver(GpSolver::Nesterov, GpDensityModel::Electrostatic)
    } else {
        opts
    }
}

fn flow(args: &Args, rec: &mut Recorder, out: &mut Outcome, eplace: bool) {
    let cfg = flow_config(args.smoke);
    let mut input = None;
    let Some(hashes) = repeated_setup(rec, out, SETUP_REPS, SETUP_SECS, |rec, _| {
        let l = setup_design(&cfg, rec)?;
        let h = placement_hash(&l.placement);
        input = Some(l);
        Ok(h)
    }) else {
        return;
    };
    check_repeats(out, "set-up", &hashes);
    let input = input.expect("at least one set-up ran");
    let session = EvalSession::new(&input.design);
    // Placement i uses jitter seed i mod FLOW_JITTERS; quality is the mean
    // over the jitters, and a repeated jitter must repeat bit for bit.
    let jitter = |i: usize| mix(args.seed, (i % FLOW_JITTERS) as u64);
    let mut quality = vec![None; FLOW_JITTERS];
    let mut last_placed: Option<(Placed, PlaceOptions)> = None;
    let mut failed = 0usize;
    let mut errors = Vec::new();
    let stats = measured_loop(args, rec, FLOW_JITTERS, |rec, i| {
        let opts = flow_options(eplace, jitter(i));
        let placed = place(&input.design, &input.placement, opts.clone(), rec.enabled());
        let latency = placed.end.duration_since(placed.start).as_secs_f64();
        placed.record(rec);
        let res = match &placed.result {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                errors.push(format!("placement failed: {e}"));
                return (latency, 1);
            }
        };
        let score = rec.span("eval.score", |_| session.score(&res.placement));
        let legal = rec.span("db.check_legal", |_| {
            check_legal(&input.design, &res.placement, MAX_VIOLATIONS)
        });
        if res.degraded.is_some() || !legal.is_legal() || res.legalize.failed > 0 {
            failed += 1;
        }
        if !legal.is_legal() {
            errors.push(format!(
                "illegal placement: {} violation(s)",
                legal.violations.len()
            ));
        }
        let q = Quality {
            hpwl: res.hpwl,
            scaled_hpwl: score.scaled_hpwl,
            rc: score.rc,
            routed_overflow: score.congestion.total_overflow,
            extra: placement_hash(&res.placement) ^ res.gp.overflow_ratio.to_bits(),
        };
        Quality::record(&mut quality, i % FLOW_JITTERS, q, &mut errors);
        if rec.enabled() {
            last_placed = Some((placed, opts));
        }
        (latency, 1)
    });
    stats.report(out);
    out.attempted = stats.ops;
    out.failed = failed;
    out.errors.extend(errors);
    Quality::report_mean(&quality, out);
    if let Some((placed, opts)) = &last_placed {
        probe::run(
            args,
            rec,
            out,
            ProbeInput {
                config: &cfg,
                design: &input.design,
                placed,
                opts,
            },
        );
        probe::serve_probe(args, rec, out);
    }
}

// ---------------------------------------------------------------------
// route-congested
// ---------------------------------------------------------------------

/// The suite's `s5` design (8 macros, 3 fixed blocks, 22-track supply,
/// seed 105) scaled to [`ROUTE_CELLS`]. The design and its seed placement
/// are fixed; the workload seed picks the cells each reroute step moves.
pub fn route_config(smoke: bool) -> GeneratorConfig {
    let mut cfg = rdp_eval::suite::standard_suite()
        .into_iter()
        .find(|c| c.name == "s5")
        .expect("the standard suite has s5");
    cfg.num_cells = if smoke { 600 } else { ROUTE_CELLS };
    cfg
}

/// The placement the `route-congested` workload routes: a wirelength-
/// driven fast placement, which is harder to route than a routability-
/// driven one.
fn route_seed_options() -> PlaceOptions {
    PlaceOptions::fast()
        .wirelength_driven()
        .with_threads(THREADS)
}

/// Moves `share` of the movable standard cells by up to four rows in each
/// direction (clamped to the die), seeded; returns the moved ids.
pub fn seeded_move(design: &Design, pl: &mut Placement, seed: u64, share: f64) -> Vec<NodeId> {
    let mut rng = Rng::seed_from_u64(seed);
    let cells: Vec<NodeId> = design
        .movable_ids()
        .filter(|&id| design.node(id).is_std_cell())
        .collect();
    let count = ((cells.len() as f64 * share).round() as usize).clamp(1, cells.len().max(1));
    let die = design.die();
    let reach = 4.0 * design.rows().first().map_or(10.0, |r| r.height());
    let mut picked = cells;
    rng.shuffle(&mut picked);
    picked.truncate(count);
    picked.sort();
    for &id in &picked {
        let c = pl.center(id);
        let x = (c.x + rng.gen_range(-reach..reach)).clamp(die.xl, die.xh);
        let y = (c.y + rng.gen_range(-reach..reach)).clamp(die.yl, die.yh);
        pl.set_center(id, Point::new(x, y));
    }
    picked
}

fn route(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let cfg = route_config(args.smoke);
    let options = route_seed_options();
    // Set-up: generate and read the design, then place it.
    let Some(mut inputs) = repeated_setup(rec, out, SETUP_REPS_PLACED, 0.0, |rec, r| {
        let l = setup_design(&cfg, rec)?;
        let placed = place(
            &l.design,
            &l.placement,
            options.clone(),
            args.trace && r == 0,
        );
        placed.record(rec);
        let res = placed
            .result
            .as_ref()
            .map_err(|e| format!("seed placement failed: {e}"))?;
        let legal = check_legal(&l.design, &res.placement, MAX_VIOLATIONS);
        if !legal.is_legal() || res.degraded.is_some() {
            return Err(format!(
                "seed placement is not clean: {} violation(s), degraded {}",
                legal.violations.len(),
                res.degraded.is_some()
            ));
        }
        Ok((l, placed))
    }) else {
        return;
    };
    let hashes: Vec<u64> = inputs
        .iter()
        .map(|(_, p)| {
            p.result
                .as_ref()
                .map_or(0, |r| placement_hash(&r.placement))
        })
        .collect();
    check_repeats(out, "seed placement", &hashes);
    let (loaded, placed) = inputs.swap_remove(0);
    let design = &loaded.design;
    let placement = placed
        .result
        .as_ref()
        .expect("checked in set-up")
        .placement
        .clone();
    // The move chain is fixed before timing: step k moves a seeded 5 % of
    // the cells of step k-1's placement.
    let mut chain = Vec::with_capacity(REROUTE_CHAIN);
    let mut cur = placement.clone();
    for k in 0..REROUTE_CHAIN {
        let moved = seeded_move(
            design,
            &mut cur,
            mix(args.seed, 0x3000 + k as u64),
            MOVE_SHARE,
        );
        chain.push((cur.clone(), moved));
    }
    let router2d = GlobalRouter::new(RouterConfig::default());
    let router3d = GlobalRouter::new(RouterConfig::builder().layers(LayerMode::Layered).build());

    // Quality slots: the fresh route, then each reroute of the chain.
    let mut quality = vec![None; 1 + REROUTE_CHAIN];
    let mut failed = 0usize;
    let mut errors = Vec::new();
    let (mut t2d, mut t3d, mut trr) = (Vec::new(), Vec::new(), Vec::new());
    let quality_of = |pl: &Placement, o: &rdp_route::RoutingOutcome, extra: u64| {
        let hpwl = rdp_db::hpwl::total_hpwl(design, pl);
        Quality {
            hpwl,
            scaled_hpwl: hpwl * o.metrics.penalty_factor(),
            rc: o.metrics.rc,
            routed_overflow: o.metrics.total_overflow,
            extra,
        }
    };
    // One iteration is a routing cycle: a fresh 2-D route, a layered 3-D
    // route, then the reroute chain warm-started from the 2-D result.
    let stats = measured_loop(args, rec, 1, |rec, _| {
        let start = Instant::now();
        let (o2, dt) = timed(|| {
            rec.span("route.router.route2d", |_| {
                router2d.route(design, &placement)
            })
        });
        t2d.push(dt);
        let (o3, dt) = timed(|| {
            rec.span("route.router.route3d", |_| {
                router3d.route(design, &placement)
            })
        });
        t3d.push(dt);
        let mut truncated = o2.budget_truncated || o3.budget_truncated;
        Quality::record(
            &mut quality,
            0,
            quality_of(&placement, &o2, o3.metrics.total_overflow.to_bits()),
            &mut errors,
        );
        let mut prev = o2;
        for (k, (moved_pl, moved)) in chain.iter().enumerate() {
            let (next, dt) = timed(|| {
                rec.span("route.router.reroute", |_| {
                    router2d.reroute_incremental(&prev, design, moved_pl, moved)
                })
            });
            trr.push(dt);
            truncated |= next.budget_truncated;
            Quality::record(
                &mut quality,
                k + 1,
                quality_of(moved_pl, &next, next.dirty_nets as u64),
                &mut errors,
            );
            prev = next;
        }
        if truncated {
            failed += 1;
        }
        (start.elapsed().as_secs_f64(), 2 + chain.len())
    });
    stats.report(out);
    out.attempted = stats.ops;
    out.failed = failed;
    out.errors.extend(errors);
    Quality::report_mean(&quality, out);
    eprintln!(
        "[ttqbench] route-congested: fresh 2-D {:.4} s, 3-D {:.4} s, reroute (5 % moved) {:.4} s per call (medians)",
        median(&t2d),
        median(&t3d),
        median(&trr)
    );
    if args.trace {
        probe::run(
            args,
            rec,
            out,
            ProbeInput {
                config: &cfg,
                design,
                placed: &placed,
                opts: &options,
            },
        );
        probe::serve_probe(args, rec, out);
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------
// serve-batch
// ---------------------------------------------------------------------

/// Workers of the job server; each job's placer runs on one thread.
pub const SERVE_WORKERS: usize = THREADS;

/// Designs in the `serve-batch` pool: two each of small (2k cells),
/// hierarchical (2k cells, 3 fences) and tiny (500 cells), with fixed
/// design seeds.
pub const JOB_POOL: usize = 6;

/// The pool entry a job runs, by pool index.
fn pool_config(p: usize, smoke: bool) -> GeneratorConfig {
    let seed = 700 + p as u64;
    let mut cfg = match p % 3 {
        0 => GeneratorConfig::small(format!("small{p}"), seed),
        1 => GeneratorConfig::hierarchical(format!("hier{p}"), seed, 3),
        _ => GeneratorConfig::tiny(format!("tiny{p}"), seed),
    };
    // The smoke size shrinks only the small design: fenced designs much
    // below 2k cells leave the fences too tight to legalize.
    if smoke && p.is_multiple_of(3) {
        cfg.num_cells = 700;
    }
    cfg
}

/// Pool index of job `i`: the sequence runs through the pool once per
/// cycle of [`JOB_POOL`] jobs, each cycle in an order drawn from the
/// workload seed, so every stretch of a cycle has the same mix.
pub fn job_pool_index(seed: u64, i: usize) -> usize {
    let mut order: Vec<usize> = (0..JOB_POOL).collect();
    Rng::seed_from_u64(mix(seed, (i / JOB_POOL) as u64)).shuffle(&mut order);
    order[i % JOB_POOL]
}

/// Job `i` of the seeded sequence. A job repeating a pool design reuses
/// the server's cached copy of it, so the server's memory levels off
/// after the first cycle.
pub fn job_spec(seed: u64, i: usize, smoke: bool) -> JobSpec {
    JobSpec::new(pool_config(job_pool_index(seed, i), smoke))
}

pub fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_workers(SERVE_WORKERS)
        .with_threads_per_job(1)
        .with_estimator(CongestionSchedule::auto())
        .with_scoring()
}

/// What the closed-loop client observed of one job.
pub struct JobObs {
    pub index: usize,
    pub id: u64,
    pub submitted: Instant,
    pub running: Option<Instant>,
    pub finished: Instant,
    pub status: JobStatus,
    pub traced: bool,
}

pub struct BatchStats {
    pub jobs: Vec<JobObs>,
    pub rejected: usize,
    pub wall: f64,
}

/// Closed-loop client: keeps `SERVE_WORKERS + 1` jobs in flight (so one
/// always waits in the queue), submitting job `i` of `spec(i)` as another
/// finishes, until `until` has passed and the number of jobs submitted is
/// a positive multiple of `cycle`; then drains. Status is polled every
/// [`POLL`]. In the traced run every second job is traced (a `serve.job`
/// span with `serve.queue` and `serve.run` children, tagged with the job
/// id).
pub fn closed_loop(
    server: &JobServer,
    rec: &mut Recorder,
    trace: bool,
    until: Duration,
    cycle: usize,
    mut spec: impl FnMut(usize) -> JobSpec,
) -> BatchStats {
    let start = Instant::now();
    let mut in_flight: Vec<JobObs> = Vec::new();
    let mut done = Vec::new();
    let mut rejected = 0usize;
    let mut next = 0usize;
    loop {
        let open = start.elapsed() < until || next == 0 || !next.is_multiple_of(cycle);
        while open && in_flight.len() < SERVE_WORKERS + 1 {
            let submitted = Instant::now();
            match server.submit(spec(next)) {
                Ok(id) => in_flight.push(JobObs {
                    index: next,
                    id,
                    submitted,
                    running: None,
                    finished: submitted,
                    status: JobStatus::Queued,
                    traced: trace && next.is_multiple_of(2),
                }),
                Err(Rejected::QueueFull { retry_after }) => {
                    rejected += 1;
                    std::thread::sleep(retry_after);
                    continue;
                }
                Err(e) => {
                    eprintln!("[ttqbench] job {next} rejected: {e}");
                    rejected += 1;
                }
            }
            next += 1;
        }
        if !open && in_flight.is_empty() {
            break;
        }
        std::thread::sleep(POLL);
        let now = Instant::now();
        let mut k = 0;
        while k < in_flight.len() {
            let status = server.status(in_flight[k].id).unwrap_or(JobStatus::Shed);
            let job = &mut in_flight[k];
            if matches!(status, JobStatus::Running { .. }) && job.running.is_none() {
                job.running = Some(now);
            }
            if status.is_terminal() {
                let mut job = in_flight.swap_remove(k);
                job.finished = now;
                job.status = status;
                if job.traced {
                    let parent =
                        rec.record("serve.job", job.submitted, job.finished, None, Some(job.id));
                    let run_at = job.running.unwrap_or(job.submitted);
                    rec.record("serve.queue", job.submitted, run_at, parent, Some(job.id));
                    rec.record("serve.run", run_at, job.finished, parent, Some(job.id));
                }
                done.push(job);
            } else {
                k += 1;
            }
        }
    }
    done.sort_by_key(|j| j.index);
    BatchStats {
        jobs: done,
        rejected,
        wall: start.elapsed().as_secs_f64(),
    }
}

impl BatchStats {
    fn latencies(&self, traced: Option<bool>) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| traced.is_none_or(|t| j.traced == t))
            .map(|j| j.finished.duration_since(j.submitted).as_secs_f64())
            .collect()
    }

    /// The `serve.*` per-layer metrics.
    pub fn report_layers(&self, out: &mut Outcome) {
        let waits: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| {
                j.running
                    .unwrap_or(j.submitted)
                    .duration_since(j.submitted)
                    .as_secs_f64()
            })
            .collect();
        let runs: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| {
                j.finished
                    .duration_since(j.running.unwrap_or(j.submitted))
                    .as_secs_f64()
            })
            .collect();
        let attempts: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| match &j.status {
                JobStatus::Done(r) | JobStatus::Degraded(r) => r.attempts as f64,
                JobStatus::Failed { attempts, .. } => *attempts as f64,
                _ => 0.0,
            })
            .collect();
        out.set("serve.queue_wait_s", median(&waits));
        out.set("serve.run_s", median(&runs));
        out.set(
            "serve.attempts",
            attempts.iter().sum::<f64>() / attempts.len().max(1) as f64,
        );
        out.set(
            "serve.shed",
            self.jobs
                .iter()
                .filter(|j| matches!(j.status, JobStatus::Shed))
                .count() as f64,
        );
        out.set("serve.rejected", self.rejected as f64);
    }

    /// Jobs that did not end `Done`, plus rejected submissions.
    pub fn failures(&self) -> usize {
        self.rejected
            + self
                .jobs
                .iter()
                .filter(|j| !matches!(j.status, JobStatus::Done(_)))
                .count()
    }
}

fn serve(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let spec = |i: usize| job_spec(args.seed, i, args.smoke);
    // Set-up: what the pool's inputs cost to produce as files.
    let pool: Vec<GeneratorConfig> = (0..JOB_POOL).map(|p| pool_config(p, args.smoke)).collect();
    let Some(hashes) = repeated_setup(rec, out, SETUP_REPS, SETUP_SECS, |rec, _| {
        pool.iter()
            .map(|cfg| setup_design(cfg, rec).map(|l| placement_hash(&l.placement)))
            .collect::<Result<Vec<_>, _>>()
    }) else {
        return;
    };
    check_repeats(out, "job pool set-up", &hashes);

    let server = JobServer::start(server_config());
    let batch = closed_loop(
        &server,
        rec,
        args.trace,
        Duration::from_secs_f64(args.seconds),
        JOB_POOL,
        spec,
    );
    drop(server);

    out.attempted = batch.jobs.len() + batch.rejected;
    out.failed = batch.failures();
    let last = batch.jobs.iter().map(|j| j.finished).max();
    let first_submit = batch.jobs.iter().map(|j| j.submitted).min();
    if let (Some(a), Some(b)) = (first_submit, last) {
        out.set(
            "ops_per_s",
            batch.jobs.len() as f64 / b.duration_since(a).as_secs_f64(),
        );
    }
    let lat = batch.latencies(if args.trace { Some(false) } else { None });
    out.set("latency_s", median(&lat));
    let all = batch.latencies(None);
    // The highest percentile with at least ten samples beyond it.
    let mut sorted = all.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = match sorted.len().checked_sub(10) {
        Some(k) if k > sorted.len() / 2 => {
            format!(
                ", p{:.0} {:.3} s",
                100.0 * k as f64 / sorted.len() as f64,
                sorted[k - 1]
            )
        }
        _ => ", no tail percentile above the median has ten samples beyond it".to_string(),
    };
    eprintln!(
        "[ttqbench] serve-batch: {} jobs in {:.2} s, latency median {:.3} s (n={}){tail}",
        batch.jobs.len(),
        batch.wall,
        median(&all),
        all.len()
    );
    if args.trace {
        let (u, t) = (
            median(&batch.latencies(Some(false))),
            median(&batch.latencies(Some(true))),
        );
        out.set("trace.overhead_s", t - u);
        out.set("trace.overhead_frac", (t - u) / u);
        eprintln!("[ttqbench] tracing overhead: traced job latency {t:.4} s - untraced {u:.4} s = {:+.4} s", t - u);
        batch.report_layers(out);
    }

    // Output checks: every job's placement is legal and every run of a
    // pool design repeats its HPWL bit for bit. Quality sums over the
    // first cycle (the whole pool), re-scored directly and compared with
    // the server's own score.
    let (mut hpwl, mut scaled, mut rc, mut overflow) = (0.0, 0.0, 0.0, 0.0);
    let mut pool_hpwl: Vec<Option<u64>> = vec![None; JOB_POOL];
    let mut oracle_input = None;
    for job in &batch.jobs {
        let Some(report) = job.status.report() else {
            out.errors
                .push(format!("job {} ended {}", job.index, job.status.kind()));
            continue;
        };
        let p = job_pool_index(args.seed, job.index);
        match pool_hpwl[p] {
            None => pool_hpwl[p] = Some(report.hpwl.to_bits()),
            Some(bits) => out.check(bits == report.hpwl.to_bits(), || {
                format!(
                    "job {} (pool design {p}) did not repeat its HPWL",
                    job.index
                )
            }),
        }
        let gen = spec(job.index).gen;
        let bench = match rdp_gen::generate(&gen) {
            Ok(b) => b,
            Err(e) => {
                out.errors
                    .push(format!("regenerating job {}: {e}", job.index));
                continue;
            }
        };
        let legal = check_legal(&bench.design, &report.placement, MAX_VIOLATIONS);
        if !legal.is_legal() {
            out.failed += 1;
            out.errors
                .push(format!("job {} placement is illegal", job.index));
        }
        if args.trace {
            // Serial oracle: a direct `Placer::run` of the same spec must
            // give the same placement bit for bit.
            let opts = PlaceOptions::fast()
                .with_threads(THREADS)
                .with_estimator(CongestionSchedule::auto());
            let keep = oracle_input.is_none();
            let placed = rec.span("serve.oracle", |_| {
                place(&bench.design, &bench.placement, opts.clone(), keep)
            });
            match &placed.result {
                Ok(r) => out.check(
                    r.hpwl.to_bits() == report.hpwl.to_bits()
                        && placement_hash(&r.placement) == placement_hash(&report.placement),
                    || {
                        format!(
                            "job {} differs from the serial oracle: {} vs {}",
                            job.index, report.hpwl, r.hpwl
                        )
                    },
                ),
                Err(e) => out
                    .errors
                    .push(format!("oracle of job {} failed: {e}", job.index)),
            }
            if keep {
                oracle_input = Some((gen.clone(), bench.design.clone(), placed, opts));
            }
        }
        if job.index < JOB_POOL {
            let score = EvalSession::new(&bench.design).score(&report.placement);
            out.check(
                report.scaled_hpwl.map(f64::to_bits) == Some(score.scaled_hpwl.to_bits()),
                || {
                    format!(
                        "job {}: server score {:?} differs from a direct score {}",
                        job.index, report.scaled_hpwl, score.scaled_hpwl
                    )
                },
            );
            hpwl += report.hpwl;
            scaled += score.scaled_hpwl;
            rc += score.rc / JOB_POOL as f64;
            overflow += score.congestion.total_overflow;
        }
    }
    out.check(
        batch
            .jobs
            .iter()
            .filter(|j| j.index < JOB_POOL && j.status.report().is_some())
            .count()
            == JOB_POOL,
        || format!("fewer than {JOB_POOL} jobs completed"),
    );
    out.set("hpwl", hpwl);
    out.set("scaled_hpwl", scaled);
    out.set("rc", rc);
    out.set("routed_overflow", overflow);

    if let Some((gen, design, placed, opts)) = &oracle_input {
        probe::run(
            args,
            rec,
            out,
            ProbeInput {
                config: gen,
                design,
                placed,
                opts,
            },
        );
    }
}
