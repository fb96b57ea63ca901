//! The end-to-end placement pipeline: multilevel clustering → analytical
//! global placement (hierarchy-aware, with macro rotation) → routability
//! optimization (congestion-driven inflation) → legalization → detailed
//! placement.

use crate::cluster::{build_levels, project_down};
use crate::detail::{detailed_place, DetailOptions, DetailStats};
use crate::inflation::{inflate, InflationConfig, InflationStats};
use crate::legalize::{legalize_with_displacement_par, LegalizeStats};
use crate::macro_handling::optimize_macro_orientations;
use crate::model::Model;
use crate::optimizer::{run_global_place, GpOptions, GpOutcome};
use crate::recovery::{
    BudgetClock, DegradedResult, Diverged, FlowBudget, FlowCheckpoint, RecoveryEvent,
};
use crate::trace::Trace;
use rdp_db::{Design, NodeId, Placement, Region};
use rdp_geom::{Point, Rect};
use rdp_route::{GlobalRouter, RouteGrid, RouterConfig, RoutingOutcome};
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Error cases of [`Placer::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The design has no movable nodes.
    NothingToPlace,
    /// The design has standard cells but no rows to legalize them into.
    NoRows,
    /// Global placement diverged beyond recovery and no feasible
    /// checkpoint exists to fall back to (e.g. the *initial* placement was
    /// already non-finite). Mid-flow divergence never reaches this: it
    /// rolls back to the latest [`FlowCheckpoint`] and reports a
    /// [`DegradedResult`] instead.
    Diverged {
        /// The stage that diverged.
        stage: String,
        /// Recovery retries spent before giving up.
        retries: usize,
    },
    /// A checkpoint passed to [`Placer::resume_from`] does not fit the
    /// design (wrong node count, wrong object count, or non-finite state).
    BadResume {
        /// What was inconsistent.
        reason: String,
    },
    /// The cancel token fired and [`Placer::run`] (rather than
    /// [`Placer::run_resumable`], which returns the checkpoint) was used.
    Interrupted {
        /// Stage of the checkpoint the run stopped at.
        stage: String,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::NothingToPlace => write!(f, "design has no movable nodes"),
            PlaceError::NoRows => write!(f, "design has standard cells but no placement rows"),
            PlaceError::Diverged { stage, retries } => write!(
                f,
                "placement diverged unrecoverably in stage `{stage}` ({retries} recovery retries, no checkpoint to restore)"
            ),
            PlaceError::BadResume { reason } => {
                write!(f, "resume checkpoint does not fit the design: {reason}")
            }
            PlaceError::Interrupted { stage } => {
                write!(f, "placement interrupted by cancel token at stage `{stage}`")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Macro-orientation optimization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationMode {
    /// Greedy argmin over the eight orientations against exact incident
    /// HPWL (robust; the default).
    #[default]
    Discrete,
    /// The paper's continuous rotation force: a per-macro angle variable
    /// optimized analytically and snapped to quarter turns, followed by a
    /// discrete flipping decision.
    Continuous,
}

/// One tier of the congestion-estimator ladder, cheapest to most
/// accurate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionSource {
    /// The fast probabilistic pattern estimate
    /// ([`rdp_route::pattern::estimate_congestion_into`]).
    #[default]
    Probabilistic,
    /// The learned per-edge regressor ([`rdp_route::learned`]): trained
    /// offline on the router's own overflow, a few times the estimator's
    /// cost and a fraction of the router's.
    Learned,
    /// *True routed* congestion from the negotiation router: the first
    /// router round routes the design from scratch, every later one calls
    /// [`GlobalRouter::reroute_incremental`] on just the moved cells.
    Router,
}

impl CongestionSource {
    /// Short label, as it appears in the trace CSV `estimator_tier`
    /// column and the CLI `--estimator` flag.
    pub fn label(self) -> &'static str {
        match self {
            CongestionSource::Probabilistic => "prob",
            CongestionSource::Learned => "learned",
            CongestionSource::Router => "router",
        }
    }
}

/// Which [`CongestionSource`] each routability round consumes.
///
/// The default ([`CongestionSchedule::Uniform`] probabilistic) is
/// byte-identical to the historical estimator-only loop;
/// [`CongestionSchedule::auto`] is the recommended ladder — cheap learned
/// tiers early, the real incremental router for the last round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongestionSchedule {
    /// Every round uses the same source.
    Uniform(CongestionSource),
    /// Round `i` uses `sources[i]`; rounds beyond the list repeat the
    /// last entry (an empty list behaves like the default).
    PerRound(Vec<CongestionSource>),
    /// The learned tier for every round except the final `router_tail`
    /// rounds, which use the incremental router.
    Ladder {
        /// How many trailing rounds get true routed congestion.
        router_tail: usize,
    },
}

impl Default for CongestionSchedule {
    fn default() -> Self {
        CongestionSchedule::Uniform(CongestionSource::Probabilistic)
    }
}

impl CongestionSchedule {
    /// The recommended ladder: learned rounds early, one router round
    /// last.
    pub fn auto() -> Self {
        CongestionSchedule::Ladder { router_tail: 1 }
    }

    /// The source of inflation round `round` out of `total_rounds`.
    pub fn source_for(&self, round: usize, total_rounds: usize) -> CongestionSource {
        match self {
            CongestionSchedule::Uniform(s) => *s,
            CongestionSchedule::PerRound(v) => v
                .get(round)
                .or(v.last())
                .copied()
                .unwrap_or_default(),
            CongestionSchedule::Ladder { router_tail } => {
                if round + router_tail >= total_rounds {
                    CongestionSource::Router
                } else {
                    CongestionSource::Learned
                }
            }
        }
    }

    /// Parses the CLI spelling: `prob`, `learned`, `router` (uniform
    /// schedules) or `auto` (the ladder).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "prob" => Some(CongestionSchedule::Uniform(CongestionSource::Probabilistic)),
            "learned" => Some(CongestionSchedule::Uniform(CongestionSource::Learned)),
            "router" => Some(CongestionSchedule::Uniform(CongestionSource::Router)),
            "auto" => Some(CongestionSchedule::auto()),
            _ => None,
        }
    }
}

/// How the routability loop obtains its congestion picture: a
/// [`CongestionSchedule`] over the three estimator tiers, plus the router
/// and learned-tier configuration. Construct via
/// [`GpRoutabilityOptions::builder`] (mirrors [`RouterConfig::builder`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct GpRoutabilityOptions {
    /// Router configuration of the [`CongestionSource::Router`] tier. Its
    /// `parallelism` is overridden by [`GpOptions::parallelism`] so the
    /// whole pipeline shares one thread-count knob.
    pub router: RouterConfig,
    /// Which tier each inflation round consumes.
    pub schedule: CongestionSchedule,
    /// Weights of the [`CongestionSource::Learned`] tier; `None` uses the
    /// checked-in [`rdp_route::EstimatorWeights::builtin`] set.
    pub estimator_weights: Option<rdp_route::EstimatorWeights>,
}

impl Default for GpRoutabilityOptions {
    fn default() -> Self {
        GpRoutabilityOptions::builder().build()
    }
}

impl GpRoutabilityOptions {
    /// Starts a builder with the default (probabilistic-only) schedule.
    pub fn builder() -> GpRoutabilityOptionsBuilder {
        GpRoutabilityOptionsBuilder::default()
    }

    /// A builder seeded with this configuration, for deriving variants.
    pub fn to_builder(&self) -> GpRoutabilityOptionsBuilder {
        GpRoutabilityOptionsBuilder {
            router: self.router.clone(),
            schedule: self.schedule.clone(),
            estimator_weights: self.estimator_weights.clone(),
        }
    }

    /// The learned-tier weights in effect (explicit or built-in).
    pub fn weights(&self) -> &rdp_route::EstimatorWeights {
        self.estimator_weights
            .as_ref()
            .unwrap_or_else(|| rdp_route::EstimatorWeights::builtin())
    }
}

/// Builder of [`GpRoutabilityOptions`] (the congestion-source half of the
/// placement options), mirroring [`RouterConfig::builder`].
///
/// # Examples
///
/// ```
/// use rdp_core::{CongestionSchedule, GpRoutabilityOptions};
///
/// let opts = GpRoutabilityOptions::builder()
///     .schedule(CongestionSchedule::auto())
///     .build();
/// assert_eq!(opts.schedule, CongestionSchedule::auto());
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpRoutabilityOptionsBuilder {
    router: RouterConfig,
    schedule: CongestionSchedule,
    estimator_weights: Option<rdp_route::EstimatorWeights>,
}

impl GpRoutabilityOptionsBuilder {
    /// Sets the router configuration of the router tier.
    pub fn router(mut self, config: RouterConfig) -> Self {
        self.router = config;
        self
    }

    /// Sets the per-round congestion schedule.
    pub fn schedule(mut self, schedule: CongestionSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Shorthand for a uniform schedule over one source.
    pub fn source(self, source: CongestionSource) -> Self {
        self.schedule(CongestionSchedule::Uniform(source))
    }

    /// Overrides the learned-tier weights (default: the checked-in set).
    pub fn estimator_weights(mut self, weights: rdp_route::EstimatorWeights) -> Self {
        self.estimator_weights = Some(weights);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> GpRoutabilityOptions {
        GpRoutabilityOptions {
            router: self.router,
            schedule: self.schedule,
            estimator_weights: self.estimator_weights,
        }
    }
}

/// Configuration of a full placement run.
///
/// The presets encode the experiment configurations of DESIGN.md:
/// [`PlaceOptions::default`] is the paper's full flow,
/// [`PlaceOptions::wirelength_driven`] is baseline **B1** (no routability),
/// [`PlaceOptions::fence_blind`] is **B2**, [`PlaceOptions::flat`] is
/// **B3**, and `with_wirelength(Lse)` gives **B4**.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceOptions {
    /// Global-placement engine options.
    pub gp: GpOptions,
    /// Enable multilevel clustering.
    pub multilevel: bool,
    /// Stop coarsening below this object count.
    pub cluster_limit: usize,
    /// Honor fence regions during global placement (region density fields
    /// + pull-in force). Legalization always honors them.
    pub hierarchy_aware: bool,
    /// Enable the congestion-driven routability loop.
    pub routability: bool,
    /// Routability rounds.
    pub inflation_rounds: usize,
    /// Inflation tuning.
    pub inflation: InflationConfig,
    /// Congestion source of the routability loop (pattern estimate vs the
    /// incremental negotiation router).
    pub routability_opts: GpRoutabilityOptions,
    /// Spread cells out of hot spots by inflating their density area
    /// (the paper's primary mechanism).
    pub inflate_cells: bool,
    /// Additionally shorten congested nets by boosting their weights (the
    /// alternative mechanism several contest placers used; off by default).
    pub net_weighting: bool,
    /// Net-weighting tuning.
    pub net_weighting_config: crate::net_weighting::NetWeightingConfig,
    /// Enable macro rotation/flipping optimization.
    pub macro_rotation: bool,
    /// How macro orientations are optimized (discrete re-selection or the
    /// paper's continuous rotation force; see [`crate::rotation`]).
    pub rotation_mode: RotationMode,
    /// Run detailed placement after legalization.
    pub detailed: bool,
    /// Detailed-placement tuning.
    pub detail: DetailOptions,
    /// Wall-clock budgets; the default is unlimited. See [`FlowBudget`]
    /// for the truncation semantics of each scope.
    pub budget: FlowBudget,
    /// Seed for the symmetry-breaking initial jitter.
    pub seed: u64,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            gp: GpOptions::default(),
            multilevel: true,
            cluster_limit: 1500,
            hierarchy_aware: true,
            routability: true,
            inflation_rounds: 3,
            inflation: InflationConfig::default(),
            routability_opts: GpRoutabilityOptions::default(),
            inflate_cells: true,
            net_weighting: false,
            net_weighting_config: crate::net_weighting::NetWeightingConfig::default(),
            rotation_mode: RotationMode::Discrete,
            macro_rotation: true,
            detailed: true,
            detail: DetailOptions { passes: 2, congestion_weight: 8.0, ..DetailOptions::default() },
            budget: FlowBudget::default(),
            seed: 1,
        }
    }
}

impl PlaceOptions {
    /// Reduced-effort preset for tests, examples and CI.
    pub fn fast() -> Self {
        PlaceOptions {
            gp: GpOptions {
                max_outer: 14,
                inner_iters: 25,
                overflow_target: 0.12,
                ..GpOptions::default()
            },
            inflation_rounds: 2,
            detail: DetailOptions { passes: 1, congestion_weight: 8.0, ..DetailOptions::default() },
            ..PlaceOptions::default()
        }
    }

    /// Baseline **B1**: pure wirelength-driven placement (NTUplace4-like) —
    /// no congestion estimation, no inflation.
    pub fn wirelength_driven(self) -> Self {
        PlaceOptions {
            routability: false,
            detail: DetailOptions { congestion_weight: 0.0, ..self.detail },
            ..self
        }
    }

    /// Baseline **B2**: hierarchy-blind global placement (fences only seen
    /// by the legalizer).
    pub fn fence_blind(self) -> Self {
        PlaceOptions { hierarchy_aware: false, ..self }
    }

    /// Baseline **B3**: flat (non-multilevel) global placement.
    pub fn flat(self) -> Self {
        PlaceOptions { multilevel: false, ..self }
    }

    /// Selects the smooth wirelength model (**T4** compares Wa vs Lse).
    pub fn with_wirelength(mut self, model: crate::WirelengthModel) -> Self {
        self.gp.wirelength = model;
        self
    }

    /// Disables macro rotation (**T5** ablation).
    pub fn without_rotation(self) -> Self {
        PlaceOptions { macro_rotation: false, ..self }
    }

    /// Switches the routability mechanism from cell inflation to
    /// congestion-driven net weighting (**T5** compares both).
    pub fn with_net_weighting_only(self) -> Self {
        PlaceOptions {
            inflate_cells: false,
            net_weighting: true,
            ..self
        }
    }

    /// Uses the continuous rotation force instead of discrete orientation
    /// re-selection.
    pub fn with_continuous_rotation(self) -> Self {
        PlaceOptions { rotation_mode: RotationMode::Continuous, ..self }
    }

    /// Sets the worker-thread count for the parallel kernels (`0` = one per
    /// available CPU). Results are bitwise identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.gp.parallelism = rdp_geom::parallel::Parallelism::new(threads);
        self
    }

    /// Selects the global-placement solver and density model (the
    /// ePlace-style path is `with_solver(GpSolver::Nesterov,
    /// GpDensityModel::Electrostatic)`; the default is CG + bell).
    pub fn with_solver(
        mut self,
        solver: crate::optimizer::GpSolver,
        density_model: crate::optimizer::GpDensityModel,
    ) -> Self {
        self.gp.solver = solver;
        self.gp.density_model = density_model;
        self
    }

    /// Sets the congestion-estimator schedule of the routability loop
    /// (which of the three tiers each inflation round consumes; see
    /// [`CongestionSchedule`]).
    pub fn with_estimator(mut self, schedule: CongestionSchedule) -> Self {
        self.routability_opts.schedule = schedule;
        self
    }

    /// Sets the wall-clock budgets of the flow (see [`FlowBudget`]).
    pub fn with_budget(mut self, budget: FlowBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Outcome of a full placement run.
#[derive(Debug, Clone)]
pub struct PlaceResult {
    /// The final (legal, unless legalization reported failures) placement.
    pub placement: Placement,
    /// Final total HPWL.
    pub hpwl: f64,
    /// Global-placement outcome of the last GP stage.
    pub gp: GpOutcome,
    /// Legalization statistics.
    pub legalize: LegalizeStats,
    /// Detailed-placement statistics, when enabled.
    pub detail: Option<DetailStats>,
    /// Inflation statistics per routability round.
    pub inflation: Vec<InflationStats>,
    /// Convergence and stage-timing trace.
    pub trace: Trace,
    /// Structured degradation report: `Some` when the flow diverged, fell
    /// back, rolled back to a checkpoint or was budget-truncated — the
    /// placement is then the best recovered one, not the full-quality
    /// flow's output. `None` on a clean run.
    pub degraded: Option<DegradedResult>,
    /// Total wall time.
    pub elapsed: Duration,
}

/// The placement engine.
///
/// # Examples
///
/// ```
/// use rdp_core::{PlaceOptions, Placer};
/// use rdp_gen::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = generate(&GeneratorConfig::tiny("p", 5))?;
/// let result = Placer::new(&bench.design, PlaceOptions::fast())
///     .with_initial(bench.placement.clone())
///     .run()?;
/// assert!(result.hpwl > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct Placer<'a> {
    design: &'a Design,
    options: PlaceOptions,
    initial: Option<Placement>,
    resume: Option<FlowCheckpoint>,
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    checkpoint_sink: Option<CheckpointSink<'a>>,
}

/// Observer invoked with each [`FlowCheckpoint`] as a stage completes.
type CheckpointSink<'a> = Box<dyn FnMut(&FlowCheckpoint) + Send + 'a>;

impl fmt::Debug for Placer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Placer")
            .field("options", &self.options)
            .field("initial", &self.initial.is_some())
            .field("resume", &self.resume.as_ref().map(|cp| cp.stage.as_str()))
            .field("cancel", &self.cancel.is_some())
            .field("checkpoint_sink", &self.checkpoint_sink.is_some())
            .finish()
    }
}

/// Outcome of [`Placer::run_resumable`]: the flow either ran to the end or
/// stopped at a stage boundary because the cancel token fired.
#[derive(Debug)]
pub enum FlowProgress {
    /// The pipeline completed (possibly degraded — see
    /// [`PlaceResult::degraded`]).
    Completed(Box<PlaceResult>),
    /// The cancel token fired; the carried checkpoint is the last completed
    /// stage, suitable for [`Placer::resume_from`] in a later run.
    Interrupted(FlowCheckpoint),
}

impl<'a> Placer<'a> {
    /// Creates a placer. Without [`Placer::with_initial`], fixed nodes are
    /// assumed pre-placed by the design's own `.pl` semantics — i.e. the
    /// default [`Placement::new_centered`] puts *everything* (including
    /// fixed nodes) at the die center, which is only meaningful for designs
    /// without fixed nodes. Benchmarks should always pass their initial
    /// placement.
    pub fn new(design: &'a Design, options: PlaceOptions) -> Self {
        Placer {
            design,
            options,
            initial: None,
            resume: None,
            cancel: None,
            checkpoint_sink: None,
        }
    }

    /// Supplies the initial placement (fixed-node positions, terminal
    /// positions, optional warm-start positions for movables).
    pub fn with_initial(mut self, placement: Placement) -> Self {
        self.initial = Some(placement);
        self
    }

    /// Resumes the pipeline from a [`FlowCheckpoint`] captured by an
    /// earlier run (via [`Placer::with_checkpoint_sink`]) instead of
    /// starting from scratch: jitter and global placement are skipped, the
    /// inflation loop re-enters at `rounds_done`, and a legal checkpoint
    /// skips straight to detailed placement.
    ///
    /// In the default estimator-congestion mode the resumed final
    /// placement is **bitwise identical** to the uninterrupted run at any
    /// thread count; the router-congestion mode re-routes from scratch on
    /// resume (its warm routing state is not checkpointed), which may
    /// legitimately shift later rounds.
    pub fn resume_from(mut self, checkpoint: FlowCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Observes every checkpoint the flow saves, as it is saved. A job
    /// server persists them so a killed run can [`Placer::resume_from`]
    /// the latest one.
    pub fn with_checkpoint_sink(
        mut self,
        sink: impl FnMut(&FlowCheckpoint) + Send + 'a,
    ) -> Self {
        self.checkpoint_sink = Some(Box::new(sink));
        self
    }

    /// Attaches a cooperative cancel token, polled at stage boundaries
    /// (never mid-kernel). When it reads `true`, [`Placer::run_resumable`]
    /// returns [`FlowProgress::Interrupted`] with the latest checkpoint.
    /// Because resume is bitwise-exact, the nondeterministic *timing* of a
    /// cancellation never changes the final placement — only where the
    /// work pauses.
    pub fn with_cancel(
        mut self,
        token: std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] for structurally unplaceable designs, and
    /// [`PlaceError::Interrupted`] if a cancel token fired mid-run (use
    /// [`Placer::run_resumable`] to receive the checkpoint instead).
    pub fn run(self) -> Result<PlaceResult, PlaceError> {
        match self.run_resumable()? {
            FlowProgress::Completed(result) => Ok(*result),
            FlowProgress::Interrupted(cp) => Err(PlaceError::Interrupted { stage: cp.stage }),
        }
    }

    /// Runs the full pipeline with cancellation and resume support. The
    /// flow is a list of stages (global placement, the routability rounds,
    /// legalization, detailed placement); the cancel token (see
    /// [`Placer::with_cancel`]) is polled at every stage boundary and stops
    /// the run at its latest checkpoint, which a later
    /// [`Placer::resume_from`] continues bitwise-exactly (in
    /// estimator-congestion mode).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] for structurally unplaceable designs or a
    /// checkpoint that does not fit the design.
    pub fn run_resumable(self) -> Result<FlowProgress, PlaceError> {
        let t_start = Instant::now();
        let mut opts = self.options;
        // One persistent worker pool serves every parallel region in the
        // flow (GP kernels, router, congestion estimation, legalization)
        // instead of spawning fresh scoped threads per kernel call.
        opts.gp.parallelism.ensure_pool();
        let cancel = self.cancel;
        let cancelled = || cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed));
        let mut flow =
            FlowState::new(self.design, &opts, self.initial, self.resume, self.checkpoint_sink)?;
        let mut stage = Stage::resume_point(flow.checkpoint.as_ref());
        loop {
            // Every boundary after global placement has a checkpoint to
            // stop at.
            if stage != Stage::GlobalPlace && cancelled() {
                let cp = flow.checkpoint.expect("a checkpoint exists after global placement");
                return Ok(FlowProgress::Interrupted(cp));
            }
            let step = match flow.skip_on_budget(stage) {
                Some(step) => step,
                None => match stage {
                    Stage::GlobalPlace => flow.global_place()?,
                    Stage::Inflate(round) => flow.inflate_round(round),
                    Stage::Legalize => flow.legalize(),
                    Stage::Detail => flow.detail(),
                },
            };
            stage = match step {
                Step::Checkpoint(next) => {
                    flow.save_checkpoint(stage);
                    next
                }
                Step::Goto(next) => next,
                Step::Done => return Ok(FlowProgress::Completed(Box::new(flow.finish(t_start)))),
            };
        }
    }
}

/// One stage of the flow. A fresh run walks them in order: global
/// placement (multilevel V-cycle and macro rotation), the routability
/// rounds `Inflate(0..inflation_rounds)`, legalization, detailed placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    GlobalPlace,
    Inflate(usize),
    Legalize,
    Detail,
}

impl Stage {
    /// Where a run starts: global placement without a checkpoint, detailed
    /// placement from a legal one, and otherwise the first routability
    /// round the checkpointed run did not complete.
    fn resume_point(checkpoint: Option<&FlowCheckpoint>) -> Stage {
        match checkpoint {
            None => Stage::GlobalPlace,
            Some(cp) if cp.legal => Stage::Detail,
            Some(cp) => Stage::Inflate(cp.rounds_done),
        }
    }

    /// The stage's name in checkpoints, stage timings and degradation
    /// reports.
    fn name(self) -> String {
        match self {
            Stage::GlobalPlace => "global_place".into(),
            Stage::Inflate(round) => format!("inflate{round}"),
            Stage::Legalize => "legalize".into(),
            Stage::Detail => "detailed".into(),
        }
    }
}

/// How a stage hands control back to the driver.
enum Step {
    /// The stage completed: checkpoint it, then run the given stage.
    Checkpoint(Stage),
    /// Go on to the given stage with nothing new to checkpoint.
    Goto(Stage),
    /// The flow is complete.
    Done,
}

/// What the stages share: the evolving placement and model, the trace,
/// the resilience bookkeeping and the warm state of the routability loop.
struct FlowState<'f> {
    design: &'f Design,
    opts: &'f PlaceOptions,
    /// Fence regions seen by global placement (none when hierarchy-blind).
    regions: &'f [Region],
    /// Fixed-node blockages as (rect, occupancy) for the density fields.
    blocked: Vec<(Rect, f64)>,
    placement: Placement,
    model: Model,
    trace: Trace,
    /// Outcome of the latest GP pass; `None` only before global placement.
    gp_outcome: Option<GpOutcome>,
    /// The first degraded stage (drives the [`DegradedResult`] report).
    degraded_stage: Option<String>,
    /// The checkpoint a rollback restored, if any.
    restored_from: Option<String>,
    rounds_done: usize,
    /// The latest feasible checkpoint (the resume checkpoint until a stage
    /// saves a newer one).
    checkpoint: Option<FlowCheckpoint>,
    sink: Option<CheckpointSink<'f>>,
    flow_clock: BudgetClock,
    /// The estimator grid (see [`shared_grid`]); detailed placement reuses it.
    congestion_grid: Option<RouteGrid>,
    /// The routability loop, open from its first round to its end.
    routability: Option<RoutabilityLoop>,
    inflation_stats: Vec<InflationStats>,
    legalize_stats: LegalizeStats,
    detail_stats: Option<DetailStats>,
}

/// State of an open routability loop.
struct RoutabilityLoop {
    started: Instant,
    clock: BudgetClock,
    /// Net weights before congestion reweighting, restored at loop end.
    base_weights: Vec<f64>,
    router: RouterTier,
}

/// Warm state of the router tier: the previous routing outcome (the
/// incremental reroute starts from it), the node centers it was routed at
/// (to find the moved cells), and whether a blown router budget has
/// downgraded the remaining router rounds to the probabilistic estimate
/// (degradation ladder: true routed congestion → probabilistic estimate).
struct RouterTier {
    router: GlobalRouter,
    routed: Option<RoutingOutcome>,
    routed_at: Vec<Point>,
    degraded: bool,
}

impl<'f> FlowState<'f> {
    /// Validates the design and the resume checkpoint and sets up the state
    /// the first stage starts from.
    fn new(
        design: &'f Design,
        opts: &'f PlaceOptions,
        initial: Option<Placement>,
        resume: Option<FlowCheckpoint>,
        sink: Option<CheckpointSink<'f>>,
    ) -> Result<Self, PlaceError> {
        if design.movable_ids().next().is_none() {
            return Err(PlaceError::NothingToPlace);
        }
        let has_cells = design.node_ids().any(|id| design.node(id).is_std_cell());
        if has_cells && design.rows().is_empty() {
            return Err(PlaceError::NoRows);
        }
        let placement = match &resume {
            Some(cp) => {
                check_resume(design, cp)?;
                cp.placement.clone()
            }
            None => {
                let mut placement = initial.unwrap_or_else(|| Placement::new_centered(design));
                jitter(design, &mut placement, opts.seed);
                // The resilience layer has nothing to roll back to before
                // the first GP stage completes, so a non-finite *initial*
                // placement is the one divergence that surfaces as a hard
                // error.
                if design.node_ids().any(|id| !placement.center(id).is_finite()) {
                    return Err(PlaceError::Diverged { stage: "initial".into(), retries: 0 });
                }
                placement
            }
        };
        let blocked = design
            .node_ids()
            .filter(|&id| design.node(id).kind() == rdp_db::NodeKind::Fixed)
            .flat_map(|id| design.blocking_rects(id, &placement))
            .map(|r| (r, 1.0))
            .collect();
        // The model is fully derivable from (design, placement) except for
        // the density areas, which cell inflation mutates cumulatively —
        // those are restored from the checkpoint on resume.
        let mut model = Model::from_design(design, &placement);
        if let Some(cp) = &resume {
            model.area.copy_from_slice(&cp.density_area);
        }
        Ok(FlowState {
            design,
            opts,
            regions: if opts.hierarchy_aware { design.regions() } else { &[] },
            blocked,
            placement,
            model,
            trace: Trace::new(),
            gp_outcome: resume.as_ref().map(|cp| cp.gp),
            degraded_stage: None,
            restored_from: None,
            rounds_done: resume.as_ref().map_or(0, |cp| cp.rounds_done),
            checkpoint: resume,
            sink,
            flow_clock: BudgetClock::new(opts.budget.flow_wall),
            congestion_grid: None,
            routability: None,
            inflation_stats: Vec::new(),
            legalize_stats: LegalizeStats::default(),
            detail_stats: None,
        })
    }

    /// Runs one GP pass on the model. Divergence is not fatal: the model
    /// keeps its last finite iterate and the first diverged stage marks
    /// the run degraded.
    fn gp(&mut self, label: &str, gp_opts: &GpOptions) -> Result<GpOutcome, Diverged> {
        let (regions, blocked) = (self.regions, &self.blocked);
        run_global_place(&mut self.model, regions, blocked, gp_opts, &mut self.trace, label)
            .inspect_err(|div| {
                self.degraded_stage.get_or_insert_with(|| div.stage.clone());
            })
    }

    /// Drops an optional quality stage that is about to start once the flow
    /// budget is spent: the routability loop (before its first round) and
    /// detailed placement. Legalization is never skipped.
    fn skip_on_budget(&mut self, stage: Stage) -> Option<Step> {
        let opts = self.opts;
        let (skipped, at_round, next) = match stage {
            Stage::Inflate(_)
                if opts.routability && opts.inflation_rounds > 0 && self.routability.is_none() =>
            {
                ("routability".to_owned(), 0, Step::Goto(Stage::Legalize))
            }
            Stage::Detail if opts.detailed => (stage.name(), opts.inflation_rounds, Step::Done),
            _ => return None,
        };
        if !self.flow_clock.exhausted() {
            return None;
        }
        self.trace.record_event(RecoveryEvent::BudgetTruncated { scope: "flow".into(), at_round });
        self.degraded_stage.get_or_insert(skipped);
        Some(next)
    }

    /// Global placement: the multilevel V-cycle, the finest-level pass and
    /// macro rotation.
    fn global_place(&mut self) -> Result<Step, PlaceError> {
        let opts = self.opts;
        let t = Instant::now();
        if opts.multilevel {
            self.v_cycle();
        }
        // On divergence the model holds its last finite iterate — usable,
        // just not converged. Continue the flow degraded.
        self.gp_outcome = Some(self.gp("gp/final", &opts.gp).unwrap_or_else(|div| div.best));
        // Paranoia: the optimizer contract guarantees a finite iterate on
        // both the Ok and Err paths; a non-finite position here means the
        // contract was violated upstream and nothing checkpointable exists.
        if self.model.pos_x.iter().chain(&self.model.pos_y).any(|v| !v.is_finite()) {
            return Err(PlaceError::Diverged {
                stage: "gp/final".into(),
                retries: opts.gp.recovery.max_retries,
            });
        }
        self.trace.record_stage(Stage::GlobalPlace.name(), t.elapsed());
        if opts.macro_rotation {
            self.rotate_macros();
        }
        // The checkpoint holds the converged (or best recovered) global
        // placement, before the routability loop perturbs it.
        self.model.write_back(&mut self.placement);
        Ok(Step::Checkpoint(Stage::Inflate(0)))
    }

    /// The downward half of the multilevel V-cycle: place the coarsest
    /// clustering, then project each level onto the next finer model and
    /// refine, down to the finest model. Divergence on a level is
    /// non-fatal: the level only provides a warm start, and the model is
    /// left at its last finite iterate either way.
    fn v_cycle(&mut self) {
        let opts = self.opts;
        let mut levels = build_levels(&self.model, opts.cluster_limit);
        let Some(coarsest) = levels.last() else { return };
        let coarse_opts = GpOptions { max_outer: opts.gp.max_outer / 2 + 2, ..opts.gp.clone() };
        let mut finest = Some(std::mem::replace(&mut self.model, coarsest.coarse.clone()));
        let _ = self.gp(&format!("gp/level{}", levels.len()), &coarse_opts);
        for li in (0..levels.len()).rev() {
            levels[li].coarse.set_positions(&self.model.positions());
            self.model = match li {
                0 => finest.take().expect("the finest level comes last"),
                _ => levels[li - 1].coarse.clone(),
            };
            project_down(&mut self.model, &levels[li]);
            let level_opts = if li == 0 { &opts.gp } else { &coarse_opts };
            let _ = self.gp(&format!("gp/level{li}"), level_opts);
        }
    }

    /// Re-selects macro orientations against the global placement; when any
    /// changed (moving pin offsets and macro dims), rebuilds the model from
    /// the updated placement and re-polishes.
    fn rotate_macros(&mut self) {
        let (design, opts) = (self.design, self.opts);
        let t = Instant::now();
        self.model.write_back(&mut self.placement);
        let placement = &mut self.placement;
        let changed = match opts.rotation_mode {
            RotationMode::Discrete => optimize_macro_orientations(design, placement, true),
            RotationMode::Continuous => {
                // Continuous angles, snapped; then a flip-only discrete pass
                // decides mirroring (the angle cannot express it).
                let gamma = 2.0 * design.row_height().unwrap_or(10.0);
                let out = crate::rotation::optimize_rotation_continuous(&self.model, gamma, 100);
                let mut changed = 0;
                for (a, &q) in out.angles.iter().zip(&out.snapped) {
                    let node = self.model.node_of[a.obj as usize];
                    let orient = crate::rotation::orient_of_quarter(q);
                    if placement.orient(node) != orient {
                        placement.set_orient(node, orient);
                        changed += 1;
                    }
                }
                changed + optimize_macro_orientations(design, placement, false)
            }
        };
        if changed > 0 {
            self.model = Model::from_design(design, &self.placement);
            let polish = GpOptions { max_outer: 4, ..opts.gp.clone() };
            self.gp_outcome = Some(self.gp("gp/rotation", &polish).unwrap_or_else(|div| div.best));
        }
        self.trace.record_stage("macro_rotation", t.elapsed());
    }

    /// One routability round: estimate congestion with the round's tier,
    /// inflate congested cells and/or reweight congested nets, and re-place.
    /// The first round opens the loop; a round past the last, a spent
    /// inflation budget, a round that changes nothing and a diverged
    /// re-place each close it.
    fn inflate_round(&mut self, round: usize) -> Step {
        let (design, opts) = (self.design, self.opts);
        if !opts.routability || opts.inflation_rounds == 0 {
            return Step::Goto(Stage::Legalize);
        }
        let lp = self
            .routability
            .get_or_insert_with(|| RoutabilityLoop::new(design, opts, &self.model.net_weight));
        if round >= opts.inflation_rounds {
            return self.end_routability();
        }
        if lp.clock.exhausted()
            || self.flow_clock.exhausted()
            || crate::faultinject::fire_inflation_budget(round)
        {
            self.trace.record_event(RecoveryEvent::BudgetTruncated {
                scope: "inflation".into(),
                at_round: round,
            });
            self.degraded_stage.get_or_insert_with(|| Stage::Inflate(round).name());
            return self.end_routability();
        }
        self.model.write_back(&mut self.placement);
        let mut source = opts.routability_opts.schedule.source_for(round, opts.inflation_rounds);
        if lp.router.degraded && source == CongestionSource::Router {
            source = CongestionSource::Probabilistic;
        }
        self.trace.set_estimator_tier(source.label());
        let t_cong = Instant::now();
        let (grid, dirty_nets, router_fallback) = round_congestion(
            &mut lp.router,
            &mut self.congestion_grid,
            source,
            round,
            design,
            &self.placement,
            opts,
        );
        let congestion_time = t_cong.elapsed();
        if router_fallback {
            // The router returned its current overflow state: still a
            // usable picture for this round, but later router rounds fall
            // back to the cheap estimator rather than keep paying for a
            // router that cannot finish.
            self.trace.record_event(RecoveryEvent::CongestionFallback {
                round,
                reason: "router budget".into(),
            });
            self.degraded_stage.get_or_insert_with(|| Stage::Inflate(round).name());
        }
        // Corruption canary: non-finite grid state must neither inflate
        // areas (inflate() skips it cell-wise) nor seed the next round's
        // warm start (dropped below).
        let grid_corrupted = grid.non_finite_edges() > 0;
        let mut touched = 0usize;
        if opts.inflate_cells {
            let mut stats = inflate(&mut self.model, &grid, opts.inflation);
            stats.source = source;
            stats.dirty_nets = dirty_nets;
            stats.congestion_time = congestion_time;
            stats.congestion_fallback = router_fallback || grid_corrupted;
            touched += stats.inflated;
            self.inflation_stats.push(stats);
        }
        if opts.net_weighting {
            touched += crate::net_weighting::apply_congestion_weights(
                &mut self.model,
                &grid,
                &lp.base_weights,
                opts.net_weighting_config,
            );
        }
        if grid_corrupted {
            // The next router round routes from scratch on a fresh grid,
            // and the estimator grid is rebuilt on next use.
            self.trace.record_event(RecoveryEvent::CongestionFallback {
                round,
                reason: "corrupt grid".into(),
            });
            self.degraded_stage.get_or_insert_with(|| Stage::Inflate(round).name());
            lp.router.routed = None;
            self.congestion_grid = None;
        }
        if touched == 0 {
            return self.end_routability();
        }
        let replace = GpOptions { max_outer: (opts.gp.max_outer / 2).max(4), ..opts.gp.clone() };
        match self.gp(&format!("gp/inflate{round}"), &replace) {
            Ok(out) => {
                if let Some(stats) = self.inflation_stats.last_mut() {
                    stats.recoveries = out.recoveries;
                }
                self.gp_outcome = Some(out);
                self.model.write_back(&mut self.placement);
                self.rounds_done = round + 1;
                Step::Checkpoint(Stage::Inflate(round + 1))
            }
            Err(div) => {
                // Diverged beyond recovery: roll the placement back to the
                // last feasible checkpoint and stop inflating; downstream
                // stages continue from the restored state.
                self.gp_outcome = Some(div.best);
                if let Some(cp) = &self.checkpoint {
                    self.placement = cp.placement.clone();
                    for i in 0..self.model.node_of.len() {
                        self.model.set_pos(i, self.placement.center(self.model.node_of[i]));
                    }
                    self.restored_from = Some(cp.stage.clone());
                    self.trace.record_event(RecoveryEvent::CheckpointRestored {
                        failed_stage: div.stage,
                        from: cp.stage.clone(),
                    });
                }
                if let Some(stats) = self.inflation_stats.last_mut() {
                    stats.recoveries = div.retries;
                    stats.restored = self.restored_from.is_some();
                }
                self.end_routability()
            }
        }
    }

    /// Closes the routability loop if this run opened it: restores the
    /// base net weights and records the loop's wall time.
    fn end_routability(&mut self) -> Step {
        if let Some(lp) = self.routability.take() {
            if self.opts.net_weighting {
                crate::net_weighting::reset_weights(&mut self.model, &lp.base_weights);
            }
            self.trace.set_estimator_tier("");
            self.trace.record_stage("routability", lp.started.elapsed());
        }
        Step::Goto(Stage::Legalize)
    }

    fn legalize(&mut self) -> Step {
        self.model.write_back(&mut self.placement);
        let t = Instant::now();
        self.legalize_stats = legalize_with_displacement_par(
            self.design,
            &mut self.placement,
            &self.opts.gp.parallelism,
        );
        self.trace.record_stage(Stage::Legalize.name(), t.elapsed());
        Step::Checkpoint(Stage::Detail)
    }

    fn detail(&mut self) -> Step {
        let (design, opts) = (self.design, self.opts);
        if opts.detailed {
            let t = Instant::now();
            let congestion = if opts.routability {
                Some(&*refresh_congestion(&mut self.congestion_grid, design, &self.placement, opts))
            } else {
                None
            };
            self.detail_stats =
                Some(detailed_place(design, &mut self.placement, congestion, opts.detail));
            self.trace.record_stage(Stage::Detail.name(), t.elapsed());
        }
        Step::Done
    }

    /// Snapshots the placement as the latest [`FlowCheckpoint`] (one per
    /// completed stage, latest wins — the flow is monotonic, so newest
    /// feasible is best), records the save in the trace and offers it to
    /// the caller's checkpoint sink.
    fn save_checkpoint(&mut self, stage: Stage) {
        let hpwl = rdp_db::hpwl::total_hpwl(self.design, &self.placement);
        self.trace.record_event(RecoveryEvent::CheckpointSaved { stage: stage.name(), hpwl });
        let cp = FlowCheckpoint {
            stage: stage.name(),
            placement: self.placement.clone(),
            hpwl,
            legal: stage == Stage::Legalize,
            density_area: self.model.area.clone(),
            rounds_done: self.rounds_done,
            gp: self.gp_outcome.expect("global placement precedes every checkpoint"),
        };
        if let Some(sink) = self.sink.as_mut() {
            sink(&cp);
        }
        self.checkpoint = Some(cp);
    }

    /// The result, after a last line of defense: if any stage leaked a
    /// non-finite coordinate, roll back to the legalized checkpoint rather
    /// than hand the caller a poisoned placement.
    fn finish(mut self, t_start: Instant) -> PlaceResult {
        let design = self.design;
        if design.movable_ids().any(|id| !self.placement.center(id).is_finite()) {
            if let Some(cp) = self.checkpoint.as_ref().filter(|cp| cp.legal) {
                self.placement = cp.placement.clone();
                self.restored_from = Some(cp.stage.clone());
                self.degraded_stage.get_or_insert_with(|| Stage::Detail.name());
                self.trace.record_event(RecoveryEvent::CheckpointRestored {
                    failed_stage: Stage::Detail.name(),
                    from: cp.stage.clone(),
                });
            }
        }
        let degraded = self.degraded_stage.map(|stage| DegradedResult {
            stage,
            restored_from: self.restored_from,
            events: self.trace.events.clone(),
        });
        PlaceResult {
            hpwl: rdp_db::hpwl::total_hpwl(design, &self.placement),
            placement: self.placement,
            gp: self.gp_outcome.expect("global placement ran or was restored"),
            legalize: self.legalize_stats,
            detail: self.detail_stats,
            inflation: self.inflation_stats,
            trace: self.trace,
            degraded,
            elapsed: t_start.elapsed(),
        }
    }
}

impl RoutabilityLoop {
    fn new(design: &Design, opts: &PlaceOptions, net_weight: &[f64]) -> Self {
        // The router shares the flow's thread-count knob.
        let mut config = opts.routability_opts.router.clone();
        config.parallelism = opts.gp.parallelism.clone();
        RoutabilityLoop {
            started: Instant::now(),
            clock: BudgetClock::new(opts.budget.inflation_wall),
            base_weights: net_weight.to_vec(),
            router: RouterTier {
                router: GlobalRouter::new(config),
                routed: None,
                routed_at: vec![Point::ORIGIN; design.nodes().len()],
                degraded: false,
            },
        }
    }
}

/// One round's congestion picture from `source`, with the router tier's
/// dirty-net count and whether the router blew its budget. The router tier
/// routes in full on its first round and afterwards reroutes just the cells
/// that moved since; a layered (3-D) route is collapsed to the planar view
/// the inflation and net-weighting consumers are defined over.
fn round_congestion<'g>(
    tier: &'g mut RouterTier,
    shared: &'g mut Option<RouteGrid>,
    source: CongestionSource,
    round: usize,
    design: &Design,
    placement: &Placement,
    opts: &PlaceOptions,
) -> (Cow<'g, RouteGrid>, usize, bool) {
    let grid = match source {
        CongestionSource::Router => {
            let mut outcome = match tier.routed.take() {
                None => tier.router.route(design, placement),
                Some(prev) => {
                    let moved: Vec<NodeId> = design
                        .node_ids()
                        .filter(|&id| placement.center(id) != tier.routed_at[id.index()])
                        .collect();
                    tier.router.reroute_incremental(&prev, design, placement, &moved)
                }
            };
            for id in design.node_ids() {
                tier.routed_at[id.index()] = placement.center(id);
            }
            let budget_blown =
                outcome.budget_truncated || crate::faultinject::fire_router_budget(round);
            tier.degraded |= budget_blown;
            crate::faultinject::corrupt_congestion(&mut outcome.grid, round);
            let dirty_nets = outcome.dirty_nets;
            let routed = &tier.routed.insert(outcome).grid;
            let grid = match routed.has_vias() {
                true => Cow::Owned(routed.project_2d()),
                false => Cow::Borrowed(routed),
            };
            return (grid, dirty_nets, budget_blown);
        }
        CongestionSource::Learned => {
            let grid = shared_grid(shared, design, placement);
            rdp_route::learned::predict_into(
                grid,
                design,
                placement,
                opts.routability_opts.weights(),
                &opts.gp.parallelism,
            );
            grid
        }
        CongestionSource::Probabilistic => refresh_congestion(shared, design, placement, opts),
    };
    crate::faultinject::corrupt_congestion(grid, round);
    (Cow::Borrowed(grid), 0, false)
}

/// A resume checkpoint must structurally fit the design and be finite —
/// anything else is a caller error (wrong design, corrupt file), not a
/// recoverable flow state.
fn check_resume(design: &Design, cp: &FlowCheckpoint) -> Result<(), PlaceError> {
    let num_objects = design.movable_ids().count();
    let reason = if cp.placement.len() != design.nodes().len() {
        format!("checkpoint has {} nodes, design has {}", cp.placement.len(), design.nodes().len())
    } else if cp.density_area.len() != num_objects {
        format!(
            "checkpoint has {} density areas, design has {} movable objects",
            cp.density_area.len(),
            num_objects
        )
    } else if cp.placement.centers().iter().any(|c| !c.is_finite())
        || cp.density_area.iter().any(|a| !a.is_finite())
    {
        "checkpoint contains non-finite state".into()
    } else {
        return Ok(());
    };
    Err(PlaceError::BadResume { reason })
}

/// Symmetry-breaking jitter around the initial positions. It is an input
/// of global placement, so a resumed run (which restarts after it) never
/// re-applies it.
fn jitter(design: &Design, placement: &mut Placement, seed: u64) {
    let mut rng = rdp_geom::rng::Rng::seed_from_u64(seed);
    let die = design.die();
    let jx = die.width() * 0.05;
    let jy = die.height() * 0.05;
    for id in design.movable_ids() {
        let c = placement.center(id);
        let p = Point::new(
            rdp_geom::clamp(c.x + rng.gen_range(-jx..jx), die.xl, die.xh),
            rdp_geom::clamp(c.y + rng.gen_range(-jy..jy), die.yl, die.yh),
        );
        placement.set_center(id, p);
    }
}

/// Refreshes the shared grid with the probabilistic estimate.
fn refresh_congestion<'a>(
    slot: &'a mut Option<RouteGrid>,
    design: &Design,
    placement: &Placement,
    opts: &PlaceOptions,
) -> &'a mut RouteGrid {
    let grid = shared_grid(slot, design, placement);
    rdp_route::pattern::estimate_congestion_into(grid, design, placement, &opts.gp.parallelism);
    grid
}

/// The shared estimator grid, built on first use. Capacities depend only
/// on fixed-node blockages, which never move, so carving them once is
/// enough. The probabilistic and learned tiers both clear and re-deposit
/// the usage, so a reused grid estimates bitwise the same as a fresh one
/// and the tiers can alternate on it.
fn shared_grid<'a>(
    slot: &'a mut Option<RouteGrid>,
    design: &Design,
    placement: &Placement,
) -> &'a mut RouteGrid {
    slot.get_or_insert_with(|| RouteGrid::from_design(design, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::validate::check_legal;
    use rdp_gen::{generate, GeneratorConfig};

    #[test]
    fn full_flow_on_tiny_design_is_legal() {
        let bench = generate(&GeneratorConfig::tiny("pf", 41)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 20);
        assert!(
            report.is_legal(),
            "violations: {:?} overlap {}",
            report.violations,
            report.total_overlap_area
        );
        assert_eq!(result.legalize.failed, 0);
        assert!(result.hpwl > 0.0);
        assert!(!result.trace.records.is_empty());
        assert!(!result.trace.stages.is_empty());
    }

    #[test]
    fn placement_beats_random_scatter_on_hpwl() {
        let bench = generate(&GeneratorConfig::tiny("pw", 42)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        // Random legal-ish scatter as the null hypothesis.
        let mut random = bench.placement.clone();
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(7);
        let die = bench.design.die();
        for id in bench.design.movable_ids() {
            let (w, h) = random.dims(&bench.design, id);
            random.set_center(
                id,
                rdp_geom::Point::new(
                    rng.gen_range(die.xl + w / 2.0..die.xh - w / 2.0),
                    rng.gen_range(die.yl + h / 2.0..die.yh - h / 2.0),
                ),
            );
        }
        let random_hpwl = rdp_db::hpwl::total_hpwl(&bench.design, &random);
        assert!(
            result.hpwl < 0.6 * random_hpwl,
            "placed {} vs random {}",
            result.hpwl,
            random_hpwl
        );
    }

    #[test]
    fn hierarchical_flow_satisfies_fences() {
        let bench = generate(&GeneratorConfig::hierarchical("ph", 43, 2)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 50);
        assert_eq!(
            report.fence_violations,
            0,
            "fence violations: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let bench = generate(&GeneratorConfig::tiny("pd", 44)).unwrap();
        let r1 = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let r2 = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        assert_eq!(r1.hpwl, r2.hpwl);
    }

    #[test]
    fn error_on_unplaceable_designs() {
        use rdp_db::{DesignBuilder, NodeKind};
        use rdp_geom::{Point, Rect};
        let mut b = DesignBuilder::new("e");
        b.die(Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_row(0.0, 10.0, 1.0, 0.0, 10);
        let f1 = b.add_node("f1", 1.0, 1.0, NodeKind::Fixed).unwrap();
        let f2 = b.add_node("f2", 1.0, 1.0, NodeKind::Fixed).unwrap();
        let n = b.add_net("n", 1.0);
        b.add_pin(n, f1, Point::ORIGIN);
        b.add_pin(n, f2, Point::ORIGIN);
        let d = b.finish().unwrap();
        let err = Placer::new(&d, PlaceOptions::fast()).run().unwrap_err();
        assert_eq!(err, PlaceError::NothingToPlace);
        assert!(err.to_string().contains("no movable"));
    }

    #[test]
    fn continuous_rotation_flow_is_legal() {
        let bench = generate(&GeneratorConfig::tiny("pcr", 45)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast().with_continuous_rotation())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
        assert!(result.hpwl > 0.0);
    }

    #[test]
    fn router_congestion_mode_is_legal_and_reports_dirty_nets() {
        let bench = generate(&GeneratorConfig::tiny("prc", 46)).unwrap();
        let opts = PlaceOptions::fast()
            .with_estimator(CongestionSchedule::Uniform(CongestionSource::Router));
        let result = Placer::new(&bench.design, opts)
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
        // First round routes from scratch: every net is dirty.
        let first = &result.inflation[0];
        assert_eq!(first.dirty_nets, bench.design.nets().len());
        assert!(first.congestion_time.as_nanos() > 0);
        // Later rounds go through the incremental path; dirtying more nets
        // than the design has would mean the bookkeeping is broken.
        for s in &result.inflation[1..] {
            assert!(s.dirty_nets <= bench.design.nets().len());
        }
    }

    #[test]
    fn router_congestion_mode_is_deterministic() {
        let bench = generate(&GeneratorConfig::tiny("prd", 47)).unwrap();
        let run = |threads: usize| {
            Placer::new(
                &bench.design,
                PlaceOptions::fast()
                    .with_estimator(CongestionSchedule::Uniform(CongestionSource::Router))
                    .with_threads(threads),
            )
            .with_initial(bench.placement.clone())
            .run()
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
        for (sa, sb) in a.inflation.iter().zip(&b.inflation) {
            assert_eq!(sa.dirty_nets, sb.dirty_nets);
            assert_eq!(sa.inflated, sb.inflated);
        }
    }

    #[test]
    fn learned_estimator_flow_is_legal_and_deterministic() {
        let bench = generate(&GeneratorConfig::tiny("ple", 48)).unwrap();
        let run = |threads: usize| {
            Placer::new(
                &bench.design,
                PlaceOptions::fast()
                    .with_estimator(CongestionSchedule::Uniform(CongestionSource::Learned))
                    .with_threads(threads),
            )
            .with_initial(bench.placement.clone())
            .run()
            .unwrap()
        };
        let a = run(1);
        let report = check_legal(&bench.design, &a.placement, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
        assert!(a.inflation.iter().all(|s| s.source == CongestionSource::Learned));
        // The learned tier inherits the kernel determinism contract.
        let b = run(4);
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
        // The trace CSV carries the tier of each inflation round.
        let csv = a.trace.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",estimator_tier"));
        assert!(csv.lines().any(|l| l.starts_with("gp/inflate") && l.ends_with(",learned")));
    }

    #[test]
    fn ladder_schedule_mixes_tiers() {
        let bench = generate(&GeneratorConfig::tiny("pla", 49)).unwrap();
        let mut opts = PlaceOptions::fast().with_estimator(CongestionSchedule::auto());
        opts.inflation_rounds = 2;
        let result = Placer::new(&bench.design, opts)
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let sources: Vec<_> = result.inflation.iter().map(|s| s.source).collect();
        assert_eq!(sources[0], CongestionSource::Learned);
        // The loop may stop early if nothing inflates, but a second round
        // must be the router tail.
        if let Some(s) = sources.get(1) {
            assert_eq!(*s, CongestionSource::Router);
        }
    }

    #[test]
    fn schedule_source_for_semantics() {
        let auto = CongestionSchedule::auto();
        assert_eq!(auto.source_for(0, 3), CongestionSource::Learned);
        assert_eq!(auto.source_for(1, 3), CongestionSource::Learned);
        assert_eq!(auto.source_for(2, 3), CongestionSource::Router);
        let per = CongestionSchedule::PerRound(vec![
            CongestionSource::Probabilistic,
            CongestionSource::Learned,
        ]);
        assert_eq!(per.source_for(0, 4), CongestionSource::Probabilistic);
        assert_eq!(per.source_for(1, 4), CongestionSource::Learned);
        assert_eq!(per.source_for(3, 4), CongestionSource::Learned, "repeats the last entry");
        assert_eq!(
            CongestionSchedule::PerRound(vec![]).source_for(0, 2),
            CongestionSource::Probabilistic
        );
        assert_eq!(CongestionSchedule::parse("auto"), Some(CongestionSchedule::auto()));
        assert_eq!(
            CongestionSchedule::parse("learned"),
            Some(CongestionSchedule::Uniform(CongestionSource::Learned))
        );
        assert_eq!(CongestionSchedule::parse("bogus"), None);
        let derived = GpRoutabilityOptions::default()
            .to_builder()
            .source(CongestionSource::Learned)
            .build();
        assert_eq!(derived.schedule, CongestionSchedule::Uniform(CongestionSource::Learned));
    }

    #[test]
    fn baseline_presets_differ_in_behavior() {
        let fast = PlaceOptions::fast();
        assert!(fast.routability);
        let b1 = PlaceOptions::fast().wirelength_driven();
        assert!(!b1.routability);
        assert_eq!(b1.detail.congestion_weight, 0.0);
        let b2 = PlaceOptions::fast().fence_blind();
        assert!(!b2.hierarchy_aware);
        let b3 = PlaceOptions::fast().flat();
        assert!(!b3.multilevel);
        let b4 = PlaceOptions::fast().with_wirelength(crate::WirelengthModel::Lse);
        assert_eq!(b4.gp.wirelength, crate::WirelengthModel::Lse);
        let b5 = PlaceOptions::fast().without_rotation();
        assert!(!b5.macro_rotation);
    }
}
