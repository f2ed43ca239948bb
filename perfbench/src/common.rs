//! Pieces the workloads share: run options, the timed set-up, the round
//! loop, the legalize op, QoR, and readings of the program's telemetry.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlleg_benchgen::BenchmarkSpec;
use rlleg_design::metrics::Qor;
use rlleg_design::Design;
use rlleg_geom::Point;
use rlleg_legalize::{GcellGrid, Legalizer, Ordering, RunStats};

use crate::report::{Report, Result};
use crate::stats::{geomean, median};
use crate::trace::{self, Tracer};

/// Timed set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: perturbs every input and seeds the A3C burst and
    /// the serve schedule.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Design-size scale (1.0 in real runs; small for smoke tests).
    pub scale: f64,
    /// Worker threads for legalization (= cores).
    pub threads: usize,
    /// Zero of every span time.
    pub epoch: Instant,
}

/// Largest global-placement move, in sites per axis, of the seeded
/// perturbation that makes a workload's inputs from its seed.
pub const JITTER_SITES: i64 = 2;

impl Ctx {
    /// The input a workload runs for `spec`: the table row's instance at
    /// `cells` movable cells (`None` = the row's own size) times the run's
    /// scale, with every movable cell's global placement then moved by a
    /// seeded uniform ±[`JITTER_SITES`] sites per axis when the workload
    /// seed is nonzero (seed 0 is the paper row itself).
    ///
    /// The seed perturbs the placement instead of regenerating the design:
    /// regenerated contest instances differ severalfold in legalization
    /// cost (on a 2-vCPU x86-64 KVM guest `des_perf_a_md2` took 4.2–18.3 s
    /// over seeds 0–7), which no run in the benchmark's budget can average
    /// out, while the perturbed inputs keep each row's structure and still
    /// differ in every cell.
    pub fn input(&self, spec: &BenchmarkSpec, cells: Option<usize>) -> Design {
        let sized = match cells {
            Some(n) => spec.scaled_to(((n as f64 * self.scale).round() as usize).max(60)),
            None if self.scale < 1.0 => spec.scaled(self.scale),
            None => spec.clone(),
        };
        let mut design = rlleg_benchgen::generate(&sized);
        if self.seed != 0 {
            jitter(&mut design, self.seed ^ spec.seed);
        }
        design
    }
}

/// Moves every movable cell's global placement (and current position) by
/// a uniform ±[`JITTER_SITES`] sites per axis, clamped into the core.
pub fn jitter(design: &mut Design, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let step = design.tech.site_width;
    let core = design.core;
    for c in design.cells.iter_mut().filter(|c| c.is_movable()) {
        let dx = rng.gen_range(-JITTER_SITES..=JITTER_SITES) * step;
        let dy = rng.gen_range(-JITTER_SITES..=JITTER_SITES) * step;
        let p = Point::new(
            (c.gp_pos.x + dx).clamp(core.lo.x, core.hi.x - 1),
            (c.gp_pos.y + dy).clamp(core.lo.y, core.hi.y - 1),
        );
        c.gp_pos = p;
        c.pos = p;
    }
}

/// Runs the workload's set-up [`SETUPS`] times, keeping the last result,
/// and records `setup_s` as the median.
pub fn timed_setups<T>(rep: &mut Report, mut setup: impl FnMut() -> Result<T>) -> Result<T> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so peak memory holds one copy.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    rep.record_some("setup_s", "s", median(&times), times.len())?;
    Ok(last.expect("at least one set-up"))
}

/// Records `benchgen.generate_s`: the median over the set-ups of the time
/// each spent generating inputs, from the spans the traced set-ups
/// recorded (the tracer's first `spans` spans, an equal share per set-up).
pub fn record_generate(rep: &mut Report, tracer: &Tracer, spans: usize) -> Result<()> {
    let times: Vec<f64> = tracer.spans()[..spans]
        .chunks((spans / SETUPS).max(1))
        .map(|setup| {
            setup
                .iter()
                .filter(|s| s.name == "benchgen.generate")
                .map(|s| s.duration())
                .sum()
        })
        .collect();
    rep.record_some("benchgen.generate_s", "s", median(&times), times.len())
}

/// Spawns the legalizer's pool workers with one untimed call, so that no
/// timed set-up or round pays for thread start.
pub fn warm_pool(threads: usize) {
    rlleg_legalize::pool::with_workers(threads);
}

/// One round of a workload, as the round loop sees it.
pub struct Round {
    /// Whether spans and program telemetry were recorded.
    pub traced: bool,
    /// Timed wall of the round's ops.
    pub seconds: f64,
    /// The round's spans in the tracer.
    pub spans: Range<usize>,
}

/// Runs rounds until the measurement budget is spent: a new round starts
/// only while the projected end stays within half a round of the budget.
/// In the traced run, rounds alternate untraced and traced (so the run
/// also measures the tracing overhead) and at least one of each runs.
pub fn run_rounds(
    ctx: &Ctx,
    tracer: &mut Tracer,
    mut round: impl FnMut(&mut Tracer) -> Result<f64>,
) -> Result<Vec<Round>> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut rounds = Vec::new();
    loop {
        let traced = ctx.trace && rounds.len() % 2 == 1;
        tracer.set_enabled(traced);
        telemetry::set_enabled(traced);
        let lo = tracer.spans().len();
        let seconds = round(tracer)?;
        telemetry::set_enabled(false);
        tracer.set_enabled(false);
        rounds.push(Round {
            traced,
            seconds,
            spans: lo..tracer.spans().len(),
        });
        let elapsed = start.elapsed();
        let per_round = elapsed / rounds.len() as u32;
        let min_rounds = if ctx.trace { 2 } else { 1 };
        if rounds.len() >= min_rounds && elapsed + per_round / 2 >= budget {
            return Ok(rounds);
        }
    }
}

/// Records `round_s` (median over untraced rounds) and, in the traced
/// run, `telemetry.overhead_share` and the per-round span totals.
pub fn record_rounds(ctx: &Ctx, rep: &mut Report, tracer: &Tracer, rounds: &[Round]) -> Result<()> {
    let plain: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.seconds)
        .collect();
    rep.record_some("round_s", "s", median(&plain), plain.len())?;
    let walls = plain.iter().map(|&s| serde::Value::Float(s)).collect();
    rep.detail
        .insert("round_walls_s", serde::Value::Array(walls));
    if !ctx.trace {
        return Ok(());
    }
    let traced: Vec<f64> = rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.seconds)
        .collect();
    let (t, u) = (median(&traced), median(&plain));
    rep.record_some(
        "telemetry.overhead_share",
        "share",
        t.zip(u).map(|(t, u)| (t - u) / u),
        traced.len() + plain.len(),
    )?;
    record_span_totals(rep, tracer, rounds)
}

/// Per-layer span metrics of the traced rounds: for every span name
/// `layer.what`, `layer.what_s` is the median per-round total duration;
/// for the benchmark's own `op` spans, `op.self_s` is the median
/// per-round self time (op wall not covered by any layer span) and
/// `op.coverage` the share of op wall the layer spans cover.
pub fn record_span_totals(rep: &mut Report, tracer: &Tracer, rounds: &[Round]) -> Result<()> {
    let spans = tracer.spans();
    let selfs = trace::self_times(spans);
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut op_self = Vec::new();
    let (mut op_wall, mut op_uncovered) = (0.0, 0.0);
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    for r in &traced {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut own = 0.0;
        for i in r.spans.clone() {
            let s = &spans[i];
            if s.name == "op" {
                own += selfs[i];
                op_wall += s.duration();
                op_uncovered += selfs[i];
            } else if s.name.contains('.') {
                *sums.entry(s.name).or_default() += s.duration();
            }
        }
        for (name, v) in sums {
            per_name.entry(name).or_default().push(v);
        }
        op_self.push(own);
    }
    for (name, v) in per_name {
        rep.record_some(format!("{name}_s"), "s", median(&v), v.len())?;
    }
    rep.record_some("op.self_s", "s", median(&op_self), op_self.len())?;
    rep.record_some(
        "op.coverage",
        "share",
        (op_wall > 0.0).then(|| 1.0 - op_uncovered / op_wall),
        traced.len(),
    )
}

/// One \[26\]+G legalization op: Gcell partition, grid build, parallel
/// solve, each in its own span.
pub fn legalize_op(tracer: &mut Tracer, design: &mut Design, threads: usize) -> RunStats {
    let gcells = tracer.span("legalize.partition", || GcellGrid::auto(design));
    let mut lg = tracer.span("legalize.grid_build", || Legalizer::new(design));
    tracer.span("legalize.solve", || {
        lg.run_gcells_parallel(design, &Ordering::SizeDescending, &gcells, threads)
    })
}

/// The QoR triple the benchmark reports, as measured on a verified
/// output: `(hpwl, avg displacement, max displacement)` in dbu.
pub fn qor(tracer: &mut Tracer, design: &Design) -> (f64, f64, f64) {
    let q = tracer.span("design.qor", || Qor::measure(design));
    (q.hpwl as f64, q.avg_displacement, q.max_displacement as f64)
}

/// Per-design QoR of one pass, in design order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QorTable {
    rows: Vec<(String, (f64, f64, f64))>,
}

impl QorTable {
    /// Adds (first pass) or checks (later passes) a design's QoR; `false`
    /// when a later pass differs from the first.
    pub fn check_or_add(&mut self, design: &str, q: (f64, f64, f64)) -> bool {
        match self.rows.iter().find(|(d, _)| d == design) {
            Some((_, first)) => {
                first.0.to_bits() == q.0.to_bits()
                    && first.1.to_bits() == q.1.to_bits()
                    && first.2.to_bits() == q.2.to_bits()
            }
            None => {
                self.rows.push((design.to_string(), q));
                true
            }
        }
    }

    /// Records `hpwl_dbu`, `avg_disp_dbu` and `max_disp_dbu` as geometric
    /// means over the designs (so each weighs equally), plus the
    /// per-design rows under `qor.<design>.*`.
    pub fn record(&self, rep: &mut Report) -> Result<()> {
        let n = self.rows.len();
        let col = |f: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
            self.rows.iter().map(|(_, q)| f(q)).collect()
        };
        rep.record_some("hpwl_dbu", "dbu", geomean(&col(|q| q.0)), n)?;
        rep.record_some("avg_disp_dbu", "dbu", geomean(&col(|q| q.1)), n)?;
        rep.record_some("max_disp_dbu", "dbu", geomean(&col(|q| q.2)), n)?;
        for (d, q) in &self.rows {
            rep.record(format!("qor.{d}.hpwl_dbu"), "dbu", q.0, 1)?;
            rep.record(format!("qor.{d}.avg_disp_dbu"), "dbu", q.1, 1)?;
            rep.record(format!("qor.{d}.max_disp_dbu"), "dbu", q.2, 1)?;
        }
        Ok(())
    }

    /// Average displacement of `design`, if recorded.
    pub fn avg_disp(&self, design: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(d, _)| d == design)
            .map(|(_, q)| q.1)
    }
}

/// Counter totals and histogram sums/counts the program's telemetry
/// accumulated between two snapshots.
#[derive(Debug, Default, Clone)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    hist: BTreeMap<String, (u64, f64)>,
}

impl Delta {
    /// The change from `before` to `after`.
    pub fn between(before: &telemetry::Snapshot, after: &telemetry::Snapshot) -> Self {
        let counters = after
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - before.counter(k)))
            .collect();
        let hist = after
            .histograms
            .iter()
            .map(|(k, h)| {
                let (c0, s0) = before.histogram(k).map_or((0, 0.0), |b| (b.count, b.sum));
                (k.clone(), (h.count - c0, h.sum - s0))
            })
            .collect();
        Self { counters, hist }
    }

    /// Adds another delta into this one.
    pub fn add(&mut self, other: &Delta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, (c, s)) in &other.hist {
            let e = self.hist.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += s;
        }
    }

    /// Counter change, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `(count, sum)` change.
    pub fn hist(&self, name: &str) -> (u64, f64) {
        self.hist.get(name).copied().unwrap_or((0, 0.0))
    }
}

/// Runs `f`, returning what the program's telemetry counted during it
/// when telemetry is on (an empty delta otherwise).
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Delta) {
    if telemetry::disabled() {
        return (f(), Delta::default());
    }
    let before = telemetry::snapshot();
    let r = f();
    (r, Delta::between(&before, &telemetry::snapshot()))
}

/// A ratio with its base: records `name` = `num / den` in `unit`, and the
/// numerator and denominator (totals over `rounds` traced rounds) per
/// round under their own names, unless already recorded.
pub fn record_ratio(
    rep: &mut Report,
    name: &str,
    unit: &'static str,
    num: (&str, f64),
    den: (&str, f64),
    rounds: usize,
) -> Result<()> {
    rep.record_some(name, unit, (den.1 > 0.0).then(|| num.1 / den.1), rounds)?;
    let per_round = rounds.max(1) as f64;
    for (base, total) in [num, den] {
        if rep.get(base).is_none() {
            rep.record(base, "count", total / per_round, rounds)?;
        }
    }
    Ok(())
}

/// The legalize layer's own counters over the traced rounds, per round,
/// each ratio with its base; `legalize.retry_share.<design>` per design.
pub fn record_legalize_counters(
    rep: &mut Report,
    designs: &[Design],
    deltas: &[Delta],
    rounds: usize,
) -> Result<()> {
    let mut all = Delta::default();
    for (d, delta) in designs.iter().zip(deltas) {
        all.add(delta);
        let cells = (d.num_movable() * rounds) as f64;
        rep.record_some(
            format!("legalize.retry_share.{}", d.name),
            "share",
            (cells > 0.0).then(|| delta.counter("legalize.parallel.retries") as f64 / cells),
            rounds,
        )?;
    }
    let cells: f64 = designs.iter().map(|d| d.num_movable() as f64).sum::<f64>() * rounds as f64;
    let c = |name: &str| all.counter(name) as f64;
    record_ratio(
        rep,
        "legalize.retry_share",
        "share",
        ("legalize.retries", c("legalize.parallel.retries")),
        ("legalize.cells", cells),
        rounds,
    )?;
    record_ratio(
        rep,
        "legalize.fast_commit_share",
        "share",
        ("legalize.fast_commits", c("legalize.parallel.fast_commits")),
        ("legalize.cells", cells),
        rounds,
    )?;
    record_ratio(
        rep,
        "legalize.pixels_per_search",
        "pixels",
        (
            "legalize.pixels_scanned",
            c("legalize.search.pixels_scanned"),
        ),
        ("legalize.searches", c("legalize.search.calls")),
        rounds,
    )?;
    let per_round = rounds.max(1) as f64;
    rep.record(
        "legalize.merge_conflicts",
        "count",
        c("legalize.parallel.merge_conflicts") / per_round,
        rounds,
    )?;
    rep.record(
        "legalize.steals",
        "count",
        c("legalize.steal.count") / per_round,
        rounds,
    )
}
