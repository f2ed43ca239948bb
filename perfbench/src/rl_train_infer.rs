//! `rl_train_infer`: A3C training throughput beside RL inference.
//!
//! Set-up trains the inference model with the deterministic round-robin
//! `Trainer` (hidden 32, 2 agents × 2 episodes) on the paper rows of
//! `spi_top`, `usb_phy` and `sasc_top` at full scale, so every seed infers
//! with the same model. Each round runs one asynchronous A3C `train()`
//! burst (2 agents × 1 episode on the seed's `spi_top`, continuing past
//! failures so the step count is exact, with the seed in its RL config),
//! then `RlLegalizer::legalize` and the \[26\]+G baseline on the seed's
//! three Table III designs scaled to 1.5k cells. Features and network run
//! nowhere else.

use std::time::Instant;

use rl_legalizer::{train, RlConfig, RlLegalizer, Trainer};
use rlleg_benchgen::{find_spec, BenchmarkSpec};
use rlleg_design::Design;

use crate::common::{self, counted, record_ratio, Ctx, Delta, QorTable};
use crate::report::{err, Report, Result};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::verify::{classify_legalize, classify_rl, violations};

/// Designs the inference model is trained on (full scale).
pub const TRAIN: [&str; 3] = ["spi_top", "usb_phy", "sasc_top"];
/// Designs inference and the baseline legalize each round.
pub const TEST: [&str; 3] = ["keccak", "fft_a_md2", "pci_bridge32_a_md1"];
/// Cells of each test design.
pub const TEST_CELLS: usize = 1_500;
/// Design of the per-round training burst.
pub const BURST: &str = "spi_top";
/// A3C agents, in set-up training and in the burst.
pub const AGENTS: usize = 2;

struct Setup {
    burst: Design,
    test: Vec<Design>,
    rl: RlLegalizer,
    train_s: f64,
    train_steps: u64,
}

fn spec(name: &str) -> Result<BenchmarkSpec> {
    find_spec(name).ok_or_else(|| err(format!("no spec {name}")))
}

fn setup(ctx: &Ctx, tracer: &mut Tracer) -> Result<Setup> {
    let train_specs = TRAIN.iter().map(|n| spec(n)).collect::<Result<Vec<_>>>()?;
    let test_specs = TEST.iter().map(|n| spec(n)).collect::<Result<Vec<_>>>()?;
    let gen = tracer.enter("benchgen.generate");
    let paper = Ctx {
        seed: 0,
        ..ctx.clone()
    };
    let train_designs: Vec<Design> = train_specs.iter().map(|s| paper.input(s, None)).collect();
    let burst = ctx.input(&spec(BURST)?, None);
    let test: Vec<Design> = test_specs
        .iter()
        .map(|s| ctx.input(s, Some(TEST_CELLS)))
        .collect();
    tracer.exit(gen);
    let cfg = RlConfig {
        hidden_dim: 32,
        agents: AGENTS,
        episodes: 2,
        ..RlConfig::default()
    };
    let t = Instant::now();
    let (model, steps) = tracer.span("core.setup_train", || {
        let mut trainer = Trainer::new(&train_designs, &cfg);
        trainer.train_for(cfg.episodes);
        let steps = trainer.steps();
        (trainer.finish().best_model, steps)
    });
    Ok(Setup {
        burst,
        test,
        rl: RlLegalizer::new(model),
        train_s: t.elapsed().as_secs_f64(),
        train_steps: steps,
    })
}

/// Sums the traced rounds accumulate from `InferenceReport`.
#[derive(Default)]
struct InferSplit {
    total: f64,
    feature: f64,
    network: f64,
    /// Cells placed in policy order (one network forward each).
    policy_steps: f64,
}

/// Runs the workload.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<()> {
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    common::warm_pool(ctx.threads);
    let mut setup_train = Vec::new();
    let s = common::timed_setups(rep, || {
        let s = setup(ctx, &mut tracer)?;
        setup_train.push(s.train_s);
        Ok(s)
    })?;
    let generated = tracer.spans().len();
    let burst_design = &s.burst;
    let burst_cfg = RlConfig {
        hidden_dim: 32,
        agents: AGENTS,
        episodes: 1,
        terminate_on_failure: false,
        seed: RlConfig::default().seed ^ ctx.seed,
        ..RlConfig::default()
    };
    let burst_steps = (AGENTS * burst_cfg.episodes * burst_design.num_movable()) as f64;

    let mut rl_qor = QorTable::default();
    let mut base_qor = QorTable::default();
    let mut steps_per_s = Vec::new();
    let (mut cells, mut op_seconds) = (0usize, 0.0);
    let mut split = InferSplit::default();
    let mut infer_delta = Delta::default();
    let mut baseline_deltas = vec![Delta::default(); s.test.len()];
    let mut op_id = 0u64;
    let rounds = common::run_rounds(ctx, &mut tracer, |tracer| {
        op_id += 1;
        tracer.set_op(op_id);
        let t = Instant::now();
        let op = tracer.enter("op");
        let result = tracer.span("core.train_burst", || {
            train(std::slice::from_ref(burst_design), &burst_cfg)
        });
        tracer.exit(op);
        let burst_s = t.elapsed().as_secs_f64();
        let mut round = burst_s;
        let burst_ok = result.history.len() == AGENTS * burst_cfg.episodes;
        rep.op((!burst_ok).then(|| format!("burst ran {} episodes", result.history.len())));
        if !tracer.enabled() {
            steps_per_s.push(burst_steps / burst_s);
        }

        for (k, base) in s.test.iter().enumerate() {
            // RL-ordered inference.
            let mut d = base.clone();
            op_id += 1;
            tracer.set_op(op_id);
            let t = Instant::now();
            let op = tracer.enter("op");
            let (report, delta) = counted(|| tracer.span("core.infer", || s.rl.legalize(&mut d)));
            tracer.exit(op);
            let dt = t.elapsed().as_secs_f64();
            round += dt;
            let mut legalize_s = dt;
            if tracer.enabled() {
                infer_delta.add(&delta);
                split.total += report.total_time.as_secs_f64();
                split.feature += report.feature_time.as_secs_f64();
                split.network += report.network_time.as_secs_f64();
                split.policy_steps +=
                    (report.legalized + report.failed.len() - report.degraded_cells) as f64;
            }
            let v = tracer.span("design.legality_check", || violations(&d));
            let q = common::qor(tracer, &d);
            let failure = classify_rl(&report, v).or_else(|| {
                (!rl_qor.check_or_add(&d.name, q))
                    .then_some(crate::verify::OpFailure::NotReproducible)
            });
            rep.op(failure.map(|f| format!("rl {}: {f}", d.name)));

            // The [26]+G baseline on the same input.
            let mut b = base.clone();
            op_id += 1;
            tracer.set_op(op_id);
            let t = Instant::now();
            let op = tracer.enter("op");
            let baseline = tracer.enter("core.baseline");
            let (stats, delta) = counted(|| common::legalize_op(tracer, &mut b, ctx.threads));
            tracer.exit(baseline);
            if tracer.enabled() {
                baseline_deltas[k].add(&delta);
            }
            tracer.exit(op);
            let dt = t.elapsed().as_secs_f64();
            round += dt;
            legalize_s += dt;
            let v = tracer.span("design.legality_check", || violations(&b));
            let q = common::qor(tracer, &b);
            let failure = classify_legalize(&stats, v).or_else(|| {
                (!base_qor.check_or_add(&b.name, q))
                    .then_some(crate::verify::OpFailure::NotReproducible)
            });
            rep.op(failure.map(|f| format!("baseline {}: {f}", b.name)));
            if !tracer.enabled() {
                cells += d.num_movable() + b.num_movable();
                op_seconds += legalize_s;
            }
        }
        Ok(round)
    })?;

    common::record_rounds(ctx, rep, &tracer, &rounds)?;
    let plain = rounds.iter().filter(|r| !r.traced).count();
    rep.record_some(
        "cells_per_s",
        "1/s",
        (op_seconds > 0.0).then(|| cells as f64 / op_seconds),
        plain * 2 * s.test.len(),
    )?;
    rep.record_some(
        "train_steps_per_s",
        "1/s",
        median(&steps_per_s),
        steps_per_s.len(),
    )?;
    if rep.correct() {
        rl_qor.record(rep)?;
        let ratios: Vec<f64> = s
            .test
            .iter()
            .filter_map(|d| Some(rl_qor.avg_disp(&d.name)? / base_qor.avg_disp(&d.name)?))
            .collect();
        rep.record_some("disp_vs_baseline", "ratio", geomean(&ratios), ratios.len())?;
    }
    if ctx.trace {
        let traced = rounds.iter().filter(|r| r.traced).count();
        common::record_generate(rep, &tracer, generated)?;
        record_traced(rep, &s, &setup_train, &split, &infer_delta, traced)?;
        let base: Vec<f64> = s
            .test
            .iter()
            .filter_map(|d| base_qor.avg_disp(&d.name))
            .collect();
        rep.record_some(
            "core.baseline_avg_disp_dbu",
            "dbu",
            geomean(&base),
            base.len(),
        )?;
        rep.record("core.train_steps", "count", burst_steps, traced)?;
        common::record_legalize_counters(rep, &s.test, &baseline_deltas, traced)?;
    }
    Ok(())
}

fn record_traced(
    rep: &mut Report,
    s: &Setup,
    setup_train: &[f64],
    split: &InferSplit,
    delta: &Delta,
    rounds: usize,
) -> Result<()> {
    rep.record_some(
        "core.setup_train_s",
        "s",
        median(setup_train),
        setup_train.len(),
    )?;
    rep.record(
        "core.setup_train_steps",
        "count",
        s.train_steps as f64,
        setup_train.len(),
    )?;
    let per_round = rounds.max(1) as f64;
    rep.record("core.feature_s", "s", split.feature / per_round, rounds)?;
    rep.record("core.network_s", "s", split.network / per_round, rounds)?;
    rep.record(
        "core.search_s",
        "s",
        (split.total - split.feature - split.network) / per_round,
        rounds,
    )?;
    // The program records one mean batch size per inference run.
    let (runs, mean_rows) = delta.hist("infer.network.batch_rows");
    record_ratio(
        rep,
        "nn.rows_per_forward",
        "rows",
        ("nn.batch_rows_sum", mean_rows),
        ("nn.infer_runs", runs as f64),
        rounds,
    )?;
    record_ratio(
        rep,
        "geom.rtree_queries_per_step",
        "queries",
        (
            "geom.rtree_queries",
            delta.counter("legalize.features.rtree_queries") as f64,
        ),
        ("core.policy_steps", split.policy_steps),
        rounds,
    )
}
