//! `gplace_flow`: netlist → `rlleg_gplace::place` → \[26\]+G legalize, on
//! `keccak` (OpenCores) and `pci_bridge32_a_md1` (contest).
//!
//! The global placer does most of the work. The two designs take opposite
//! finalist branches: on `keccak` a spread finalist wins, on
//! `pci_bridge32_a_md1` the placer hands back its input.

use std::time::Instant;

use rlleg_benchgen::find_spec;
use rlleg_design::Design;
use rlleg_gplace::{place, GpConfig};

use crate::common::{self, counted, Ctx, Delta, QorTable};
use crate::report::{err, Report, Result};
use crate::trace::Tracer;
use crate::verify::{classify_legalize, violations, OpFailure};

/// The flow's designs.
pub const DESIGNS: [&str; 2] = ["keccak", "pci_bridge32_a_md1"];

/// Runs the workload.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<()> {
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    common::warm_pool(ctx.threads);
    let specs = DESIGNS
        .iter()
        .map(|n| find_spec(n).ok_or_else(|| err(format!("no spec {n}"))))
        .collect::<Result<Vec<_>>>()?;
    let designs: Vec<Design> = common::timed_setups(rep, || {
        Ok(specs
            .iter()
            .map(|s| tracer.span("benchgen.generate", || ctx.input(s, None)))
            .collect())
    })?;
    let generated = tracer.spans().len();

    let mut qor = QorTable::default();
    let mut place_delta = Delta::default();
    let mut deltas: Vec<Delta> = vec![Delta::default(); designs.len()];
    let (mut cells, mut op_seconds) = (0usize, 0.0);
    let (mut cg, mut outer, mut gp_calls) = (0usize, 0usize, 0usize);
    let mut op_id = 0u64;
    let rounds = common::run_rounds(ctx, &mut tracer, |tracer| {
        let mut round = 0.0;
        for (k, base) in designs.iter().enumerate() {
            let mut d = base.clone();
            op_id += 1;
            tracer.set_op(op_id);
            let t = Instant::now();
            let op = tracer.enter("op");
            let (gp, in_place) =
                counted(|| tracer.span("gplace.place", || place(&mut d, &GpConfig::default())));
            let (stats, in_legalize) = counted(|| common::legalize_op(tracer, &mut d, ctx.threads));
            tracer.exit(op);
            let dt = t.elapsed().as_secs_f64();
            round += dt;
            if tracer.enabled() {
                place_delta.add(&in_place);
                deltas[k].add(&in_legalize);
                cg += gp.cg_iterations;
                outer += gp.iterations;
                gp_calls += 1;
            } else {
                cells += d.num_movable();
                op_seconds += dt;
            }
            let v = tracer.span("design.legality_check", || violations(&d));
            let q = common::qor(tracer, &d);
            let failure = classify_legalize(&stats, v)
                .or_else(|| (!qor.check_or_add(&d.name, q)).then_some(OpFailure::NotReproducible));
            rep.op(failure.map(|f| format!("{}: {f}", d.name)));
        }
        Ok(round)
    })?;

    common::record_rounds(ctx, rep, &tracer, &rounds)?;
    rep.record_some(
        "cells_per_s",
        "1/s",
        (op_seconds > 0.0).then(|| cells as f64 / op_seconds),
        rounds.iter().filter(|r| !r.traced).count() * designs.len(),
    )?;
    if rep.correct() {
        qor.record(rep)?;
    }
    if ctx.trace {
        common::record_generate(rep, &tracer, generated)?;
        let traced = rounds.iter().filter(|r| r.traced).count();
        let per_round = traced.max(1) as f64;
        rep.record(
            "gplace.cg_iterations",
            "count",
            cg as f64 / per_round,
            gp_calls,
        )?;
        rep.record(
            "gplace.outer_iterations",
            "count",
            outer as f64 / per_round,
            gp_calls,
        )?;
        // The finalist trial legalizations inside `place`, read from the
        // program's own `legalize.run_gcells_parallel` span.
        let (trials, trial_s) = place_delta.hist("span.legalize.run_gcells_parallel");
        rep.record(
            "gplace.trial_legalize_s",
            "s",
            trial_s / per_round,
            trials as usize,
        )?;
        for kind in ["input", "refined", "spread"] {
            rep.record(
                format!("gplace.finalist_{kind}"),
                "count",
                place_delta.counter(&format!("gplace.finalist.{kind}")) as f64 / per_round,
                traced,
            )?;
        }
        common::record_legalize_counters(rep, &designs, &deltas, traced)?;
    }
    Ok(())
}
