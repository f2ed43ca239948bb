//! Clique/star net models and per-axis quadratic system assembly.
//!
//! Quadratic ("spring") wirelength turns every net into a set of two-pin
//! springs. Small nets become cliques (every pin pair connected, pair weight
//! `1/(deg-1)`); nets above the pin-count crossover get one free *star*
//! variable connected to every pin with weight `deg/(deg-1)` — eliminating
//! the star reproduces exactly the clique's quadratic form while keeping
//! assembly linear in the pin count.
//!
//! The x and y systems share the same spring topology and differ only in
//! pin offsets and fixed-pin coordinates, so springs are built once.
//! [`NetModel::assemble`] builds one axis's system from scratch;
//! [`NetModel::anchored_system`] plans the anchored system of both axes
//! once, and [`AnchoredSystem::refill`] rebuilds it per anchor weight,
//! bit-identical to `assemble`.

use rlleg_design::{Design, Pin};
use rlleg_nn::sparse::{Csr, CsrPlan};

/// One end of a spring: either a placer variable (movable cell or star
/// node) plus a pin offset, or an absolute fixed coordinate pair.
#[derive(Debug, Clone, Copy)]
pub struct SpringEnd {
    /// Variable index, or `None` for a fixed end.
    pub var: Option<u32>,
    /// Pin offset from the variable origin (x, y); for fixed ends this is
    /// the absolute pin position.
    pub ox: f64,
    /// See [`SpringEnd::ox`].
    pub oy: f64,
}

/// A two-pin spring with weight `w`.
#[derive(Debug, Clone, Copy)]
pub struct Spring {
    /// First end.
    pub a: SpringEnd,
    /// Second end.
    pub b: SpringEnd,
    /// Spring weight.
    pub w: f64,
}

/// The spring system of one design: shared topology for both axes.
#[derive(Debug)]
pub struct NetModel {
    /// All springs from all modeled nets.
    pub springs: Vec<Spring>,
    /// `var_of[cell_index]` is the variable of that movable cell, or
    /// `u32::MAX` for fixed cells.
    pub var_of: Vec<u32>,
    /// Movable-cell variable count (variables `0..num_cell_vars`).
    pub num_cell_vars: usize,
    /// Star-node count (variables `num_cell_vars..num_vars()`).
    pub num_stars: usize,
}

impl NetModel {
    /// Total variable count (movable cells + star nodes).
    pub fn num_vars(&self) -> usize {
        self.num_cell_vars + self.num_stars
    }

    /// Builds the spring system for `design` with the given clique/star
    /// pin-count crossover.
    pub fn build(design: &Design, star_crossover: usize) -> NetModel {
        let mut var_of = vec![u32::MAX; design.num_cells()];
        let mut num_cell_vars = 0u32;
        for (i, c) in design.cells.iter().enumerate() {
            if c.is_movable() {
                var_of[i] = num_cell_vars;
                num_cell_vars += 1;
            }
        }

        let end_of = |pin: &Pin| -> SpringEnd {
            match pin {
                Pin::OnCell { cell, offset } => {
                    let v = var_of[cell.index()];
                    if v == u32::MAX {
                        // Fixed cell: the pin is a constant at pos + offset.
                        let p = design.cell(*cell).pos + *offset;
                        SpringEnd {
                            var: None,
                            ox: p.x as f64,
                            oy: p.y as f64,
                        }
                    } else {
                        SpringEnd {
                            var: Some(v),
                            ox: offset.x as f64,
                            oy: offset.y as f64,
                        }
                    }
                }
                Pin::Fixed(p) => SpringEnd {
                    var: None,
                    ox: p.x as f64,
                    oy: p.y as f64,
                },
            }
        };

        let mut springs = Vec::new();
        let mut num_stars = 0u32;
        for net in &design.nets {
            let deg = net.pins.len();
            if deg < 2 {
                continue;
            }
            // A net connecting only fixed pins contributes a constant to the
            // objective; skip it entirely.
            let ends: Vec<SpringEnd> = net.pins.iter().map(end_of).collect();
            if ends.iter().all(|e| e.var.is_none()) {
                continue;
            }
            if deg <= star_crossover {
                let w = 1.0 / (deg as f64 - 1.0);
                for i in 0..deg {
                    for j in i + 1..deg {
                        if ends[i].var.is_none() && ends[j].var.is_none() {
                            continue;
                        }
                        springs.push(Spring {
                            a: ends[i],
                            b: ends[j],
                            w,
                        });
                    }
                }
            } else {
                // Star elimination yields pair weight s/deg; matching the
                // clique's 1/(deg-1) gives s = deg/(deg-1).
                let s = deg as f64 / (deg as f64 - 1.0);
                let star = SpringEnd {
                    var: Some(num_cell_vars + num_stars),
                    ox: 0.0,
                    oy: 0.0,
                };
                num_stars += 1;
                for e in &ends {
                    springs.push(Spring {
                        a: *e,
                        b: star,
                        w: s,
                    });
                }
            }
        }

        NetModel {
            springs,
            var_of,
            num_cell_vars: num_cell_vars as usize,
            num_stars: num_stars as usize,
        }
    }

    /// Assembles the quadratic system of one axis.
    ///
    /// `axis` selects the component of each spring end. `anchors` is
    /// a per-variable `(weight, target)` pull (weight 0 disables); every
    /// variable additionally gets the weak `eps` anchor toward
    /// `eps_target[v]` so the matrix stays positive definite even for
    /// floating cells or components with no fixed pins.
    ///
    /// [`anchored_system`](Self::anchored_system) builds the same system
    /// for anchors on every cell variable without re-sorting the matrix per
    /// call; this is its oracle, and the path for anchor-free solves.
    pub fn assemble(
        &self,
        axis: Axis,
        anchors: &[(f64, f64)],
        eps: f64,
        eps_target: &[f64],
    ) -> (Csr, Vec<f64>) {
        let n = self.num_vars();
        assert_eq!(anchors.len(), n);
        assert_eq!(eps_target.len(), n);
        let mut triplets = self.spring_triplets(n);
        let mut rhs = self.spring_rhs(axis);
        for (v, &(w, t)) in anchors.iter().enumerate() {
            if w > 0.0 {
                triplets.push((v as u32, v as u32, w));
                rhs[v] += w * t;
            }
        }
        for (v, &t) in eps_target.iter().enumerate() {
            triplets.push((v as u32, v as u32, eps));
            rhs[v] += eps * t;
        }
        (Csr::from_triplets(n, &triplets), rhs)
    }

    /// The springs' matrix triplets, with room for `extra` more. They are
    /// the same on both axes.
    fn spring_triplets(&self, extra: usize) -> Vec<(u32, u32, f64)> {
        let mut triplets = Vec::with_capacity(4 * self.springs.len() + extra);
        for s in &self.springs {
            let w = s.w;
            match (s.a.var, s.b.var) {
                (Some(i), Some(j)) => {
                    triplets.push((i, i, w));
                    triplets.push((j, j, w));
                    triplets.push((i, j, -w));
                    triplets.push((j, i, -w));
                }
                (Some(i), None) => triplets.push((i, i, w)),
                (None, Some(j)) => triplets.push((j, j, w)),
                (None, None) => {}
            }
        }
        triplets
    }

    /// The springs' part of one axis's right-hand side, summed per
    /// variable in spring order.
    fn spring_rhs(&self, axis: Axis) -> Vec<f64> {
        let mut rhs = vec![0.0f64; self.num_vars()];
        let pick = |e: &SpringEnd| -> f64 {
            match axis {
                Axis::X => e.ox,
                Axis::Y => e.oy,
            }
        };
        for s in &self.springs {
            let (oa, ob, w) = (pick(&s.a), pick(&s.b), s.w);
            if let Some(i) = s.a.var {
                rhs[i as usize] += w * (ob - oa);
            }
            if let Some(j) = s.b.var {
                rhs[j as usize] += w * (oa - ob);
            }
        }
        rhs
    }

    /// Plans the system [`assemble`](Self::assemble) builds when every
    /// cell variable (`0..num_cell_vars`) carries an anchor of one shared
    /// positive weight and the star variables carry none, for both axes
    /// at once. `eps` and `eps_target` are as for `assemble`, per axis.
    ///
    /// Such a system's matrix is the same on both axes (springs and
    /// anchors weigh the same on either), and between anchor weights it
    /// changes only in the cell variables' diagonals. So the matrix's
    /// pattern and summation order are planned once ([`CsrPlan`]) and each
    /// axis's spring part of the right-hand side is summed once; see
    /// [`AnchoredSystem::refill`].
    pub fn anchored_system(&self, eps: f64, eps_target: [&[f64]; 2]) -> AnchoredSystem {
        let n = self.num_vars();
        let m = self.num_cell_vars;
        let mut triplets = self.spring_triplets(m + n);
        let anchors = triplets.len()..triplets.len() + m;
        // The anchor weights are refill terms: their values here are
        // placeholders.
        triplets.extend((0..m as u32).map(|v| (v, v, 1.0)));
        triplets.extend((0..n as u32).map(|v| (v, v, eps)));
        let plan = CsrPlan::new(n, &triplets, anchors);
        let eps_rhs = eps_target.map(|t| {
            assert_eq!(t.len(), n);
            t.iter().map(|&t| eps * t).collect()
        });
        AnchoredSystem {
            plan,
            spring_rhs: [self.spring_rhs(Axis::X), self.spring_rhs(Axis::Y)],
            eps_rhs,
            rhs: [vec![0.0; n], vec![0.0; n]],
            weights: vec![0.0; m],
        }
    }
}

/// The anchored system of one [`NetModel`] for both axes, planned by
/// [`NetModel::anchored_system`].
#[derive(Debug, Clone)]
pub struct AnchoredSystem {
    plan: CsrPlan,
    /// Spring part of the right-hand side, per axis.
    spring_rhs: [Vec<f64>; 2],
    /// `eps * eps_target[v]`, per axis.
    eps_rhs: [Vec<f64>; 2],
    /// The right-hand sides of the last refill, per axis.
    rhs: [Vec<f64>; 2],
    /// The anchor weight of every cell variable, as the plan takes them.
    weights: Vec<f64>,
}

impl AnchoredSystem {
    /// The shared matrix and the X and Y right-hand sides for anchors of
    /// weight `w` pulling each cell variable `v` toward `(tx[v], ty[v])`.
    /// Bit-identical to [`NetModel::assemble`] on each axis with anchors
    /// `(w, tx[v])` / `(w, ty[v])` on the cell variables and `(0, 0)` on
    /// the stars.
    ///
    /// # Panics
    ///
    /// Panics unless `w > 0.0` (`assemble` leaves a non-positive anchor
    /// out of the matrix, which changes its pattern), or unless `tx` and
    /// `ty` hold one target per variable.
    pub fn refill(&mut self, w: f64, tx: &[f64], ty: &[f64]) -> (&Csr, &[f64], &[f64]) {
        assert!(w > 0.0, "anchor weight {w} is not positive");
        let m = self.weights.len();
        self.weights.fill(w);
        for (axis, t) in [tx, ty].into_iter().enumerate() {
            let rhs = &mut self.rhs[axis];
            assert_eq!(t.len(), rhs.len(), "one target per variable");
            for (v, r) in rhs.iter_mut().enumerate() {
                // Summed as `assemble` sums it: springs, anchor, eps.
                *r = self.spring_rhs[axis][v];
                if v < m {
                    *r += w * t[v];
                }
                *r += self.eps_rhs[axis][v];
            }
        }
        let [bx, by] = &self.rhs;
        (self.plan.refill(&self.weights), bx, by)
    }
}

/// Axis selector for [`NetModel::assemble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Horizontal.
    X,
    /// Vertical.
    Y,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlleg_design::{DesignBuilder, Technology};
    use rlleg_geom::Point;
    use rlleg_nn::sparse::pcg_solve;

    fn two_cell_design() -> Design {
        let mut b = DesignBuilder::new("t", Technology::contest(), 100, 10);
        let a = b.add_cell("a", 1, 1, Point::new(0, 0));
        let c = b.add_cell("c", 1, 1, Point::new(10_000, 0));
        b.add_net_with_fixed(
            "n0",
            vec![(a, 0, 0), (c, 0, 0)],
            vec![Point::new(0, 0), Point::new(20_000, 0)],
        );
        b.build()
    }

    #[test]
    fn clique_model_balances_between_fixed_pins() {
        let d = two_cell_design();
        // Net degree 4 with crossover >= 4: clique. Two movable cells plus
        // fixed pins at x = 0 and x = 20_000; by symmetry both settle at the
        // midpoint 10_000.
        let m = NetModel::build(&d, 6);
        assert_eq!(m.num_cell_vars, 2);
        assert_eq!(m.num_stars, 0);
        let anchors = vec![(0.0, 0.0); m.num_vars()];
        let eps_t = vec![0.0; m.num_vars()];
        let (a, b) = m.assemble(Axis::X, &anchors, 1e-9, &eps_t);
        let mut x = vec![0.0; m.num_vars()];
        let s = pcg_solve(&a, &b, &mut x, 1e-10, 200);
        assert!(s.converged);
        assert!((x[0] - 10_000.0).abs() < 1.0, "x0 = {}", x[0]);
        assert!((x[1] - 10_000.0).abs() < 1.0, "x1 = {}", x[1]);
    }

    #[test]
    fn star_model_matches_clique_solution() {
        let d = two_cell_design();
        let clique = NetModel::build(&d, 6);
        let star = NetModel::build(&d, 2); // degree 4 > 2 => star node
        assert_eq!(star.num_stars, 1);
        let solve = |m: &NetModel| {
            let anchors = vec![(0.0, 0.0); m.num_vars()];
            let eps_t = vec![0.0; m.num_vars()];
            let (a, b) = m.assemble(Axis::X, &anchors, 1e-9, &eps_t);
            let mut x = vec![0.0; m.num_vars()];
            let s = pcg_solve(&a, &b, &mut x, 1e-10, 400);
            assert!(s.converged);
            x
        };
        let xc = solve(&clique);
        let xs = solve(&star);
        // Star elimination is exact: cell positions agree across models.
        assert!((xc[0] - xs[0]).abs() < 1.0, "{} vs {}", xc[0], xs[0]);
        assert!((xc[1] - xs[1]).abs() < 1.0);
    }

    /// The planned system equals `assemble` on each axis, entry for entry
    /// and bit for bit, across a run of growing anchor weights refilled
    /// into one plan. des_perf_b_md1 has star nets and rows of more
    /// triplets than the standard library's small-sort cutoff, where the
    /// summation order of duplicate entries is not the triplet order.
    #[test]
    fn anchored_system_matches_assemble_bit_for_bit() {
        let spec = rlleg_benchgen::find_spec("des_perf_b_md1")
            .expect("table row")
            .scaled_to(400);
        let d = rlleg_benchgen::generate(&spec);
        let m = NetModel::build(&d, 5);
        let (n, cells) = (m.num_vars(), m.num_cell_vars);
        assert!(m.num_stars > 0, "the case must exercise star nets");
        let eps = 1e-6;
        let eps_t = [vec![31_000.5; n], vec![-7.25; n]];
        let mut sys = m.anchored_system(eps, [&eps_t[0], &eps_t[1]]);
        // Targets of mixed magnitude, stars included (they must be ignored).
        let t: [Vec<f64>; 2] = [
            (0..n).map(|v| (v as f64 * 0.37).sin() * 1e5).collect(),
            (0..n)
                .map(|v| (v as f64 * 1.91).cos() * 3e4 + 0.1)
                .collect(),
        ];
        // Triplets per matrix row: eps, plus two per spring end (one on
        // the diagonal, one off it) or one for a spring to a fixed pin.
        let mut terms = vec![1usize; n];
        for s in &m.springs {
            let per_end = if s.a.var.is_some() && s.b.var.is_some() {
                2
            } else {
                1
            };
            for v in [s.a.var, s.b.var].into_iter().flatten() {
                terms[v as usize] += per_end;
            }
        }
        assert!(
            terms.iter().any(|&t| t > 20),
            "the case must have a row of more than 20 triplets"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut w = 0.6;
        for _ in 0..8 {
            let (a, bx, by) = sys.refill(w, &t[0], &t[1]);
            let (a, b) = (a.clone(), [bx.to_vec(), by.to_vec()]);
            for (axis, k) in [(Axis::X, 0), (Axis::Y, 1)] {
                let anchors: Vec<(f64, f64)> = (0..n)
                    .map(|v| if v < cells { (w, t[k][v]) } else { (0.0, 0.0) })
                    .collect();
                let (want_a, want_b) = m.assemble(axis, &anchors, eps, &eps_t[k]);
                assert_eq!(a.nnz(), want_a.nnz(), "{axis:?} at w = {w}");
                for r in 0..n {
                    let (gc, gv) = a.row(r);
                    let (wc, wv) = want_a.row(r);
                    assert_eq!(gc, wc, "{axis:?} row {r} pattern at w = {w}");
                    assert_eq!(bits(gv), bits(wv), "{axis:?} row {r} values at w = {w}");
                }
                assert_eq!(bits(&b[k]), bits(&want_b), "{axis:?} rhs at w = {w}");
            }
            w *= 1.6;
        }
    }

    #[test]
    fn pin_offsets_shift_the_optimum() {
        let mut b = DesignBuilder::new("t", Technology::contest(), 100, 10);
        let a = b.add_cell("a", 2, 1, Point::new(0, 0));
        // One movable cell with a pin at offset 100 connected to a fixed pin
        // at x = 5_000: optimum is cell origin at 4_900.
        b.add_net_with_fixed("n0", vec![(a, 100, 0)], vec![Point::new(5_000, 0)]);
        let d = b.build();
        let m = NetModel::build(&d, 6);
        let anchors = vec![(0.0, 0.0); m.num_vars()];
        let eps_t = vec![0.0; m.num_vars()];
        let (mat, rhs) = m.assemble(Axis::X, &anchors, 1e-9, &eps_t);
        let mut x = vec![0.0; m.num_vars()];
        pcg_solve(&mat, &rhs, &mut x, 1e-10, 100);
        assert!((x[0] - 4_900.0).abs() < 1.0, "x0 = {}", x[0]);
    }
}
