//! Sparse linear algebra for the analytical global placer: a CSR matrix,
//! a plan that rebuilds a CSR matrix whose terms change only in a few
//! entries ([`CsrPlan`]), sparse matrix-vector products, and a
//! Jacobi-preconditioned conjugate gradient solver.
//!
//! The placer's per-axis wirelength systems are symmetric positive definite
//! graph Laplacians plus anchor diagonals, so CG with a diagonal (Jacobi)
//! preconditioner converges in a few dozen iterations without any fill-in.
//! Everything here is `f64` and strictly sequential, so solves are
//! bit-deterministic regardless of how many worker threads the rest of the
//! pipeline uses.

/// Compressed sparse row matrix over `f64`.
///
/// Built from unsorted `(row, col, value)` triplets; duplicate entries are
/// summed, which makes Laplacian assembly (`A[i][i] += w; A[i][j] -= w; ...`)
/// a plain triplet push per spring.
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
}

impl Csr {
    /// Builds an `n x n` CSR matrix from triplets, summing duplicates.
    ///
    /// Duplicates are summed left to right, in the order an unstable sort
    /// of the row by column leaves them; [`CsrPlan`] reproduces that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of `0..n`.
    pub fn from_triplets(n: usize, triplets: &[(u32, u32, f64)]) -> Csr {
        let mut col = Vec::with_capacity(triplets.len());
        let mut val = Vec::with_capacity(triplets.len());
        let mut row_ptr = vec![0u32; n + 1];
        for_each_sorted_row(
            n,
            triplets,
            |k| triplets[k].2,
            |r, row| {
                for run in row.chunk_by(|a, b| a.0 == b.0) {
                    col.push(run[0].0);
                    val.push(left_fold(run.iter().map(|e| e.1)));
                }
                row_ptr[r + 1] = col.len() as u32;
            },
        );
        Csr {
            n,
            row_ptr,
            col,
            val,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored non-zero count.
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// The stored columns of row `r` (ascending) and their values.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
        (&self.col[lo..hi], &self.val[lo..hi])
    }

    /// `y = A x` (sequential, deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` length differs from `n`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (r, out) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.val[k] * x[self.col[k] as usize];
            }
            *out = acc;
        }
    }

    /// The matrix diagonal (zero where no entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (r, slot) in d.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for k in lo..hi {
                if self.col[k] as usize == r {
                    *slot = self.val[k];
                }
            }
        }
        d
    }
}

/// Scatters `triplets` into their rows (triplet order within a row), sorts
/// each row by column and hands it to `visit(row, entries)` as
/// `(col, payload(k))` pairs, `k` being the triplet's index.
///
/// [`Csr::from_triplets`] carries the values and [`CsrPlan::new`] carries
/// each triplet's index in the `f64`'s bits. Both must go through this one
/// `sort_unstable_by_key` call on this one `(u32, f64)` element type:
/// which of two equal columns comes first after an unstable sort depends
/// on the algorithm the standard library picks for the element type (and
/// on the row length, but not on the payload, since only keys are
/// compared), and that order is the order duplicates are summed in, so a
/// different one can change the last bit of an entry.
fn for_each_sorted_row(
    n: usize,
    triplets: &[(u32, u32, f64)],
    payload: impl Fn(usize) -> f64,
    mut visit: impl FnMut(usize, &[(u32, f64)]),
) {
    let mut counts = vec![0u32; n + 1];
    for &(r, c, _) in triplets {
        assert!((r as usize) < n && (c as usize) < n, "triplet out of range");
        counts[r as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut col = vec![0u32; triplets.len()];
    let mut val = vec![0.0f64; triplets.len()];
    let mut cursor = counts.clone();
    for (k, &(r, c, _)) in triplets.iter().enumerate() {
        let slot = cursor[r as usize] as usize;
        col[slot] = c;
        val[slot] = payload(k);
        cursor[r as usize] += 1;
    }
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for r in 0..n {
        let (lo, hi) = (counts[r] as usize, counts[r + 1] as usize);
        scratch.clear();
        scratch.extend(col[lo..hi].iter().copied().zip(val[lo..hi].iter().copied()));
        scratch.sort_unstable_by_key(|&(c, _)| c);
        visit(r, &scratch);
    }
}

/// `((t0 + t1) + t2) + ...`, the summation order of a stored entry.
fn left_fold(mut terms: impl Iterator<Item = f64>) -> f64 {
    let first = terms.next().expect("a stored entry has a term");
    terms.fold(first, |acc, t| acc + t)
}

/// A CSR matrix whose pattern and summation order are fixed once for a
/// triplet list, so that a matrix differing only in some terms' values
/// can be rebuilt by rewriting just the entries those terms land in.
///
/// The *refill terms* are a contiguous range of the triplet list, at most
/// one per stored entry. Every other term keeps the value it had when the
/// plan was made. [`refill`](Self::refill) with new values for the refill
/// terms yields the matrix [`Csr::from_triplets`] builds from the same
/// list carrying those values, bit for bit. Per refilled entry the plan
/// keeps only the left-fold of the terms summed before the refill term
/// and the terms summed after it.
#[derive(Debug, Clone)]
pub struct CsrPlan {
    csr: Csr,
    slots: Vec<RefillSlot>,
    /// Terms summed after each slot's refill term, slot after slot.
    tails: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct RefillSlot {
    /// Index into the matrix's values.
    slot: u32,
    /// Index of the refill term within the refill range.
    term: u32,
    /// Left-fold of the terms summed before the refill term, if any.
    head: Option<f64>,
    /// End of this slot's terms in [`CsrPlan::tails`].
    tail_end: u32,
}

impl CsrPlan {
    /// Plans the `n x n` matrix of `triplets`, with `triplets[refill]` as
    /// the refill terms (their values here are ignored).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of `0..n`, if `refill` is not inside the
    /// list, or if two refill terms land in the same entry.
    pub fn new(n: usize, triplets: &[(u32, u32, f64)], refill: std::ops::Range<usize>) -> CsrPlan {
        assert!(refill.end <= triplets.len(), "refill range out of the list");
        let mut col = Vec::new();
        let mut val = Vec::new();
        let mut row_ptr = vec![0u32; n + 1];
        let mut slots = Vec::with_capacity(refill.len());
        let mut tails = Vec::new();
        for_each_sorted_row(
            n,
            triplets,
            |k| f64::from_bits(k as u64),
            |r, row| {
                for run in row.chunk_by(|a, b| a.0 == b.0) {
                    let index = |e: &(u32, f64)| e.1.to_bits() as usize;
                    let term = |e: &(u32, f64)| triplets[index(e)].2;
                    col.push(run[0].0);
                    let Some(p) = run.iter().position(|e| refill.contains(&index(e))) else {
                        val.push(left_fold(run.iter().map(term)));
                        continue;
                    };
                    assert!(
                        !run[p + 1..].iter().any(|e| refill.contains(&index(e))),
                        "two refill terms in one entry"
                    );
                    tails.extend(run[p + 1..].iter().map(term));
                    slots.push(RefillSlot {
                        slot: val.len() as u32,
                        term: (index(&run[p]) - refill.start) as u32,
                        head: (p > 0).then(|| left_fold(run[..p].iter().map(term))),
                        tail_end: tails.len() as u32,
                    });
                    // Written by every refill before the matrix is handed out.
                    val.push(f64::NAN);
                }
                row_ptr[r + 1] = col.len() as u32;
            },
        );
        CsrPlan {
            csr: Csr {
                n,
                row_ptr,
                col,
                val,
            },
            slots,
            tails,
        }
    }

    /// Rewrites the refilled entries for `values` (one per refill term, in
    /// the order of the refill range) and returns the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold one value per refill term.
    pub fn refill(&mut self, values: &[f64]) -> &Csr {
        assert_eq!(values.len(), self.slots.len(), "one value per refill term");
        let mut lo = 0;
        for s in &self.slots {
            let hi = s.tail_end as usize;
            let r = values[s.term as usize];
            let head = s.head.map_or(r, |h| h + r);
            self.csr.val[s.slot as usize] = self.tails[lo..hi].iter().fold(head, |acc, t| acc + t);
            lo = hi;
        }
        &self.csr
    }
}

/// Convergence report from [`pcg_solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcgStats {
    /// Iterations actually run.
    pub iterations: usize,
    /// Final relative residual `||b - Ax|| / ||b||` (0 when `b = 0`).
    pub residual: f64,
    /// Whether the relative residual reached the requested tolerance.
    pub converged: bool,
}

/// Solves `A x = b` by Jacobi-preconditioned conjugate gradient, starting
/// from the initial guess already in `x`.
///
/// `A` must be symmetric positive definite (the caller's Laplacian plus
/// anchor diagonals is). Zero diagonal entries fall back to an identity
/// preconditioner row, so a row with no springs simply keeps its initial
/// value when `b` is zero there.
pub fn pcg_solve(a: &Csr, b: &[f64], x: &mut [f64], tol: f64, max_iters: usize) -> PcgStats {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let inv_d: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
        .collect();

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        for v in x.iter_mut() {
            *v = 0.0;
        }
        return PcgStats {
            iterations: 0,
            residual: 0.0,
            converged: true,
        };
    }

    let mut r = vec![0.0; n];
    a.spmv(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z: Vec<f64> = r.iter().zip(&inv_d).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    let mut iterations = 0;
    for _ in 0..max_iters {
        let rn = norm2(&r);
        if rn <= tol * b_norm {
            break;
        }
        iterations += 1;
        a.spmv(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            break; // numerically indefinite: keep the best iterate so far
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        for i in 0..n {
            z[i] = r[i] * inv_d[i];
        }
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let residual = norm2(&r) / b_norm;
    PcgStats {
        iterations,
        residual,
        converged: residual <= tol,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values of mixed sign and binary exponent, with both zeros: summing
    /// them in a different order changes low bits, and `-0.0 + -0.0`
    /// differs from `0.0 + -0.0`.
    fn arb_value() -> impl Strategy<Value = f64> {
        (0u8..6, -4.0f64..4.0, -30i32..30).prop_map(|(k, x, e)| match k {
            0 => 0.0,
            1 => -0.0,
            _ => x * 2f64.powi(e),
        })
    }

    fn assert_bits_eq(got: &Csr, want: &Csr) -> Result<(), TestCaseError> {
        prop_assert_eq!(&got.row_ptr, &want.row_ptr);
        prop_assert_eq!(&got.col, &want.col);
        let bits = |c: &Csr| c.val.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(got), bits(want));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On random triplet lists with few columns per row (so rows run to
        /// dozens of entries, past the standard library's small-sort
        /// cutoff, and duplicates are common), a plan refilled twice with
        /// new values equals `from_triplets` on the list carrying them.
        #[test]
        fn plan_refill_matches_from_triplets_bit_for_bit(
            n in 1usize..6,
            before in prop::collection::vec((0u32..6, 0u32..6, arb_value()), 0..160),
            after in prop::collection::vec((0u32..6, 0u32..6, arb_value()), 0..160),
            refills in prop::collection::vec(
                (any::<bool>(), 0u32..6, arb_value(), arb_value()),
                6..7,
            ),
        ) {
            let nu = n as u32;
            let wrap = |t: &[(u32, u32, f64)]| -> Vec<(u32, u32, f64)> {
                t.iter().map(|&(r, c, v)| (r % nu, c % nu, v)).collect()
            };
            let (before, after) = (wrap(&before), wrap(&after));
            // At most one refill term per row, so never two in one entry.
            let rows: Vec<(u32, u32, [f64; 2])> = (0..nu)
                .filter(|&r| refills[r as usize].0)
                .map(|r| {
                    let (_, c, v0, v1) = refills[r as usize];
                    (r, c % nu, [v0, v1])
                })
                .collect();
            let list = |round: usize| -> Vec<(u32, u32, f64)> {
                let mid = rows.iter().map(|&(r, c, v)| (r, c, v[round]));
                before.iter().copied().chain(mid).chain(after.iter().copied()).collect()
            };
            let range = before.len()..before.len() + rows.len();
            let mut plan = CsrPlan::new(n, &list(0), range);
            for round in 0..2 {
                let values: Vec<f64> = rows.iter().map(|r| r.2[round]).collect();
                let got = plan.refill(&values).clone();
                assert_bits_eq(&got, &Csr::from_triplets(n, &list(round)))?;
            }
        }
    }

    #[test]
    fn csr_sums_duplicates_and_multiplies() {
        // [[2, -1], [-1, 2]] assembled as spring triplets with duplicates.
        let t = [
            (0, 0, 1.0),
            (0, 0, 1.0),
            (0, 1, -1.0),
            (1, 1, 2.0),
            (1, 0, -1.0),
        ];
        let a = Csr::from_triplets(2, &t);
        assert_eq!(a.nnz(), 4);
        let mut y = vec![0.0; 2];
        a.spmv(&[3.0, 1.0], &mut y);
        assert_eq!(y, vec![5.0, -1.0]);
        assert_eq!(a.diagonal(), vec![2.0, 2.0]);
    }

    #[test]
    fn pcg_solves_laplacian_system() {
        // 1D chain of 5 nodes anchored at both ends: tridiagonal SPD.
        let n = 5;
        let mut t = Vec::new();
        for i in 0..n - 1 {
            let (a, b) = (i as u32, i as u32 + 1);
            t.push((a, a, 1.0));
            t.push((b, b, 1.0));
            t.push((a, b, -1.0));
            t.push((b, a, -1.0));
        }
        t.push((0, 0, 1.0));
        t.push((n as u32 - 1, n as u32 - 1, 1.0));
        let a = Csr::from_triplets(n, &t);
        // Anchors pull node 0 to 0.0 and node 4 to 100.0.
        let b = [0.0, 0.0, 0.0, 0.0, 100.0];
        let mut x = vec![0.0; n];
        let stats = pcg_solve(&a, &b, &mut x, 1e-10, 200);
        assert!(stats.converged, "residual {}", stats.residual);
        // Equilibrium of the chain with unit anchors is linear:
        // x_i = (100 / 6) * (i + 1).
        for (i, &xi) in x.iter().enumerate() {
            let want = 100.0 / 6.0 * (i as f64 + 1.0);
            assert!((xi - want).abs() < 1e-6, "x[{i}] = {xi}, want {want}");
        }
    }

    #[test]
    fn pcg_zero_rhs_returns_zero() {
        let a = Csr::from_triplets(2, &[(0, 0, 2.0), (1, 1, 2.0)]);
        let mut x = vec![5.0, -3.0];
        let stats = pcg_solve(&a, &[0.0, 0.0], &mut x, 1e-12, 10);
        assert!(stats.converged);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn pcg_is_deterministic() {
        let n = 64;
        let mut t = Vec::new();
        for i in 0..n as u32 {
            t.push((i, i, 4.0));
            if i + 1 < n as u32 {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = Csr::from_triplets(n, &t);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let s1 = pcg_solve(&a, &b, &mut x1, 1e-12, 500);
        let s2 = pcg_solve(&a, &b, &mut x2, 1e-12, 500);
        assert_eq!(s1, s2);
        assert_eq!(
            x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "solves must be bit-identical"
        );
    }
}
