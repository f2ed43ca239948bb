use serde::{Deserialize, Serialize};

/// Row count at which [`Matrix::matmul`] / [`Matrix::matmul_t`] switch from
/// the naive loops to the row-broadcast kernel.
///
/// Per-state inference matrices of small subepisode windows have a handful
/// of rows and stay on the naive path, where packing and tile setup would
/// dominate; Gcell-sized states and batched evaluation over hundreds of
/// rows cross this threshold and get the row-broadcast kernel.
pub const BLOCKED_MIN_ROWS: usize = 16;

/// Output columns one row-broadcast tile keeps live per row. Products with
/// fewer output columns (the one-column policy and value heads) stay on
/// the naive loops.
const TILE_COLS: usize = 16;

/// A dense row-major `f32` matrix.
///
/// This is the only tensor type the workspace needs: states are `N×F`
/// matrices (N cells, F features) and every layer maps matrices to matrices.
///
/// ```
/// use rlleg_nn::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Stacks matrices with a common column count vertically into one
    /// `(Σ rowsᵢ) × cols` matrix.
    ///
    /// This is the batching primitive: stacking many per-state matrices
    /// and running one forward pushes the row count past
    /// [`BLOCKED_MIN_ROWS`], so the whole batch goes through the
    /// row-broadcast kernel instead of many naive small products — with
    /// bit-identical per-row results, because the row-broadcast and naive
    /// kernels produce identical sums for every row independently.
    ///
    /// # Panics
    ///
    /// Panics when `mats` is empty or the column counts disagree.
    pub fn stack(mats: &[&Matrix]) -> Self {
        assert!(!mats.is_empty(), "stack needs at least one matrix");
        let cols = mats[0].cols;
        let total: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(total * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "stack: column mismatch");
            data.extend_from_slice(&m.data);
        }
        Self {
            rows: total,
            cols,
            data,
        }
    }

    /// Overwrites this matrix with `rows × cols` values from `data`,
    /// reusing the existing allocation when it is large enough.
    ///
    /// Hot loops that recompute a same-shaped matrix every step (the
    /// masked-mode trainer's bootstrap states) use this instead of
    /// building a fresh [`Matrix::from_vec`] per step.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn copy_from(&mut self, rows: usize, cols: usize, data: &[f32]) {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs`.
    ///
    /// Products with at least [`BLOCKED_MIN_ROWS`] rows and 16 output
    /// columns run the row-broadcast kernel straight on `rhs` (already
    /// laid out `k × n`); smaller ones fall through to
    /// [`matmul_naive`](Self::matmul_naive). Both accumulate each output
    /// element over `k` in ascending order from `+0.0`, so the result is
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        if self.rows < BLOCKED_MIN_ROWS || rhs.cols < TILE_COLS {
            return self.matmul_naive(rhs);
        }
        self.matmul_row_broadcast(&rhs.data, rhs.cols, 0.0)
    }

    /// Reference `self · rhs`: the straightforward ikj triple loop, kept as
    /// the test oracle for the row-broadcast kernel behind
    /// [`matmul`](Self::matmul).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order: stream rhs rows, decent cache behaviour without
        // blocking.
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in arow.iter().enumerate() {
                let brow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "t_matmul row mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            let brow = &rhs.data[r * rhs.cols..(r + 1) * rhs.cols];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self · rhsᵀ`.
    ///
    /// This is the inference hot path (`Linear` stores weights `out × in`,
    /// so every forward is an `x · Wᵀ`). Products with at least
    /// [`BLOCKED_MIN_ROWS`] rows and 16 output columns pack `rhsᵀ` once and
    /// run the row-broadcast kernel; the rest (narrow heads, small states)
    /// use the plain dot-product loops of
    /// [`matmul_t_naive`](Self::matmul_t_naive). Both paths accumulate each
    /// output element over `k` in ascending order from `-0.0` (the identity
    /// `f32::sum` folds from), so they produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_t col mismatch");
        if self.rows < BLOCKED_MIN_ROWS || rhs.rows < TILE_COLS {
            return self.matmul_t_naive(rhs);
        }
        // Pack rhsᵀ (k × n, row-major) so each k step of the kernel reads
        // one contiguous run of output columns.
        let (n, k) = (rhs.rows, rhs.cols);
        let mut packed = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                packed[p * n + j] = rhs.data[j * k + p];
            }
        }
        self.matmul_row_broadcast(&packed, n, -0.0)
    }

    /// Reference `self · rhsᵀ`: one dot product per output element, kept as
    /// the test oracle (and small-input path) for
    /// [`matmul_t`](Self::matmul_t).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn matmul_t_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_t col mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let brow = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                out.data[i * rhs.rows + j] = arow.iter().zip(brow).map(|(a, b)| a * b).sum();
            }
        }
        out
    }

    /// Row-broadcast `self · B` for `B` given as `k × n` row-major `b`
    /// (`n ≥ TILE_COLS`).
    ///
    /// Each tile keeps two output rows × 16 columns of accumulators live
    /// across the whole `k` sweep: every step broadcasts one element of
    /// each input row over one contiguous 16-wide run of `B`, which the
    /// compiler turns into plain SIMD multiplies and adds. Per output
    /// element the additions still happen one at a time in ascending `k`
    /// order, starting from `init`, so the result is bit-identical to the
    /// matching naive kernel — provided `init` matches its accumulator
    /// identity: `f32`'s `sum()` folds from `-0.0` (preserving
    /// all-negative-zero sums), while `matmul_naive`'s `+=`-into-zeros
    /// starts at `+0.0`. Products are never fused into an FMA, which would
    /// round differently. An odd last row pairs with itself and the last
    /// tile of a row is shifted left to end at column `n`; the duplicated
    /// accumulators recompute identical values.
    fn matmul_row_broadcast(&self, b: &[f32], n: usize, init: f32) -> Matrix {
        let (m, k) = (self.rows, self.cols);
        debug_assert!(n >= TILE_COLS && b.len() == k * n);
        let mut out = Matrix::zeros(m, n);
        for i0 in (0..m).step_by(2) {
            let i1 = (i0 + 1).min(m - 1);
            let a0 = &self.data[i0 * k..(i0 + 1) * k];
            let a1 = &self.data[i1 * k..(i1 + 1) * k];
            let mut j = 0;
            while j < n {
                let j0 = j.min(n - TILE_COLS);
                let mut acc0 = [init; TILE_COLS];
                let mut acc1 = [init; TILE_COLS];
                for ((&x0, &x1), brow) in a0.iter().zip(a1).zip(b.chunks_exact(n)) {
                    let bt: &[f32; TILE_COLS] = brow[j0..j0 + TILE_COLS]
                        .try_into()
                        .expect("tile is TILE_COLS wide");
                    for c in 0..TILE_COLS {
                        acc0[c] += x0 * bt[c];
                        acc1[c] += x1 * bt[c];
                    }
                }
                out.data[i0 * n + j0..i0 * n + j0 + TILE_COLS].copy_from_slice(&acc0);
                out.data[i1 * n + j0..i1 * n + j0 + TILE_COLS].copy_from_slice(&acc1);
                j = j0 + TILE_COLS;
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        let z = Matrix::zeros(2, 2);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transposed_products_agree_with_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        // aᵀ is 3x2; aᵀ·(2x?) needs rhs with 2 rows.
        let c = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 1.0]]);
        let t1 = a.t_matmul(&c); // 3x2
        assert_eq!(t1.rows(), 3);
        assert_eq!(t1[(0, 0)], 1.0 * 2.0 + 4.0 * 0.0);
        let t2 = a.matmul_t(&Matrix::from_rows(&[&[1.0, 1.0, 1.0]])); // 2x1
        assert_eq!(t2[(0, 0)], 6.0);
        assert_eq!(t2[(1, 0)], 15.0);
        let _ = b; // silence
    }

    #[test]
    fn map_inplace() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m.as_slice(), &[0.0, 2.0]);
    }

    /// Deterministic pseudo-random matrix (xorshift; no rand dependency in
    /// unit tests).
    fn ramp(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed | 1;
        let data = (0..rows * cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 2000) as f32 / 100.0 - 10.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bit_identical(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn row_broadcast_matmul_t_bit_identical_to_naive_with_edge_tiles() {
        // 17 rows leave an unpaired last row; 37 output columns are two
        // full tiles plus a shifted tail tile.
        let a = ramp(17, 5, 3);
        let b = ramp(37, 5, 11);
        assert!(a.rows() >= BLOCKED_MIN_ROWS && b.rows() >= TILE_COLS);
        assert_bit_identical(&a.matmul_t(&b), &a.matmul_t_naive(&b));
    }

    #[test]
    fn row_broadcast_matmul_bit_identical_to_naive() {
        let a = ramp(21, 7, 5);
        let b = ramp(7, 20, 13);
        assert!(a.rows() >= BLOCKED_MIN_ROWS && b.cols() >= TILE_COLS);
        assert_bit_identical(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn small_and_narrow_products_stay_on_the_naive_path_and_agree() {
        let a = ramp(3, 8, 17);
        let bt = ramp(5, 8, 19);
        assert_bit_identical(&a.matmul_t(&bt), &a.matmul_t_naive(&bt));
        let b = ramp(8, 4, 23);
        assert_bit_identical(&a.matmul(&b), &a.matmul_naive(&b));
        let tall = ramp(40, 8, 29);
        assert_bit_identical(&tall.matmul_t(&bt), &tall.matmul_t_naive(&bt));
        assert_bit_identical(&tall.matmul(&b), &tall.matmul_naive(&b));
    }

    #[test]
    fn negative_zero_sums_keep_each_kernels_identity() {
        // Every product is -0.0: `self · rhsᵀ` folds from -0.0 and stays
        // there, `self · rhs` starts at +0.0 and stays there.
        let a = Matrix::from_vec(18, 3, vec![-0.0; 54]);
        let bt = Matrix::from_vec(20, 3, vec![1.0; 60]);
        let t = a.matmul_t(&bt);
        assert_bit_identical(&t, &a.matmul_t_naive(&bt));
        assert_bit_identical(&t, &Matrix::from_vec(18, 20, vec![-0.0; 360]));
        let b = Matrix::from_vec(3, 20, vec![1.0; 60]);
        let p = a.matmul(&b);
        assert_bit_identical(&p, &a.matmul_naive(&b));
        assert_bit_identical(&p, &Matrix::zeros(18, 20));
    }

    #[test]
    fn zero_inner_dimension() {
        let a = Matrix::zeros(20, 0);
        for n in [6, 20] {
            let b = Matrix::zeros(n, 0);
            let c = a.matmul_t(&b);
            assert_eq!((c.rows(), c.cols()), (20, n));
            assert_bit_identical(&c, &a.matmul_t_naive(&b));
            let d = a.matmul(&Matrix::zeros(0, n));
            assert_bit_identical(&d, &a.matmul_naive(&Matrix::zeros(0, n)));
        }
    }

    #[test]
    fn stack_concatenates_rows() {
        let a = ramp(2, 3, 5);
        let b = ramp(4, 3, 7);
        let s = Matrix::stack(&[&a, &b]);
        assert_eq!((s.rows(), s.cols()), (6, 3));
        assert_eq!(s.row(1), a.row(1));
        assert_eq!(s.row(5), b.row(3));
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn stack_rejects_ragged_columns() {
        let a = ramp(2, 3, 5);
        let b = ramp(2, 4, 5);
        let _ = Matrix::stack(&[&a, &b]);
    }

    #[test]
    fn copy_from_reuses_the_allocation() {
        let mut m = ramp(8, 4, 3);
        let cap = m.data.capacity();
        let small = [1.0f32, 2.0, 3.0, 4.0];
        m.copy_from(2, 2, &small);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.as_slice(), &small);
        assert_eq!(m.data.capacity(), cap, "no reallocation for smaller fills");
    }
}
