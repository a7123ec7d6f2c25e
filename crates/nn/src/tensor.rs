//! Dense row-major `f32` matrices.

use crate::{NnError, Result};

/// Tile edge for the cache-blocked matmul kernels. A 64×64 `f32` tile is
/// 16 KiB, so one tile of each operand fits comfortably in a 32 KiB L1
/// data cache alongside the output rows being accumulated.
const MM_BLOCK: usize = 64;

/// Output columns processed together by [`Tensor::matmul_bt`]. Eight
/// independent accumulator chains are enough to cover scalar FP-add
/// latency on current x86/aarch64 cores; each chain still adds its terms
/// in ascending-`k` order, so lane count never changes results.
const BT_LANES: usize = 8;

/// The logistic sigmoid `1/(1+e^-x)` — the one definition shared by the
/// tape's `sigmoid` op and the forward-only `infer` kernels, so both
/// round identically.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// ReLU `max(x, 0)`, shared by the tape and the `infer` kernels.
#[inline]
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// A dense row-major matrix of `f32`. Vectors are 1×n or n×1 matrices.
/// The default is the empty 0×0 matrix (a scratch buffer before first use).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor from row-major data.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Result<Tensor> {
        if data.len() != rows * cols {
            return Err(NnError::Shape(format!(
                "data length {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Tensor { data, rows, cols })
    }

    /// Creates a zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Tensor {
        Tensor {
            data: vec![v; rows * cols],
            rows,
            cols,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r`, or `None` when out of range.
    #[inline]
    pub fn get_row(&self, r: usize) -> Option<&[f32]> {
        if r < self.rows {
            self.data.get(r * self.cols..(r + 1) * self.cols)
        } else {
            None
        }
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · other` (cache-blocked; see [`Tensor::matmul_into`]).
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Accumulates `self · other` into a pre-zeroed `out` tensor.
    ///
    /// The kernel is tiled over `MM_BLOCK`-sized row/depth blocks so one
    /// block of each operand stays L1-resident, but every `out[i][j]`
    /// still accumulates its `k` terms in ascending order with the same
    /// zero-coefficient skip as the naive triple loop — results are
    /// bit-for-bit identical to the unblocked kernel.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        if self.cols != other.rows {
            return Err(NnError::Shape(format!(
                "matmul: {}x{} · {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        if out.rows != self.rows || out.cols != other.cols {
            return Err(NnError::Shape(format!(
                "matmul_into: out {}x{} for {}x{} product",
                out.rows, out.cols, self.rows, other.cols
            )));
        }
        for ib in (0..self.rows).step_by(MM_BLOCK) {
            let iend = (ib + MM_BLOCK).min(self.rows);
            for kb in (0..self.cols).step_by(MM_BLOCK) {
                let kend = (kb + MM_BLOCK).min(self.cols);
                for i in ib..iend {
                    let arow = &self.data[i * self.cols..(i + 1) * self.cols];
                    let orow = out.row_mut(i);
                    for (k, &a) in arow.iter().enumerate().take(kend).skip(kb) {
                        if a == 0.0 {
                            continue;
                        }
                        for (o, b) in orow.iter_mut().zip(other.row(k)) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// `self` is k×m and `other` is k×n; the result is m×n. Bit-for-bit
    /// equal to `self.transpose().matmul(other)`: for each output cell the
    /// `k` terms accumulate in ascending order with the same zero skip,
    /// but all three operands are scanned row-major (no strided reads and
    /// no transpose copy).
    pub fn matmul_at(&self, other: &Tensor) -> Result<Tensor> {
        if self.rows != other.rows {
            return Err(NnError::Shape(format!(
                "matmul_at: {}x{}ᵀ · {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Tensor::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, b) in out.row_mut(i).iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// `self · otherᵀ` without materializing the transpose.
    ///
    /// `self` is m×k and `other` is n×k; the result is m×n. Each output
    /// cell is a dot product of two contiguous rows, accumulated in the
    /// same ascending-`k` order (with the same zero skip) as
    /// `self.matmul(&other.transpose())`, so results are bit-for-bit
    /// identical to the transpose-copy path. Output columns are processed
    /// [`BT_LANES`] at a time with one accumulator per column: the chains
    /// are independent, which hides FP-add latency without reordering any
    /// single cell's additions.
    pub fn matmul_bt(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols != other.cols {
            return Err(NnError::Shape(format!(
                "matmul_bt: {}x{} · {}x{}ᵀ",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let k = self.cols;
        let n = other.rows;
        let mut out = Tensor::zeros(self.rows, n);
        for i in 0..self.rows {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            while j + BT_LANES <= n {
                let mut bs = [&other.data[0..0]; BT_LANES];
                for (l, b) in bs.iter_mut().enumerate() {
                    *b = &other.data[(j + l) * k..(j + l + 1) * k];
                }
                let mut acc = [0.0f32; BT_LANES];
                for (ki, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (acc_l, b) in acc.iter_mut().zip(&bs) {
                        *acc_l += a * b[ki];
                    }
                }
                orow[j..j + BT_LANES].copy_from_slice(&acc);
                j += BT_LANES;
            }
            for (o, jj) in orow[j..].iter_mut().zip(j..n) {
                let brow = &other.data[jj * k..(jj + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in arow.iter().zip(brow) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * b;
                }
                *o = acc;
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NnError::Shape("add_assign: shape mismatch".into()));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales all elements in place.
    pub fn scale_assign(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fused scale-add: `self += s · other` in one pass (no scaled copy).
    pub fn add_scaled(&mut self, other: &Tensor, s: f32) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NnError::Shape("add_scaled: shape mismatch".into()));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
        Ok(())
    }

    /// Copies row `idx[r]` of `self` into row `r` of `out` for every `r`
    /// (embedding lookup). `out` must be `idx.len()`×`self.cols`; indices
    /// are range-checked.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Tensor) -> Result<()> {
        if out.rows != idx.len() || out.cols != self.cols {
            return Err(NnError::Shape(format!(
                "gather_rows_into: out {}x{} for {} indices of width {}",
                out.rows,
                out.cols,
                idx.len(),
                self.cols
            )));
        }
        for (r, &i) in idx.iter().enumerate() {
            if i >= self.rows {
                return Err(NnError::Index(format!(
                    "gather_rows: row {i} of {}",
                    self.rows
                )));
            }
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        Ok(())
    }

    /// Scatter-adds row `e` of `self` into row `idx[e]` of the pre-zeroed
    /// `out` (message aggregation). Indices are range-checked against
    /// `out.rows()`.
    pub fn scatter_sum_rows_into(&self, idx: &[usize], out: &mut Tensor) -> Result<()> {
        if idx.len() != self.rows || out.cols != self.cols {
            return Err(NnError::Shape(format!(
                "scatter_sum_rows_into: {} indices for {} rows (width {} vs {})",
                idx.len(),
                self.rows,
                out.cols,
                self.cols
            )));
        }
        for (e, &i) in idx.iter().enumerate() {
            if i >= out.rows {
                return Err(NnError::Index(format!(
                    "scatter_sum_rows: target {i} of {}",
                    out.rows
                )));
            }
            for (o, x) in out.row_mut(i).iter_mut().zip(self.row(e)) {
                *o += x;
            }
        }
        Ok(())
    }

    /// Reshapes to `rows`×`cols` and zero-fills, keeping the allocation:
    /// the scratch-buffer reset of the forward-only kernels.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` a copy of `src`, keeping the allocation.
    pub fn assign(&mut self, src: &Tensor) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// Makes `self` the single row `[parts[0], parts[1], …]`.
    pub fn assign_row_concat(&mut self, parts: &[&[f32]]) {
        self.data.clear();
        for p in parts {
            self.data.extend_from_slice(p);
        }
        self.rows = 1;
        self.cols = self.data.len();
    }

    /// Appends one row; its width must match (any width fits a 0×0
    /// tensor, which adopts it).
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if self.rows == 0 {
            self.cols = row.len();
        } else if row.len() != self.cols {
            return Err(NnError::Shape(format!(
                "push_row: row of width {} into {}x{}",
                row.len(),
                self.rows,
                self.cols
            )));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Adds the 1×c `bias` row to every row (`o += b` per element — the
    /// tape's `add_bias` kernel).
    pub fn add_row_broadcast(&mut self, bias: &Tensor) -> Result<()> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(NnError::Shape(format!(
                "add_bias: bias {}x{} for value {}x{}",
                bias.rows, bias.cols, self.rows, self.cols
            )));
        }
        for r in 0..self.rows {
            for (o, b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        Ok(())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise `self = self ∘ other`.
    pub fn mul_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NnError::Shape("mul: shape mismatch".into()));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
        Ok(())
    }

    /// Sums all rows into `out`, reshaped to 1×c: a zero row plus each
    /// row in ascending order (the tape's `sum_rows` kernel).
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        out.reset_zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Writes `[a.row(r), b.row(r)]` into row `r` of `out` (reshaped to
    /// `a.rows()`×(`a.cols()` + `b.cols()`)).
    pub fn concat_cols_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
        if a.rows != b.rows {
            return Err(NnError::Shape("concat_cols: row mismatch".into()));
        }
        out.data.clear();
        for r in 0..a.rows {
            out.data.extend_from_slice(a.row(r));
            out.data.extend_from_slice(b.row(r));
        }
        out.rows = a.rows;
        out.cols = a.cols + b.cols;
        Ok(())
    }

    /// Writes `[self.row(i), self.row(j)]` into row `e` of `out` for the
    /// `e`-th pair `(i, j)`; `out` is reshaped to `pairs.len()`×2c and the
    /// indices are range-checked.
    pub fn gather_pairs_into(&self, pairs: &[(usize, usize)], out: &mut Tensor) -> Result<()> {
        out.data.clear();
        for &(i, j) in pairs {
            if i >= self.rows || j >= self.rows {
                return Err(NnError::Index(format!(
                    "gather_pairs: rows ({i}, {j}) of {}",
                    self.rows
                )));
            }
            out.data.extend_from_slice(self.row(i));
            out.data.extend_from_slice(self.row(j));
        }
        out.rows = pairs.len();
        out.cols = 2 * self.cols;
        Ok(())
    }

    /// Copies row `r` of `self` over row `idx[r]` of `out` for every `r`
    /// (the inverse of [`Tensor::gather_rows_into`]). Indices are
    /// range-checked against `out.rows()`.
    pub fn copy_rows_to(&self, idx: &[usize], out: &mut Tensor) -> Result<()> {
        if idx.len() != self.rows || out.cols != self.cols {
            return Err(NnError::Shape(format!(
                "copy_rows_to: {} indices for {} rows (width {} vs {})",
                idx.len(),
                self.rows,
                out.cols,
                self.cols
            )));
        }
        for (r, &i) in idx.iter().enumerate() {
            if i >= out.rows {
                return Err(NnError::Index(format!(
                    "copy_rows_to: target {i} of {}",
                    out.rows
                )));
            }
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        Ok(())
    }

    /// Consumes the tensor, releasing its backing buffer (for reuse pools).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&Tensor::zeros(3, 2)).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::full(2, 2, 1.0);
        a.add_assign(&Tensor::full(2, 2, 2.0)).unwrap();
        a.scale_assign(0.5);
        assert_eq!(a.as_slice(), &[1.5, 1.5, 1.5, 1.5]);
        assert!(a.add_assign(&Tensor::zeros(1, 1)).is_err());
    }

    #[test]
    fn norm() {
        let a = Tensor::from_vec(vec![3.0, 4.0], 1, 2).unwrap();
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn shape_validation() {
        assert!(Tensor::from_vec(vec![1.0], 2, 2).is_err());
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u32) -> Tensor {
        // Deterministic fill with some exact zeros to exercise skip paths.
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let x = ((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) % 17;
                if x == 0 {
                    0.0
                } else {
                    x as f32 / 7.0 - 1.0
                }
            })
            .collect();
        Tensor::from_vec(data, rows, cols).unwrap()
    }

    #[test]
    fn blocked_matmul_matches_naive_beyond_one_block() {
        // 70 > MM_BLOCK so multiple tiles are exercised in every dimension.
        let a = pseudo_random(70, 70, 1);
        let b = pseudo_random(70, 70, 2);
        let blocked = a.matmul(&b).unwrap();
        let mut naive = Tensor::zeros(70, 70);
        for i in 0..70 {
            for k in 0..70 {
                let av = a.get(i, k);
                if av == 0.0 {
                    continue;
                }
                for j in 0..70 {
                    let v = naive.get(i, j) + av * b.get(k, j);
                    naive.set(i, j, v);
                }
            }
        }
        assert_eq!(blocked, naive);
    }

    #[test]
    fn matmul_at_bt_match_transpose_paths() {
        let a = pseudo_random(5, 7, 3);
        let b = pseudo_random(5, 4, 4);
        assert_eq!(a.matmul_at(&b).unwrap(), a.transpose().matmul(&b).unwrap());
        let c = pseudo_random(6, 7, 5);
        assert_eq!(a.matmul_bt(&c).unwrap(), a.matmul(&c.transpose()).unwrap());
        assert!(a.matmul_at(&c).is_err());
        assert!(a.matmul_bt(&b).is_err());
    }

    #[test]
    fn add_scaled_fuses() {
        let mut a = Tensor::full(2, 2, 1.0);
        a.add_scaled(&Tensor::full(2, 2, 4.0), 0.5).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 3.0, 3.0, 3.0]);
        assert!(a.add_scaled(&Tensor::zeros(1, 1), 1.0).is_err());
    }

    #[test]
    fn scratch_row_kernels() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2).unwrap();
        let mut pairs = Tensor::default();
        a.gather_pairs_into(&[(2, 0), (1, 1)], &mut pairs).unwrap();
        assert_eq!((pairs.rows(), pairs.cols()), (2, 4));
        assert_eq!(pairs.as_slice(), &[5.0, 6.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0]);
        assert!(a.gather_pairs_into(&[(0, 3)], &mut pairs).is_err());

        let mut out = Tensor::zeros(3, 2);
        let two = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0], 2, 2).unwrap();
        two.copy_rows_to(&[2, 0], &mut out).unwrap();
        assert_eq!(out.as_slice(), &[9.0, 10.0, 0.0, 0.0, 7.0, 8.0]);
        assert!(two.copy_rows_to(&[0, 3], &mut out).is_err());
        assert!(two.copy_rows_to(&[0], &mut out).is_err());

        let mut grown = Tensor::default();
        grown.push_row(&[1.0, 2.0]).unwrap();
        grown.push_row(&[3.0, 4.0]).unwrap();
        assert!(grown.push_row(&[5.0]).is_err());
        assert_eq!(
            (grown.rows(), grown.get_row(1)),
            (2, Some(&[3.0f32, 4.0][..]))
        );
        assert_eq!(grown.get_row(2), None);

        let mut sum = Tensor::default();
        a.sum_rows_into(&mut sum);
        assert_eq!(sum.as_slice(), &[9.0, 12.0]);
        let mut biased = a.clone();
        biased
            .add_row_broadcast(&Tensor::from_vec(vec![0.5, -1.0], 1, 2).unwrap())
            .unwrap();
        assert_eq!(biased.get(2, 1), 5.0);
        assert!(biased.add_row_broadcast(&Tensor::zeros(1, 3)).is_err());
    }

    #[test]
    fn gather_scatter_into_kernels() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2).unwrap();
        let mut g = Tensor::zeros(2, 2);
        a.gather_rows_into(&[2, 0], &mut g).unwrap();
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
        assert!(a.gather_rows_into(&[9, 0], &mut g).is_err());
        let mut s = Tensor::zeros(2, 2);
        a.scatter_sum_rows_into(&[1, 1, 0], &mut s).unwrap();
        assert_eq!(s.as_slice(), &[5.0, 6.0, 4.0, 6.0]);
        assert!(a.scatter_sum_rows_into(&[0, 0], &mut s).is_err());
        assert!(a.scatter_sum_rows_into(&[0, 0, 9], &mut s).is_err());
    }
}
