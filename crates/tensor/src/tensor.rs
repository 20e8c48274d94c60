//! A minimal dense f32 tensor.

use rand::distr::{Distribution, StandardUniform};
use rand::Rng;
use std::fmt;

/// A dense, row-major f32 tensor.
///
/// The first dimension is conventionally the batch dimension throughout the
/// runtime crates.
///
/// # Examples
///
/// ```
/// use gp_tensor::Tensor;
///
/// let a = Tensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// let b = Tensor::ones(vec![3, 2]);
/// let c = a.matmul(&b);
/// assert_eq!(c.shape(), &[2, 2]);
/// assert_eq!(c.data(), &[6., 6., 15., 15.]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} needs {numel} elements, got {}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// An all-zeros tensor.
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let numel = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; numel],
        }
    }

    /// An all-ones tensor.
    pub fn ones(shape: Vec<usize>) -> Tensor {
        let numel = shape.iter().product();
        Tensor {
            shape,
            data: vec![1.0; numel],
        }
    }

    /// A tensor with uniform values in `[-scale, scale)` (a simple
    /// fan-in-agnostic initializer adequate for the tiny training runs the
    /// runtime performs).
    pub fn rand_uniform<R: Rng>(shape: Vec<usize>, scale: f32, rng: &mut R) -> Tensor {
        let numel = shape.iter().product();
        let data = (0..numel)
            .map(|_| {
                let u: f32 = StandardUniform.sample(rng);
                (2.0 * u - 1.0) * scale
            })
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable element view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable element view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        Tensor::new(shape, self.data.clone())
    }

    /// Rows of a 2-D view `[rows, cols]` where `cols` is the innermost
    /// dimension.
    pub fn rows_for(&self, cols: usize) -> usize {
        assert!(
            cols > 0 && self.numel().is_multiple_of(cols),
            "numel {} not divisible by {cols}",
            self.numel()
        );
        self.numel() / cols
    }

    /// Elementwise sum with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise scaling.
    pub fn scale(&self, alpha: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| v * alpha).collect(),
        }
    }

    /// 2-D matrix product: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Each output element adds its products in ascending inner index,
    /// starting from `0.0`, whatever the kernel's blocking. Zero entries
    /// of `self` are multiplied like any other, so a zero against an
    /// infinite or NaN entry of `rhs` gives NaN.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dimensions.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_into(&self.data, &rhs.data, k, n, &mut out);
        Tensor::new(vec![m, n], out)
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        transpose_into(&self.data, n, &mut out);
        Tensor::new(vec![n, m], out)
    }

    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "compare: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Copies rows `[row_start, row_end)` of the 2-D view with `cols`
    /// columns.
    pub fn slice_rows(&self, cols: usize, row_start: usize, row_end: usize) -> Tensor {
        let rows = self.rows_for(cols);
        assert!(row_start <= row_end && row_end <= rows);
        let data = self.data[row_start * cols..row_end * cols].to_vec();
        Tensor::new(vec![row_end - row_start, cols], data)
    }

    /// Adds `other` into rows `[row_start, ...)` of the 2-D view.
    pub fn add_rows(&mut self, cols: usize, row_start: usize, other: &Tensor) {
        let o_rows = other.rows_for(cols);
        let start = row_start * cols;
        for (dst, src) in self.data[start..start + o_rows * cols]
            .iter_mut()
            .zip(other.data())
        {
            *dst += src;
        }
    }
}

/// Rows of the register block [`matmul_into`] accumulates at once.
const MR: usize = 4;
/// Columns of the register block.
const NR: usize = 8;

/// `out = a x b` for row-major `a: [m, k]`, `b: [k, n]` and
/// `out: [m, n]`, with `m = out.len() / n`; `out`'s prior contents are
/// overwritten.
///
/// Every output element starts from `0.0` and adds `a[i][p] * b[p][j]` in
/// ascending `p`, and Rust never fuses a multiply and an add, so the
/// result does not depend on how the loops are blocked: a 4-row x 8-column
/// block of outputs lives in registers while `p` runs, and the rows and
/// columns left over keep the plain row loop, which sums in the same order.
///
/// Zero entries of `a` are multiplied like any other. Skipping them, as
/// the plain loop this kernel is tested against does, changes no bit on
/// finite inputs: a skipped product is ±0.0, and adding ±0.0 to an
/// accumulator that started at +0.0 leaves it as it was (such a sum never
/// becomes −0.0). The two differ only where a zero in `a` meets an
/// infinite or NaN entry of `b`: that product is NaN here, and the skip
/// drops it.
///
/// # Panics
///
/// Panics if the slice lengths do not match `[m, k] x [k, n] -> [m, n]`.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    if n == 0 {
        assert!(
            out.is_empty() && b.is_empty(),
            "matmul: n = 0 needs empty b and out"
        );
        return;
    }
    let m = out.len() / n;
    assert!(
        out.len() == m * n && a.len() == m * k && b.len() == k * n,
        "matmul: slices of {}, {} and {} do not fit [{m}, {k}] x [{k}, {n}]",
        a.len(),
        b.len(),
        out.len()
    );
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let n_blocked = n - n % NR;
    let mut out_blocks = out.chunks_exact_mut(MR * n);
    let mut a_blocks = a.chunks_exact(MR * k);
    for (a4, out4) in (&mut a_blocks).zip(&mut out_blocks) {
        let (a0, rest) = a4.split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, a3) = rest.split_at(k);
        let (o0, rest) = out4.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        for j in (0..n_blocked).step_by(NR) {
            // One named accumulator per row: LLVM keeps all four in vector
            // registers, which it does not do for a 2-D array.
            let mut c0 = [0.0f32; NR];
            let mut c1 = [0.0f32; NR];
            let mut c2 = [0.0f32; NR];
            let mut c3 = [0.0f32; NR];
            for (p, b_row) in b.chunks_exact(n).enumerate() {
                let bv: &[f32; NR] = b_row[j..j + NR].try_into().expect("NR columns");
                axpy_block(&mut c0, a0[p], bv);
                axpy_block(&mut c1, a1[p], bv);
                axpy_block(&mut c2, a2[p], bv);
                axpy_block(&mut c3, a3[p], bv);
            }
            o0[j..j + NR].copy_from_slice(&c0);
            o1[j..j + NR].copy_from_slice(&c1);
            o2[j..j + NR].copy_from_slice(&c2);
            o3[j..j + NR].copy_from_slice(&c3);
        }
        if n_blocked < n {
            for (o, a_row) in [o0, o1, o2, o3].into_iter().zip([a0, a1, a2, a3]) {
                row_times(a_row, b, n, n_blocked, &mut o[n_blocked..]);
            }
        }
    }
    let rest = a_blocks.remainder().chunks_exact(k);
    for (a_row, out_row) in rest.zip(out_blocks.into_remainder().chunks_exact_mut(n)) {
        row_times(a_row, b, n, 0, out_row);
    }
}

/// `acc += a * b` over one block row.
#[inline(always)]
fn axpy_block(acc: &mut [f32; NR], a: f32, b: &[f32; NR]) {
    for (d, &bv) in acc.iter_mut().zip(b) {
        *d += a * bv;
    }
}

/// The plain loop: `dst = a_row x b[.., from..]`, adding whole rows of `b`
/// in ascending `p` from `0.0`.
fn row_times(a_row: &[f32], b: &[f32], n: usize, from: usize, dst: &mut [f32]) {
    dst.fill(0.0);
    for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        for (d, &bv) in dst.iter_mut().zip(&b_row[from..]) {
            *d += av * bv;
        }
    }
}

/// Writes the transpose of row-major `src: [rows, cols]` into
/// `dst: [cols, rows]`, in 8 x 8 tiles so that a tile's writes share a few
/// cache lines instead of touching one line per element.
pub(crate) fn transpose_into(src: &[f32], cols: usize, dst: &mut [f32]) {
    const TILE: usize = 8;
    assert_eq!(src.len(), dst.len(), "transpose: length mismatch");
    if cols == 0 {
        return;
    }
    let rows = src.len() / cols;
    assert_eq!(
        rows * cols,
        src.len(),
        "transpose: {cols} does not divide the length"
    );
    for i0 in (0..rows).step_by(TILE) {
        for j0 in (0..cols).step_by(TILE) {
            for i in i0..(i0 + TILE).min(rows) {
                for j in j0..(j0 + TILE).min(cols) {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_views() {
        let t = Tensor::new(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.rows_for(2), 2);
        assert_eq!(Tensor::zeros(vec![3]).data(), &[0., 0., 0.]);
        assert_eq!(Tensor::ones(vec![2]).data(), &[1., 1.]);
    }

    #[test]
    #[should_panic(expected = "needs 4 elements")]
    fn bad_construction_panics() {
        let _ = Tensor::new(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::new(vec![2, 2], vec![1., 2., 3., 4.]);
        let eye = Tensor::new(vec![2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new(vec![3, 1], vec![1., 1., 1.]);
        assert_eq!(a.matmul(&b).data(), &[6., 15.]);
    }

    #[test]
    fn zero_times_infinity_is_nan_in_every_path() {
        // Zeros in the left operand are multiplied, not skipped: the 4 x 8
        // block and the leftover row and column all see 0 * inf = NaN.
        let a = Tensor::new(vec![5, 2], [0.0, 1.0].repeat(5));
        let b = Tensor::new(vec![2, 9], [[f32::INFINITY; 9], [2.0; 9]].concat());
        assert!(a.matmul(&b).data().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Tensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().shape(), &[3, 2]);
        assert_eq!(a.t().data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(vec![3]);
        let b = Tensor::new(vec![3], vec![1., 2., 3.]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3., 5., 7.]);
        assert_eq!(a.scale(0.5).data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn row_slicing() {
        let a = Tensor::new(vec![4, 2], (0..8).map(|v| v as f32).collect());
        let mid = a.slice_rows(2, 1, 3);
        assert_eq!(mid.data(), &[2., 3., 4., 5.]);
        let mut acc = Tensor::zeros(vec![4, 2]);
        acc.add_rows(2, 1, &mid);
        assert_eq!(acc.data(), &[0., 0., 2., 3., 4., 5., 0., 0.]);
    }

    #[test]
    fn rand_uniform_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(vec![100], 0.3, &mut rng);
        assert!(t.data().iter().all(|v| v.abs() <= 0.3));
        let mut rng2 = StdRng::seed_from_u64(7);
        let t2 = Tensor::rand_uniform(vec![100], 0.3, &mut rng2);
        assert_eq!(t, t2);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Tensor::new(vec![2], vec![1.0, 2.0]);
        let b = Tensor::new(vec![2], vec![1.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
