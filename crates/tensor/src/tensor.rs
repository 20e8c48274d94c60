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
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &rhs.data[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &r) in dst.iter_mut().zip(row) {
                    *d += a * r;
                }
            }
        }
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
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
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
