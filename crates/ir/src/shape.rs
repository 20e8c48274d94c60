//! Per-sample tensor shapes.
//!
//! Shapes in this IR never include the batch dimension: every operator is
//! described for a *single* training sample, and batch size enters only when
//! costs are computed (see `gp-cost`). This mirrors how the GraphPipe planner
//! reasons about micro-batch sizes independently of the model definition.

use std::fmt;

/// A per-sample tensor shape (batch dimension excluded).
///
/// # Examples
///
/// ```
/// use gp_ir::Shape;
///
/// let s = Shape::new(vec![256, 1024]); // [seq_len, hidden]
/// assert_eq!(s.numel(), 256 * 1024);
/// assert_eq!(s.last_dim(), 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension is zero; a per-sample
    /// tensor always has at least one non-empty dimension.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape dimensions must be positive, got {dims:?}"
        );
        Shape(dims)
    }

    /// A rank-1 shape `[n]`.
    pub fn vector(n: usize) -> Self {
        Shape::new(vec![n])
    }

    /// A rank-2 shape `[rows, cols]`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape::new(vec![rows, cols])
    }

    /// The dimensions of this shape.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements per sample.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// The innermost (feature) dimension.
    pub fn last_dim(&self) -> usize {
        *self.0.last().expect("shape is never empty")
    }

    /// All dimensions except the innermost one, multiplied together.
    ///
    /// For a `[seq, hidden]` activation this is the number of tokens a
    /// `Linear` layer is applied to.
    pub fn leading_numel(&self) -> usize {
        self.0[..self.0.len() - 1].iter().product()
    }

    /// Returns a copy of this shape with the innermost dimension replaced.
    pub fn with_last_dim(&self, d: usize) -> Self {
        let mut dims = self.0.clone();
        *dims.last_mut().expect("shape is never empty") = d;
        Shape::new(dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_dims() {
        let s = Shape::new(vec![3, 4, 5]);
        assert_eq!(s.numel(), 60);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.last_dim(), 5);
        assert_eq!(s.leading_numel(), 12);
    }

    #[test]
    fn vector_and_matrix_helpers() {
        assert_eq!(Shape::vector(7).dims(), &[7]);
        assert_eq!(Shape::matrix(2, 3).dims(), &[2, 3]);
        assert_eq!(Shape::vector(7).leading_numel(), 1);
    }

    #[test]
    fn with_last_dim_replaces_feature_dim() {
        let s = Shape::matrix(8, 16).with_last_dim(32);
        assert_eq!(s.dims(), &[8, 32]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_shape_panics() {
        let _ = Shape::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_panics() {
        let _ = Shape::new(vec![4, 0]);
    }
}
