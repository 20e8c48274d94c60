//! Forward and backward implementations of every DNN operator the model zoo
//! uses: linear, ReLU/GeLU, layer norm, softmax, multi-head attention,
//! embedding bags, concatenation, DLRM feature interaction, and an L2
//! training loss. All backwards are hand-derived and verified against
//! finite differences in the test suite.

use crate::tensor::{matmul_into, transpose_into, Tensor};

#[cfg(test)]
mod reference;

/// `y = x @ w + b` applied to the innermost dimension; `x` is interpreted
/// as `[rows, in]` with `rows = numel / in`.
pub fn linear_fwd(x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Tensor {
    let (in_f, out_f) = (w.shape()[0], w.shape()[1]);
    let rows = x.rows_for(in_f);
    let mut y = vec![0.0f32; rows * out_f];
    matmul_into(x.data(), w.data(), in_f, out_f, &mut y);
    if let Some(b) = b {
        assert_eq!(b.numel(), out_f, "bias length mismatch");
        for r in 0..rows {
            for (v, &bv) in y[r * out_f..(r + 1) * out_f].iter_mut().zip(b.data()) {
                *v += bv;
            }
        }
    }
    let mut shape = x.shape().to_vec();
    *shape.last_mut().expect("non-scalar") = out_f;
    Tensor::new(shape, y)
}

/// Gradients of [`linear_fwd`]: returns `(dx, dw, db)`.
pub fn linear_bwd(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
    let (in_f, out_f) = (w.shape()[0], w.shape()[1]);
    let rows = x.rows_for(in_f);
    assert_eq!(
        dy.numel(),
        rows * out_f,
        "dy does not match [{rows}, {out_f}]"
    );
    let mut dx = vec![0.0f32; rows * in_f];
    matmul_into(dy.data(), w.t().data(), out_f, in_f, &mut dx);
    let mut x_t = vec![0.0f32; rows * in_f];
    transpose_into(x.data(), in_f, &mut x_t);
    let mut dw = vec![0.0f32; in_f * out_f];
    matmul_into(&x_t, dy.data(), rows, out_f, &mut dw);
    let mut db = vec![0.0f32; out_f];
    for r in 0..rows {
        for (d, &g) in db.iter_mut().zip(&dy.data()[r * out_f..(r + 1) * out_f]) {
            *d += g;
        }
    }
    (
        Tensor::new(x.shape().to_vec(), dx),
        Tensor::new(vec![in_f, out_f], dw),
        Tensor::new(vec![out_f], db),
    )
}

/// Rectified linear unit.
pub fn relu_fwd(x: &Tensor) -> Tensor {
    Tensor::new(
        x.shape().to_vec(),
        x.data().iter().map(|&v| v.max(0.0)).collect(),
    )
}

/// Gradient of [`relu_fwd`].
pub fn relu_bwd(x: &Tensor, dy: &Tensor) -> Tensor {
    Tensor::new(
        x.shape().to_vec(),
        x.data()
            .iter()
            .zip(dy.data())
            .map(|(&v, &g)| if v > 0.0 { g } else { 0.0 })
            .collect(),
    )
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// GeLU with the tanh approximation: `0.5 x (1 + tanh(u))` with
/// `u = sqrt(2/pi) (x + 0.044715 x^3)`. Returns the output and `tanh(u)`
/// per element, which [`gelu_bwd`] reuses instead of computing it again.
pub fn gelu_fwd(x: &Tensor) -> (Tensor, Tensor) {
    let tanh: Vec<f32> = x
        .data()
        .iter()
        .map(|&v| (GELU_C * (v + GELU_A * v * v * v)).tanh())
        .collect();
    let y = x
        .data()
        .iter()
        .zip(&tanh)
        .map(|(&v, &t)| 0.5 * v * (1.0 + t))
        .collect();
    (
        Tensor::new(x.shape().to_vec(), y),
        Tensor::new(x.shape().to_vec(), tanh),
    )
}

/// Gradient of [`gelu_fwd`], given its input `x` and the `tanh` it
/// returned.
pub fn gelu_bwd(x: &Tensor, tanh: &Tensor, dy: &Tensor) -> Tensor {
    Tensor::new(
        x.shape().to_vec(),
        x.data()
            .iter()
            .zip(tanh.data())
            .zip(dy.data())
            .map(|((&v, &t), &g)| {
                let du = GELU_C * (1.0 + 3.0 * GELU_A * v * v);
                g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du)
            })
            .collect(),
    )
}

/// Cached statistics from a layer-norm forward pass.
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    normalized: Tensor,
    rstd: Vec<f32>,
}

/// Layer normalization over the innermost dimension with learnable scale
/// and shift; returns the output and a cache for the backward pass.
pub fn layernorm_fwd(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> (Tensor, LayerNormCache) {
    const EPS: f32 = 1e-5;
    let dim = gamma.numel();
    let rows = x.rows_for(dim);
    let mut y = vec![0.0f32; x.numel()];
    let mut normalized = vec![0.0f32; x.numel()];
    let mut rstd = vec![0.0f32; rows];
    for r in 0..rows {
        let row = &x.data()[r * dim..(r + 1) * dim];
        let mean = row.iter().sum::<f32>() / dim as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / dim as f32;
        let rs = 1.0 / (var + EPS).sqrt();
        rstd[r] = rs;
        for c in 0..dim {
            let n = (row[c] - mean) * rs;
            normalized[r * dim + c] = n;
            y[r * dim + c] = n * gamma.data()[c] + beta.data()[c];
        }
    }
    (
        Tensor::new(x.shape().to_vec(), y),
        LayerNormCache {
            normalized: Tensor::new(x.shape().to_vec(), normalized),
            rstd,
        },
    )
}

/// Gradients of [`layernorm_fwd`]: returns `(dx, dgamma, dbeta)`.
pub fn layernorm_bwd(
    cache: &LayerNormCache,
    gamma: &Tensor,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let dim = gamma.numel();
    let rows = dy.rows_for(dim);
    let mut dx = vec![0.0f32; dy.numel()];
    let mut dgamma = Tensor::zeros(vec![dim]);
    let mut dbeta = Tensor::zeros(vec![dim]);
    for r in 0..rows {
        let n = &cache.normalized.data()[r * dim..(r + 1) * dim];
        let g = &dy.data()[r * dim..(r + 1) * dim];
        let mut sum_dyg = 0.0f32;
        let mut sum_dyg_n = 0.0f32;
        for c in 0..dim {
            let dyg = g[c] * gamma.data()[c];
            sum_dyg += dyg;
            sum_dyg_n += dyg * n[c];
            dgamma.data_mut()[c] += g[c] * n[c];
            dbeta.data_mut()[c] += g[c];
        }
        let inv_dim = 1.0 / dim as f32;
        for c in 0..dim {
            let dyg = g[c] * gamma.data()[c];
            dx[r * dim + c] =
                cache.rstd[r] * (dyg - sum_dyg * inv_dim - n[c] * sum_dyg_n * inv_dim);
        }
    }
    (Tensor::new(dy.shape().to_vec(), dx), dgamma, dbeta)
}

/// Row-wise softmax over the innermost dimension.
pub fn softmax_fwd(x: &Tensor, dim: usize) -> Tensor {
    x.rows_for(dim); // panics unless `dim` divides the element count
    let mut y = vec![0.0f32; x.numel()];
    softmax_rows(x.data(), dim, &mut y);
    Tensor::new(x.shape().to_vec(), y)
}

/// [`softmax_fwd`] over the `dim`-wide rows of `x`, written into `y`.
fn softmax_rows(x: &[f32], dim: usize, y: &mut [f32]) {
    for (row, out) in x.chunks_exact(dim).zip(y.chunks_exact_mut(dim)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in out.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

/// Gradient of [`softmax_fwd`] given its output `y`.
pub fn softmax_bwd(y: &Tensor, dy: &Tensor, dim: usize) -> Tensor {
    y.rows_for(dim); // panics unless `dim` divides the element count
    let mut dx = vec![0.0f32; y.numel()];
    softmax_grad_rows(y.data(), dy.data(), dim, &mut dx);
    Tensor::new(y.shape().to_vec(), dx)
}

/// [`softmax_bwd`] over the `dim`-wide rows of `y` and `dy`, written into
/// `dx`.
fn softmax_grad_rows(y: &[f32], dy: &[f32], dim: usize, dx: &mut [f32]) {
    let rows = y.chunks_exact(dim).zip(dy.chunks_exact(dim));
    for ((yr, gr), out) in rows.zip(dx.chunks_exact_mut(dim)) {
        let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
        for ((o, &yc), &gc) in out.iter_mut().zip(yr).zip(gr) {
            *o = yc * (gc - dot);
        }
    }
}

/// Learnable parameters of a multi-head attention block.
#[derive(Debug, Clone)]
pub struct MhaParams {
    /// Query/key/value/output projection matrices, each `[hidden, hidden]`.
    pub wq: Tensor,
    /// Key projection.
    pub wk: Tensor,
    /// Value projection.
    pub wv: Tensor,
    /// Output projection.
    pub wo: Tensor,
    /// Biases, each `[hidden]`.
    pub bq: Tensor,
    /// Key bias.
    pub bk: Tensor,
    /// Value bias.
    pub bv: Tensor,
    /// Output bias.
    pub bo: Tensor,
    /// Number of attention heads.
    pub heads: usize,
}

/// Intermediate state of an MHA forward pass needed by the backward pass.
#[derive(Debug, Clone)]
pub struct MhaCache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Attention probabilities `[batch * heads, seq, seq]` flattened.
    probs: Tensor,
    ctx: Tensor,
}

/// The layout of attention's `[n * seq, hidden]` tensors: `s` rows per
/// sample, `h` columns, `h / dh` heads of `dh` columns each.
#[derive(Clone, Copy)]
struct HeadLayout {
    s: usize,
    h: usize,
    dh: usize,
}

impl HeadLayout {
    /// Copies head `j` of sample `i` of `src` into a contiguous
    /// `dst: [s, dh]`.
    fn gather(self, src: &[f32], i: usize, j: usize, dst: &mut [f32]) {
        let sample = &src[i * self.s * self.h..(i + 1) * self.s * self.h];
        let cols = j * self.dh..(j + 1) * self.dh;
        for (d, row) in dst
            .chunks_exact_mut(self.dh)
            .zip(sample.chunks_exact(self.h))
        {
            d.copy_from_slice(&row[cols.clone()]);
        }
    }

    /// Writes `src: [s, dh]`, each element times `alpha` if given, into
    /// head `j` of sample `i` of `dst`.
    fn scatter(self, src: &[f32], alpha: Option<f32>, i: usize, j: usize, dst: &mut [f32]) {
        let sample = &mut dst[i * self.s * self.h..(i + 1) * self.s * self.h];
        let cols = j * self.dh..(j + 1) * self.dh;
        for (row, v) in sample
            .chunks_exact_mut(self.h)
            .zip(src.chunks_exact(self.dh))
        {
            let head = &mut row[cols.clone()];
            match alpha {
                Some(alpha) => {
                    for (d, &acc) in head.iter_mut().zip(v) {
                        *d = alpha * acc;
                    }
                }
                None => head.copy_from_slice(v),
            }
        }
    }
}

/// Multi-head self-attention over `x: [batch, seq, hidden]`.
///
/// Each (sample, head) pair's Q, K and V columns are copied into
/// contiguous `[seq, dh]` blocks and multiplied by [`Tensor::matmul`]'s
/// kernel, with the other operand transposed where the product needs it.
/// Every score and context element therefore adds its products in the
/// order a plain dot product would, and the `1/sqrt(dh)` scale multiplies
/// each finished score.
pub fn mha_fwd(x: &Tensor, p: &MhaParams) -> (Tensor, MhaCache) {
    let (n, s, h) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let heads = p.heads;
    assert_eq!(h % heads, 0, "heads must divide hidden");
    let dh = h / heads;
    let alpha = 1.0 / (dh as f32).sqrt();
    let layout = HeadLayout { s, h, dh };
    let q = linear_fwd(x, &p.wq, Some(&p.bq));
    let k = linear_fwd(x, &p.wk, Some(&p.bk));
    let v = linear_fwd(x, &p.wv, Some(&p.bv));
    let mut probs = vec![0.0f32; n * heads * s * s];
    let mut ctx = vec![0.0f32; n * s * h];
    let (mut qh, mut kvh, mut kt) = (vec![0.0; s * dh], vec![0.0; s * dh], vec![0.0; dh * s]);
    let (mut scores, mut ch) = (vec![0.0; s * s], vec![0.0; s * dh]);
    let mut pairs = probs.chunks_exact_mut(s * s);
    for i in 0..n {
        for j in 0..heads {
            let pmat = pairs.next().expect("one probability block per pair");
            // Scores S = alpha * Qj Kj^T for this (sample, head).
            layout.gather(q.data(), i, j, &mut qh);
            layout.gather(k.data(), i, j, &mut kvh);
            transpose_into(&kvh, dh, &mut kt);
            matmul_into(&qh, &kt, dh, s, &mut scores);
            for score in &mut scores {
                *score *= alpha;
            }
            softmax_rows(&scores, s, pmat);
            // Context C = P Vj.
            layout.gather(v.data(), i, j, &mut kvh);
            matmul_into(pmat, &kvh, s, dh, &mut ch);
            layout.scatter(&ch, None, i, j, &mut ctx);
        }
    }
    let ctx = Tensor::new(vec![n, s, h], ctx);
    let y = linear_fwd(&ctx, &p.wo, Some(&p.bo));
    (
        y,
        MhaCache {
            x: x.clone(),
            q,
            k,
            v,
            probs: Tensor::new(vec![n * heads, s, s], probs),
            ctx,
        },
    )
}

/// Gradients of [`mha_fwd`]: returns `(dx, dparams)` where `dparams` has
/// the same structure as [`MhaParams`] (with `heads` copied over).
///
/// dP, dV, dQ and dK go through the matmul kernel per (sample, head) pair,
/// as the scores and the context do in [`mha_fwd`]; `1/sqrt(dh)` multiplies
/// each finished dQ and dK element.
pub fn mha_bwd(cache: &MhaCache, p: &MhaParams, dy: &Tensor) -> (Tensor, MhaParams) {
    let (n, s, h) = (cache.x.shape()[0], cache.x.shape()[1], cache.x.shape()[2]);
    let heads = p.heads;
    let dh = h / heads;
    let alpha = 1.0 / (dh as f32).sqrt();
    let layout = HeadLayout { s, h, dh };
    // Output projection.
    let (dctx, dwo, dbo) = linear_bwd(&cache.ctx, &p.wo, dy);
    let mut dq = vec![0.0f32; n * s * h];
    let mut dk = vec![0.0f32; n * s * h];
    let mut dv = vec![0.0f32; n * s * h];
    let (mut dch, mut blk, mut out) = (vec![0.0; s * dh], vec![0.0; s * dh], vec![0.0; s * dh]);
    let mut vt = vec![0.0; dh * s];
    let (mut dp, mut ds, mut st) = (vec![0.0; s * s], vec![0.0; s * s], vec![0.0; s * s]);
    let mut pairs = cache.probs.data().chunks_exact(s * s);
    for i in 0..n {
        for j in 0..heads {
            let pmat = pairs.next().expect("one probability block per pair");
            // dP = dC Vj^T ; dVj = P^T dC.
            layout.gather(dctx.data(), i, j, &mut dch);
            layout.gather(cache.v.data(), i, j, &mut blk);
            transpose_into(&blk, dh, &mut vt);
            matmul_into(&dch, &vt, dh, s, &mut dp);
            transpose_into(pmat, s, &mut st);
            matmul_into(&st, &dch, s, dh, &mut out);
            layout.scatter(&out, None, i, j, &mut dv);
            // dS through the softmax, then dQ = alpha dS K, dK = alpha dS^T Q.
            softmax_grad_rows(pmat, &dp, s, &mut ds);
            layout.gather(cache.k.data(), i, j, &mut blk);
            matmul_into(&ds, &blk, s, dh, &mut out);
            layout.scatter(&out, Some(alpha), i, j, &mut dq);
            transpose_into(&ds, s, &mut st);
            layout.gather(cache.q.data(), i, j, &mut blk);
            matmul_into(&st, &blk, s, dh, &mut out);
            layout.scatter(&out, Some(alpha), i, j, &mut dk);
        }
    }
    // Back through the three input projections.
    let [dq, dk, dv] = [dq, dk, dv].map(|d| Tensor::new(vec![n, s, h], d));
    let (dx_q, dwq, dbq) = linear_bwd(&cache.x, &p.wq, &dq);
    let (dx_k, dwk, dbk) = linear_bwd(&cache.x, &p.wk, &dk);
    let (dx_v, dwv, dbv) = linear_bwd(&cache.x, &p.wv, &dv);
    let mut dx = dx_q;
    dx.axpy(1.0, &dx_k);
    dx.axpy(1.0, &dx_v);
    (
        dx,
        MhaParams {
            wq: dwq,
            wk: dwk,
            wv: dwv,
            wo: dwo,
            bq: dbq,
            bk: dbk,
            bv: dbv,
            bo: dbo,
            heads,
        },
    )
}

/// Embedding-bag lookup: concatenates `bag` table rows per sample.
/// `indices` is `[batch * bag]` row indices into `table: [entries, dim]`.
pub fn embedding_bag_fwd(table: &Tensor, indices: &[usize], batch: usize, bag: usize) -> Tensor {
    let dim = table.shape()[1];
    assert_eq!(indices.len(), batch * bag);
    let mut y = Tensor::zeros(vec![batch, bag * dim]);
    for i in 0..batch {
        for b in 0..bag {
            let row = indices[i * bag + b];
            let src = &table.data()[row * dim..(row + 1) * dim];
            let dst_off = i * bag * dim + b * dim;
            y.data_mut()[dst_off..dst_off + dim].copy_from_slice(src);
        }
    }
    y
}

/// Gradient of [`embedding_bag_fwd`] with respect to the table
/// (scatter-add).
pub fn embedding_bag_bwd(
    dy: &Tensor,
    indices: &[usize],
    entries: usize,
    dim: usize,
    batch: usize,
    bag: usize,
) -> Tensor {
    let mut dtable = Tensor::zeros(vec![entries, dim]);
    for i in 0..batch {
        for b in 0..bag {
            let row = indices[i * bag + b];
            let src_off = i * bag * dim + b * dim;
            for c in 0..dim {
                dtable.data_mut()[row * dim + c] += dy.data()[src_off + c];
            }
        }
    }
    dtable
}

/// Concatenation along the innermost dimension; all inputs share leading
/// dimensions.
pub fn concat_fwd(xs: &[&Tensor]) -> Tensor {
    assert!(!xs.is_empty());
    let cols: Vec<usize> = xs.iter().map(|x| *x.shape().last().unwrap()).collect();
    let rows = xs[0].rows_for(cols[0]);
    let total: usize = cols.iter().sum();
    let mut y = Tensor::zeros(vec![rows, total]);
    for r in 0..rows {
        let mut off = 0;
        for (x, &c) in xs.iter().zip(&cols) {
            let src = &x.data()[r * c..(r + 1) * c];
            y.data_mut()[r * total + off..r * total + off + c].copy_from_slice(src);
            off += c;
        }
    }
    y
}

/// Splits the gradient of [`concat_fwd`] back into per-input gradients.
pub fn concat_bwd(dy: &Tensor, cols: &[usize]) -> Vec<Tensor> {
    let total: usize = cols.iter().sum();
    let rows = dy.rows_for(total);
    let mut outs: Vec<Tensor> = cols.iter().map(|&c| Tensor::zeros(vec![rows, c])).collect();
    for r in 0..rows {
        let mut off = 0;
        for (out, &c) in outs.iter_mut().zip(cols) {
            let dst = r * c;
            out.data_mut()[dst..dst + c]
                .copy_from_slice(&dy.data()[r * total + off..r * total + off + c]);
            off += c;
        }
    }
    outs
}

/// DLRM pairwise feature interaction: `x` is `[batch, features * dim]`,
/// output `[batch, features*(features-1)/2]` of upper-triangle dot
/// products.
pub fn interaction_fwd(x: &Tensor, features: usize, dim: usize) -> Tensor {
    let batch = x.rows_for(features * dim);
    let pairs = features * (features - 1) / 2;
    let mut y = Tensor::zeros(vec![batch, pairs]);
    for n in 0..batch {
        let base = n * features * dim;
        let mut p = 0;
        for i in 0..features {
            for j in i + 1..features {
                let mut dot = 0.0f32;
                for c in 0..dim {
                    dot += x.data()[base + i * dim + c] * x.data()[base + j * dim + c];
                }
                y.data_mut()[n * pairs + p] = dot;
                p += 1;
            }
        }
    }
    y
}

/// Gradient of [`interaction_fwd`].
pub fn interaction_bwd(x: &Tensor, dy: &Tensor, features: usize, dim: usize) -> Tensor {
    let batch = x.rows_for(features * dim);
    let pairs = features * (features - 1) / 2;
    let mut dx = Tensor::zeros(x.shape().to_vec());
    for n in 0..batch {
        let base = n * features * dim;
        let mut p = 0;
        for i in 0..features {
            for j in i + 1..features {
                let g = dy.data()[n * pairs + p];
                for c in 0..dim {
                    dx.data_mut()[base + i * dim + c] += g * x.data()[base + j * dim + c];
                    dx.data_mut()[base + j * dim + c] += g * x.data()[base + i * dim + c];
                }
                p += 1;
            }
        }
    }
    dx
}

/// L2 training loss: `0.5 * sum(x^2) / denom`. With `denom` set to the
/// global mini-batch size, per-micro-batch gradients sum to the exact
/// full-batch gradient, which the runtime's gradient-equivalence tests rely
/// on.
pub fn l2_loss_fwd(x: &Tensor, denom: f32) -> f32 {
    0.5 * x.data().iter().map(|v| v * v).sum::<f32>() / denom
}

/// Gradient of [`l2_loss_fwd`].
pub fn l2_loss_bwd(x: &Tensor, denom: f32) -> Tensor {
    x.scale(1.0 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central-difference gradient check of a scalar function at `x`.
    fn grad_check(f: impl Fn(&Tensor) -> f32, x: &Tensor, analytic: &Tensor, tol: f32) {
        let eps = 1e-2f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            let ana = analytic.data()[i];
            let err = (num - ana).abs() / (1.0f32).max(num.abs().max(ana.abs()));
            assert!(
                err < tol,
                "element {i}: numeric {num} vs analytic {ana} (err {err})"
            );
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_forward_matches_manual() {
        let x = Tensor::new(vec![1, 2], vec![1.0, 2.0]);
        let w = Tensor::new(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tensor::new(vec![2], vec![0.5, -0.5]);
        let y = linear_fwd(&x, &w, Some(&b));
        assert_eq!(y.data(), &[1.5, 1.5]);
    }

    #[test]
    fn linear_gradients() {
        let mut r = rng();
        let x = Tensor::rand_uniform(vec![3, 4], 1.0, &mut r);
        let w = Tensor::rand_uniform(vec![4, 5], 1.0, &mut r);
        let b = Tensor::rand_uniform(vec![5], 1.0, &mut r);
        let probe = Tensor::rand_uniform(vec![3, 5], 1.0, &mut r);
        let loss =
            |y: &Tensor| -> f32 { y.data().iter().zip(probe.data()).map(|(a, b)| a * b).sum() };
        let y = linear_fwd(&x, &w, Some(&b));
        let _ = loss(&y);
        let (dx, dw, db) = linear_bwd(&x, &w, &probe);
        grad_check(|x| loss(&linear_fwd(x, &w, Some(&b))), &x, &dx, 2e-2);
        grad_check(|w| loss(&linear_fwd(&x, w, Some(&b))), &w, &dw, 2e-2);
        grad_check(|b| loss(&linear_fwd(&x, &w, Some(b))), &b, &db, 2e-2);
    }

    #[test]
    fn relu_and_gelu_gradients() {
        let mut r = rng();
        let x = Tensor::rand_uniform(vec![10], 2.0, &mut r);
        let probe = Tensor::rand_uniform(vec![10], 1.0, &mut r);
        let loss = |y: &Tensor| {
            y.data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let d_relu = relu_bwd(&x, &probe);
        grad_check(|x| loss(&relu_fwd(x)), &x, &d_relu, 3e-2);
        let (_, tanh) = gelu_fwd(&x);
        let d_gelu = gelu_bwd(&x, &tanh, &probe);
        grad_check(|x| loss(&gelu_fwd(x).0), &x, &d_gelu, 3e-2);
    }

    #[test]
    fn layernorm_gradients() {
        let mut r = rng();
        let x = Tensor::rand_uniform(vec![2, 6], 1.0, &mut r);
        let gamma = Tensor::rand_uniform(vec![6], 1.0, &mut r);
        let beta = Tensor::rand_uniform(vec![6], 1.0, &mut r);
        let probe = Tensor::rand_uniform(vec![2, 6], 1.0, &mut r);
        let loss = |y: &Tensor| {
            y.data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (_, cache) = layernorm_fwd(&x, &gamma, &beta);
        let (dx, dgamma, dbeta) = layernorm_bwd(&cache, &gamma, &probe);
        grad_check(|x| loss(&layernorm_fwd(x, &gamma, &beta).0), &x, &dx, 3e-2);
        grad_check(
            |g| loss(&layernorm_fwd(&x, g, &beta).0),
            &gamma,
            &dgamma,
            3e-2,
        );
        grad_check(
            |b| loss(&layernorm_fwd(&x, &gamma, b).0),
            &beta,
            &dbeta,
            3e-2,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut r = rng();
        let x = Tensor::rand_uniform(vec![3, 5], 2.0, &mut r);
        let y = softmax_fwd(&x, 5);
        for row in 0..3 {
            let s: f32 = y.data()[row * 5..(row + 1) * 5].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_gradients() {
        let mut r = rng();
        let x = Tensor::rand_uniform(vec![2, 4], 1.0, &mut r);
        let probe = Tensor::rand_uniform(vec![2, 4], 1.0, &mut r);
        let loss = |y: &Tensor| {
            y.data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let y = softmax_fwd(&x, 4);
        let dx = softmax_bwd(&y, &probe, 4);
        grad_check(|x| loss(&softmax_fwd(x, 4)), &x, &dx, 3e-2);
    }

    fn mha_params(h: usize, heads: usize, r: &mut StdRng) -> MhaParams {
        MhaParams {
            wq: Tensor::rand_uniform(vec![h, h], 0.5, r),
            wk: Tensor::rand_uniform(vec![h, h], 0.5, r),
            wv: Tensor::rand_uniform(vec![h, h], 0.5, r),
            wo: Tensor::rand_uniform(vec![h, h], 0.5, r),
            bq: Tensor::rand_uniform(vec![h], 0.5, r),
            bk: Tensor::rand_uniform(vec![h], 0.5, r),
            bv: Tensor::rand_uniform(vec![h], 0.5, r),
            bo: Tensor::rand_uniform(vec![h], 0.5, r),
            heads,
        }
    }

    #[test]
    fn mha_input_gradients() {
        let mut r = rng();
        let (n, s, h) = (2, 3, 4);
        let p = mha_params(h, 2, &mut r);
        let x = Tensor::rand_uniform(vec![n, s, h], 0.5, &mut r);
        let probe = Tensor::rand_uniform(vec![n, s, h], 1.0, &mut r);
        let loss = |y: &Tensor| {
            y.data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (_, cache) = mha_fwd(&x, &p);
        let (dx, _) = mha_bwd(&cache, &p, &probe);
        grad_check(|x| loss(&mha_fwd(x, &p).0), &x, &dx, 5e-2);
    }

    #[test]
    fn mha_weight_gradients() {
        let mut r = rng();
        let (n, s, h) = (1, 3, 4);
        let p = mha_params(h, 2, &mut r);
        let x = Tensor::rand_uniform(vec![n, s, h], 0.5, &mut r);
        let probe = Tensor::rand_uniform(vec![n, s, h], 1.0, &mut r);
        let loss = |y: &Tensor| {
            y.data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (_, cache) = mha_fwd(&x, &p);
        let (_, grads) = mha_bwd(&cache, &p, &probe);
        // Spot-check two of the weight matrices and one bias.
        grad_check(
            |wq| {
                let mut p2 = p.clone();
                p2.wq = wq.clone();
                loss(&mha_fwd(&x, &p2).0)
            },
            &p.wq,
            &grads.wq,
            5e-2,
        );
        grad_check(
            |wo| {
                let mut p2 = p.clone();
                p2.wo = wo.clone();
                loss(&mha_fwd(&x, &p2).0)
            },
            &p.wo,
            &grads.wo,
            5e-2,
        );
        grad_check(
            |bv| {
                let mut p2 = p.clone();
                p2.bv = bv.clone();
                loss(&mha_fwd(&x, &p2).0)
            },
            &p.bv,
            &grads.bv,
            5e-2,
        );
    }

    #[test]
    fn embedding_bag_roundtrip() {
        let table = Tensor::new(vec![4, 2], (0..8).map(|v| v as f32).collect());
        let indices = vec![0usize, 3, 1, 1];
        let y = embedding_bag_fwd(&table, &indices, 2, 2);
        assert_eq!(y.shape(), &[2, 4]);
        assert_eq!(y.data(), &[0., 1., 6., 7., 2., 3., 2., 3.]);
        // Backward scatters with accumulation for repeated rows.
        let dy = Tensor::ones(vec![2, 4]);
        let dt = embedding_bag_bwd(&dy, &indices, 4, 2, 2, 2);
        assert_eq!(dt.data(), &[1., 1., 2., 2., 0., 0., 1., 1.]);
    }

    #[test]
    fn concat_roundtrip() {
        let a = Tensor::new(vec![2, 1], vec![1., 2.]);
        let b = Tensor::new(vec![2, 2], vec![3., 4., 5., 6.]);
        let y = concat_fwd(&[&a, &b]);
        assert_eq!(y.data(), &[1., 3., 4., 2., 5., 6.]);
        let parts = concat_bwd(&y, &[1, 2]);
        assert_eq!(parts[0].data(), a.data());
        assert_eq!(parts[1].data(), b.data());
    }

    #[test]
    fn interaction_gradients() {
        let mut r = rng();
        let (f, d) = (3, 2);
        let x = Tensor::rand_uniform(vec![2, f * d], 1.0, &mut r);
        let probe = Tensor::rand_uniform(vec![2, f * (f - 1) / 2], 1.0, &mut r);
        let loss = |y: &Tensor| {
            y.data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let dx = interaction_bwd(&x, &probe, f, d);
        grad_check(|x| loss(&interaction_fwd(x, f, d)), &x, &dx, 3e-2);
    }

    #[test]
    fn l2_loss_gradients() {
        let mut r = rng();
        let x = Tensor::rand_uniform(vec![6], 1.0, &mut r);
        let dx = l2_loss_bwd(&x, 4.0);
        grad_check(|x| l2_loss_fwd(x, 4.0), &x, &dx, 3e-2);
    }

    #[test]
    fn micro_batch_loss_grads_sum_to_full_batch() {
        // The denom convention: gradients from two half-batches add up to
        // the full-batch gradient.
        let x = Tensor::new(vec![4, 2], (0..8).map(|v| v as f32).collect());
        let full = l2_loss_bwd(&x, 4.0);
        let top = x.slice_rows(2, 0, 2);
        let bot = x.slice_rows(2, 2, 4);
        let g_top = l2_loss_bwd(&top, 4.0);
        let g_bot = l2_loss_bwd(&bot, 4.0);
        let mut merged = Tensor::zeros(vec![4, 2]);
        merged.add_rows(2, 0, &g_top);
        merged.add_rows(2, 2, &g_bot);
        assert!(full.max_abs_diff(&merged) < 1e-7);
        let l_full = l2_loss_fwd(&x, 4.0);
        let l_sum = l2_loss_fwd(&top, 4.0) + l2_loss_fwd(&bot, 4.0);
        assert!((l_full - l_sum).abs() < 1e-4);
    }
}
