//! The straightforward loops the fast kernels replaced, kept as test
//! references: every kernel must reproduce its reference bit for bit.
//!
//! Comparing against a reference on the same machine, rather than against
//! committed bits, keeps the GeLU and attention checks independent of the C
//! library's `tanhf`/`expf`, whose last bit varies between libm versions.

use super::{softmax_bwd, softmax_fwd, MhaCache, MhaParams, GELU_A, GELU_C};
use crate::tensor::Tensor;

/// `[m, k] x [k, n]`: row `i` of the output accumulates `a[i][p] * b[p]`
/// over ascending `p` from 0.0, skipping zero `a[i][p]`.
pub(crate) fn matmul(lhs: &Tensor, rhs: &Tensor) -> Tensor {
    let (m, k) = (lhs.shape()[0], lhs.shape()[1]);
    let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
    assert_eq!(k, k2, "matmul: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let a = lhs.data()[i * k + p];
            if a == 0.0 {
                continue;
            }
            let row = &rhs.data()[p * n..(p + 1) * n];
            let dst = &mut out[i * n..(i + 1) * n];
            for (d, &r) in dst.iter_mut().zip(row) {
                *d += a * r;
            }
        }
    }
    Tensor::new(vec![m, n], out)
}

pub(crate) fn linear_fwd(x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Tensor {
    let (in_f, out_f) = (w.shape()[0], w.shape()[1]);
    let rows = x.rows_for(in_f);
    let x2 = x.reshape(vec![rows, in_f]);
    let mut y = matmul(&x2, w);
    if let Some(b) = b {
        assert_eq!(b.numel(), out_f, "bias length mismatch");
        for r in 0..rows {
            for (c, &bv) in b.data().iter().enumerate() {
                y.data_mut()[r * out_f + c] += bv;
            }
        }
    }
    let mut shape = x.shape().to_vec();
    *shape.last_mut().expect("non-scalar") = out_f;
    y.reshape(shape)
}

pub(crate) fn linear_bwd(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
    let (in_f, out_f) = (w.shape()[0], w.shape()[1]);
    let rows = x.rows_for(in_f);
    let x2 = x.reshape(vec![rows, in_f]);
    let dy2 = dy.reshape(vec![rows, out_f]);
    let dx = matmul(&dy2, &w.t()).reshape(x.shape().to_vec());
    let dw = matmul(&x2.t(), &dy2);
    let mut db = Tensor::zeros(vec![out_f]);
    for r in 0..rows {
        for c in 0..out_f {
            db.data_mut()[c] += dy2.data()[r * out_f + c];
        }
    }
    (dx, dw, db)
}

pub(crate) fn gelu_fwd(x: &Tensor) -> Tensor {
    Tensor::new(
        x.shape().to_vec(),
        x.data()
            .iter()
            .map(|&v| {
                let u = GELU_C * (v + GELU_A * v * v * v);
                0.5 * v * (1.0 + u.tanh())
            })
            .collect(),
    )
}

pub(crate) fn gelu_bwd(x: &Tensor, dy: &Tensor) -> Tensor {
    Tensor::new(
        x.shape().to_vec(),
        x.data()
            .iter()
            .zip(dy.data())
            .map(|(&v, &g)| {
                let u = GELU_C * (v + GELU_A * v * v * v);
                let t = u.tanh();
                let du = GELU_C * (1.0 + 3.0 * GELU_A * v * v);
                g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du)
            })
            .collect(),
    )
}

pub(crate) fn mha_fwd(x: &Tensor, p: &MhaParams) -> (Tensor, MhaCache) {
    let (n, s, h) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let heads = p.heads;
    assert_eq!(h % heads, 0, "heads must divide hidden");
    let dh = h / heads;
    let alpha = 1.0 / (dh as f32).sqrt();
    let q = linear_fwd(x, &p.wq, Some(&p.bq));
    let k = linear_fwd(x, &p.wk, Some(&p.bk));
    let v = linear_fwd(x, &p.wv, Some(&p.bv));
    let mut probs = Tensor::zeros(vec![n * heads, s, s]);
    let mut ctx = Tensor::zeros(vec![n, s, h]);
    for i in 0..n {
        for j in 0..heads {
            let mut scores = Tensor::zeros(vec![s, s]);
            for a in 0..s {
                for b in 0..s {
                    let mut dot = 0.0f32;
                    for c in 0..dh {
                        let qa = q.data()[(i * s + a) * h + j * dh + c];
                        let kb = k.data()[(i * s + b) * h + j * dh + c];
                        dot += qa * kb;
                    }
                    scores.data_mut()[a * s + b] = alpha * dot;
                }
            }
            let pmat = softmax_fwd(&scores, s);
            let off = (i * heads + j) * s * s;
            probs.data_mut()[off..off + s * s].copy_from_slice(pmat.data());
            for a in 0..s {
                for c in 0..dh {
                    let mut acc = 0.0f32;
                    for b in 0..s {
                        acc += pmat.data()[a * s + b] * v.data()[(i * s + b) * h + j * dh + c];
                    }
                    ctx.data_mut()[(i * s + a) * h + j * dh + c] = acc;
                }
            }
        }
    }
    let y = linear_fwd(&ctx, &p.wo, Some(&p.bo));
    (
        y,
        MhaCache {
            x: x.clone(),
            q,
            k,
            v,
            probs,
            ctx,
        },
    )
}

pub(crate) fn mha_bwd(cache: &MhaCache, p: &MhaParams, dy: &Tensor) -> (Tensor, MhaParams) {
    let (n, s, h) = (cache.x.shape()[0], cache.x.shape()[1], cache.x.shape()[2]);
    let heads = p.heads;
    let dh = h / heads;
    let alpha = 1.0 / (dh as f32).sqrt();
    let (dctx, dwo, dbo) = linear_bwd(&cache.ctx, &p.wo, dy);
    let mut dq = Tensor::zeros(vec![n, s, h]);
    let mut dk = Tensor::zeros(vec![n, s, h]);
    let mut dv = Tensor::zeros(vec![n, s, h]);
    for i in 0..n {
        for j in 0..heads {
            let off = (i * heads + j) * s * s;
            let pmat = Tensor::new(vec![s, s], cache.probs.data()[off..off + s * s].to_vec());
            let mut dp = Tensor::zeros(vec![s, s]);
            for a in 0..s {
                for b in 0..s {
                    let mut acc = 0.0f32;
                    for c in 0..dh {
                        acc += dctx.data()[(i * s + a) * h + j * dh + c]
                            * cache.v.data()[(i * s + b) * h + j * dh + c];
                    }
                    dp.data_mut()[a * s + b] = acc;
                }
            }
            for b in 0..s {
                for c in 0..dh {
                    let mut acc = 0.0f32;
                    for a in 0..s {
                        acc += pmat.data()[a * s + b] * dctx.data()[(i * s + a) * h + j * dh + c];
                    }
                    dv.data_mut()[(i * s + b) * h + j * dh + c] = acc;
                }
            }
            let ds = softmax_bwd(&pmat, &dp, s);
            for a in 0..s {
                for c in 0..dh {
                    let mut acc_q = 0.0f32;
                    for b in 0..s {
                        acc_q +=
                            ds.data()[a * s + b] * cache.k.data()[(i * s + b) * h + j * dh + c];
                    }
                    dq.data_mut()[(i * s + a) * h + j * dh + c] = alpha * acc_q;
                }
            }
            for b in 0..s {
                for c in 0..dh {
                    let mut acc_k = 0.0f32;
                    for a in 0..s {
                        acc_k +=
                            ds.data()[a * s + b] * cache.q.data()[(i * s + a) * h + j * dh + c];
                    }
                    dk.data_mut()[(i * s + b) * h + j * dh + c] = alpha * acc_k;
                }
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Values spread over twelve binades, so that any change in the order
    /// of a sum shows in its last bits.
    fn spread(shape: Vec<usize>, rng: &mut StdRng) -> Tensor {
        let numel = shape.iter().product();
        let data = (0..numel)
            .map(|_| {
                let u: f32 = rng.random_range(-1.0..1.0);
                u * f32::powi(2.0, rng.random_range(-6i32..6))
            })
            .collect();
        Tensor::new(shape, data)
    }

    /// [`spread`] with about a third of the entries zeroed, as after a ReLU.
    fn sparse(shape: Vec<usize>, rng: &mut StdRng) -> Tensor {
        let mut t = spread(shape, rng);
        for v in t.data_mut() {
            if rng.random_range(0u32..3) == 0 {
                *v = 0.0;
            }
        }
        t
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[track_caller]
    fn assert_bits(what: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        assert!(bits(got) == bits(want), "{what}: bits differ");
    }

    #[test]
    fn matmul_matches_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        // Row counts around the 4-row block, column counts around the
        // 8-column block, k = 1, and the tiny models' linear shapes.
        let mut shapes = Vec::new();
        for m in [1, 3, 4, 5, 7, 8, 9, 13] {
            for k in [1, 2, 5, 16] {
                for n in [1, 7, 8, 9, 15, 16, 17, 33] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes.extend([(128, 32, 128), (128, 128, 32), (32, 128, 128), (64, 16, 32)]);
        for (m, k, n) in shapes {
            let a = sparse(vec![m, k], &mut rng);
            let b = spread(vec![k, n], &mut rng);
            assert_bits(&format!("{m}x{k}x{n}"), &a.matmul(&b), &matmul(&a, &b));
        }
    }

    #[test]
    fn linear_matches_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(6);
        for (lead, in_f, out_f) in [
            (vec![1], 1, 1),
            (vec![5], 7, 9),
            (vec![2, 5], 7, 9),
            (vec![8, 16], 32, 128),
            (vec![8, 16], 128, 32),
        ] {
            let mut x_shape = lead.clone();
            x_shape.push(in_f);
            let mut y_shape = lead;
            y_shape.push(out_f);
            let x = sparse(x_shape, &mut rng);
            let w = spread(vec![in_f, out_f], &mut rng);
            let b = spread(vec![out_f], &mut rng);
            let dy = spread(y_shape, &mut rng);
            for bias in [None, Some(&b)] {
                let what = format!("{:?} {in_f}->{out_f}", x.shape());
                assert_bits(
                    &what,
                    &ops::linear_fwd(&x, &w, bias),
                    &linear_fwd(&x, &w, bias),
                );
            }
            let (dx, dw, db) = ops::linear_bwd(&x, &w, &dy);
            let (rdx, rdw, rdb) = linear_bwd(&x, &w, &dy);
            assert_bits("dx", &dx, &rdx);
            assert_bits("dw", &dw, &rdw);
            assert_bits("db", &db, &rdb);
        }
    }

    #[test]
    fn gelu_matches_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = spread(vec![3, 67], &mut rng);
        let dy = spread(vec![3, 67], &mut rng);
        let (y, tanh) = ops::gelu_fwd(&x);
        assert_bits("fwd", &y, &gelu_fwd(&x));
        assert_bits("bwd", &ops::gelu_bwd(&x, &tanh, &dy), &gelu_bwd(&x, &dy));
    }

    fn assert_params(got: &MhaParams, want: &MhaParams) {
        assert_eq!(got.heads, want.heads);
        for (name, g, w) in [
            ("wq", &got.wq, &want.wq),
            ("wk", &got.wk, &want.wk),
            ("wv", &got.wv, &want.wv),
            ("wo", &got.wo, &want.wo),
            ("bq", &got.bq, &want.bq),
            ("bk", &got.bk, &want.bk),
            ("bv", &got.bv, &want.bv),
            ("bo", &got.bo, &want.bo),
        ] {
            assert_bits(name, g, w);
        }
    }

    #[test]
    fn attention_matches_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(8);
        // gpt2-tiny and mmt-tiny at a full mini-batch of 8, then a shape
        // whose sequence and head width miss both block sizes.
        for (n, s, h, heads) in [(8, 16, 32, 2), (8, 8, 16, 2), (3, 5, 12, 3)] {
            let mut mat = || spread(vec![h, h], &mut rng);
            let (wq, wk, wv, wo) = (mat(), mat(), mat(), mat());
            let mut vec = || spread(vec![h], &mut rng);
            let (bq, bk, bv, bo) = (vec(), vec(), vec(), vec());
            let p = MhaParams {
                wq,
                wk,
                wv,
                wo,
                bq,
                bk,
                bv,
                bo,
                heads,
            };
            let x = spread(vec![n, s, h], &mut rng);
            let dy = spread(vec![n, s, h], &mut rng);
            let (y, cache) = ops::mha_fwd(&x, &p);
            let (ry, rcache) = mha_fwd(&x, &p);
            assert_bits("y", &y, &ry);
            for (name, g, w) in [
                ("q", &cache.q, &rcache.q),
                ("k", &cache.k, &rcache.k),
                ("v", &cache.v, &rcache.v),
                ("probs", &cache.probs, &rcache.probs),
                ("ctx", &cache.ctx, &rcache.ctx),
            ] {
                assert_bits(name, g, w);
            }
            let (dx, grads) = ops::mha_bwd(&cache, &p, &dy);
            let (rdx, rgrads) = mha_bwd(&rcache, &p, &dy);
            assert_bits("dx", &dx, &rdx);
            assert_params(&grads, &rgrads);
        }
    }
}
