//! The encoding ring `R = F_q[x]/(x^{q-1} − 1)`.
//!
//! Ring elements ([`RingPoly`]) are dense coefficient vectors of fixed length
//! `n = q − 1`; index `i` holds the coefficient of `x^i`. Multiplication is
//! cyclic convolution (`x^n ≡ 1`). All operations go through a shared
//! [`RingCtx`] that owns the field context and size bookkeeping.

use ssx_field::{Barrett, FieldCtx, FieldError};
use std::fmt;
use std::sync::Arc;

/// Upper bound on the ring length `n = q − 1`. Each stored node costs `n`
/// coefficients, so larger fields would be unusably expensive — the paper
/// uses `q = 83` (`n = 82`).
pub const MAX_RING_LEN: u64 = 1 << 16;

/// Rings up to this length precompute dense DFT matrices for the boundary
/// transforms and for point evaluation (`2·2·n·stride` bytes — 256 KiB at
/// the cap, ~31 KiB for the paper's `n = 82`). Prime fields only:
/// extension-field element codes are not integers mod `q`, so the
/// multiply-accumulate rows don't apply.
pub(crate) const DFT_TABLE_MAX_LEN: usize = 256;

/// Precomputed transform matrices over `i16` element codes. A table is only
/// built when `n ≤ 256`, so `q = n + 1 ≤ 257` and every entry and every
/// operand code fits in an `i16`: a product fits in 17 bits and a whole
/// row's sum, at most `256 · 256²`, in an `i32`. Each output element is one
/// `i16 × i16 → i32` dot product — a shape LLVM vectorises with SSE2's
/// `pmaddwd`, no `unsafe` and no target flag — and one Barrett reduction.
#[derive(Debug)]
pub(crate) struct DftTables {
    /// Row length: `n` rounded up to a whole number of blocks, so that a
    /// row's dot product has no scalar tail. The padding is zero.
    stride: usize,
    /// `fwd[k·stride + i] = g^{ik}`: row `k` evaluates at the point `g^k`.
    fwd: Vec<i16>,
    /// `inv[i·stride + k] = n^{-1}·g^{-ik}`: row `i` yields coefficient `i`
    /// (the `n^{-1}` scaling is folded into the table).
    inv: Vec<i16>,
}

/// `i16` lanes per block of a table row.
const BLOCK: usize = 16;

impl DftTables {
    fn new(field: &FieldCtx, n: usize, n_inv: u64) -> Self {
        let stride = n.next_multiple_of(BLOCK);
        let mut fwd = vec![0i16; n * stride];
        let mut inv = vec![0i16; n * stride];
        for i in 0..n {
            for k in 0..n {
                let e = (i * k) % n;
                fwd[k * stride + i] = field.generator_pow(e as u64) as i16;
                let conj = field.generator_pow(((n - e) % n) as u64);
                inv[i * stride + k] = field.mul(n_inv, conj) as i16;
            }
        }
        DftTables { stride, fwd, inv }
    }

    /// The evaluations of `coeffs` at `g^0 … g^{n−1}`, into `out`.
    pub(crate) fn forward(&self, coeffs: &[u64], out: &mut [u64], br: Barrett) {
        self.mat_vec(&self.fwd, coeffs, out, br);
    }

    /// The first `out.len()` coefficients of the element whose evaluations
    /// are `evals`.
    pub(crate) fn inverse(&self, evals: &[u64], out: &mut [u64], br: Barrett) {
        self.mat_vec(&self.inv, evals, out, br);
    }

    /// The evaluation of `coeffs` at `g^k`: row `k` of the forward matrix.
    fn eval_at_power(&self, coeffs: &[u64], k: usize, br: Barrett) -> u64 {
        let mut out = 0;
        let row = &self.fwd[k * self.stride..(k + 1) * self.stride];
        self.mat_vec(row, coeffs, std::slice::from_mut(&mut out), br);
        out
    }

    /// `out[r] = Σ_j m[r·stride + j] · v[j] mod p` over the first
    /// `out.len()` rows of `m`.
    fn mat_vec(&self, m: &[i16], v: &[u64], out: &mut [u64], br: Barrett) {
        let mut codes = [0i16; DFT_TABLE_MAX_LEN];
        for (c, &x) in codes.iter_mut().zip(v) {
            *c = x as i16;
        }
        let v = &codes[..self.stride];
        for (row, slot) in m.chunks_exact(self.stride).zip(out) {
            let dot: i32 = row
                .chunks_exact(BLOCK)
                .zip(v.chunks_exact(BLOCK))
                .map(|(w, x)| {
                    w.iter()
                        .zip(x)
                        .map(|(&w, &x)| i32::from(w) * i32::from(x))
                        .sum::<i32>()
                })
                .sum();
            *slot = br.reduce(dot as u64);
        }
    }
}

/// Errors from ring construction or element validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// Underlying field construction failed.
    Field(FieldError),
    /// `q − 1` exceeded [`MAX_RING_LEN`].
    RingTooLarge(u64),
    /// Coefficient vector had the wrong length for this ring.
    WrongLength {
        /// Ring length `q - 1`.
        expected: usize,
        /// Supplied vector length.
        got: usize,
    },
    /// A coefficient code was not a valid field element.
    InvalidCoefficient(u64),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::Field(e) => write!(f, "field error: {e}"),
            RingError::RingTooLarge(n) => write!(f, "ring length {n} exceeds {MAX_RING_LEN}"),
            RingError::WrongLength { expected, got } => {
                write!(f, "coefficient vector length {got}, ring needs {expected}")
            }
            RingError::InvalidCoefficient(c) => write!(f, "invalid coefficient code {c}"),
        }
    }
}

impl std::error::Error for RingError {}

impl From<FieldError> for RingError {
    fn from(e: FieldError) -> Self {
        RingError::Field(e)
    }
}

/// Context for `F_q[x]/(x^{q-1} − 1)`: the field plus derived constants.
///
/// Cheap to clone (the field context is shared behind an [`Arc`]). Besides
/// the coefficient representation, the context owns the evaluation-point
/// basis `g^0, g^1, …, g^{n−1}` (generator `g` of `F_q^*`) of the dual
/// evaluation-domain representation — see [`crate::evaldom`].
#[derive(Clone, Debug)]
pub struct RingCtx {
    field: Arc<FieldCtx>,
    n: usize,
    /// `points[k] = g^k` — the DFT twiddle/evaluation points.
    pub(crate) points: Arc<[u64]>,
    /// `(q − 1)^{-1}` as a field element (always `p − 1`, since
    /// `q − 1 ≡ −1 (mod p)`); scales the inverse transform.
    pub(crate) n_inv: u64,
    /// Blocked matrix-vector transform tables (prime fields with
    /// `n ≤ DFT_TABLE_MAX_LEN`; `None` otherwise — the exponent-stepping
    /// fallback path then applies).
    pub(crate) dft: Option<Arc<DftTables>>,
}

impl RingCtx {
    /// Builds the ring for `F_{p^e}`.
    pub fn new(p: u64, e: u32) -> Result<Self, RingError> {
        let field = FieldCtx::new(p, e)?;
        Self::from_field(field)
    }

    /// Builds the ring over an existing field context.
    pub fn from_field(field: FieldCtx) -> Result<Self, RingError> {
        let n = field.order() - 1;
        if n == 0 || n > MAX_RING_LEN {
            return Err(RingError::RingTooLarge(n));
        }
        let points: Arc<[u64]> = (0..n).map(|k| field.generator_pow(k)).collect();
        let n_inv = field
            .inv(n % field.p())
            .expect("q - 1 ≡ -1 (mod p) is invertible");
        let n = n as usize;
        let dft = (field.e() == 1 && n <= DFT_TABLE_MAX_LEN)
            .then(|| Arc::new(DftTables::new(&field, n, n_inv)));
        Ok(RingCtx {
            field: Arc::new(field),
            n,
            points,
            n_inv,
            dft,
        })
    }

    /// The underlying field.
    #[inline]
    pub fn field(&self) -> &FieldCtx {
        &self.field
    }

    /// Ring length `n = q − 1` (number of coefficients per element).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Rings always have at least one coefficient slot (`q >= 2`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The zero element.
    pub fn zero(&self) -> RingPoly {
        RingPoly {
            coeffs: vec![0; self.n].into_boxed_slice(),
        }
    }

    /// The multiplicative identity (constant polynomial 1).
    pub fn one(&self) -> RingPoly {
        let mut c = vec![0; self.n];
        c[0] = 1;
        RingPoly {
            coeffs: c.into_boxed_slice(),
        }
    }

    /// The constant polynomial `c`.
    pub fn constant(&self, c: u64) -> RingPoly {
        debug_assert!(self.field.is_valid(c));
        let mut v = vec![0; self.n];
        v[0] = c;
        RingPoly {
            coeffs: v.into_boxed_slice(),
        }
    }

    /// The leaf-node monomial `x − t` (paper §3 step 2, leaf case).
    ///
    /// For the degenerate ring `n = 1` (`q = 2`) this is `1 − t` because
    /// `x ≡ 1`; all larger rings store it as a proper linear polynomial.
    pub fn linear(&self, t: u64) -> RingPoly {
        let mut out = self.zero();
        self.linear_into(t, &mut out);
        out
    }

    /// Allocation-free variant of [`RingCtx::linear`]: overwrites `out` with
    /// the coefficients of `x − t`.
    pub fn linear_into(&self, t: u64, out: &mut RingPoly) {
        debug_assert!(self.field.is_valid(t));
        debug_assert_eq!(out.coeffs.len(), self.n);
        let c = out.coeffs_mut();
        c.fill(0);
        c[0] = self.field.neg(t);
        if self.n == 1 {
            c[0] = self.field.add(c[0], 1);
        } else {
            c[1] = 1;
        }
    }

    /// Validates an externally supplied coefficient vector.
    pub fn poly_from_coeffs(&self, coeffs: Vec<u64>) -> Result<RingPoly, RingError> {
        if coeffs.len() != self.n {
            return Err(RingError::WrongLength {
                expected: self.n,
                got: coeffs.len(),
            });
        }
        if let Some(&bad) = coeffs.iter().find(|&&c| !self.field.is_valid(c)) {
            return Err(RingError::InvalidCoefficient(bad));
        }
        Ok(RingPoly {
            coeffs: coeffs.into_boxed_slice(),
        })
    }

    /// Addition.
    pub fn add(&self, a: &RingPoly, b: &RingPoly) -> RingPoly {
        self.check(a);
        self.check(b);
        let coeffs = a
            .coeffs
            .iter()
            .zip(b.coeffs.iter())
            .map(|(&x, &y)| self.field.add(x, y))
            .collect();
        RingPoly { coeffs }
    }

    /// In-place addition `a += b` — no allocation, batched kernel.
    pub fn add_assign(&self, a: &mut RingPoly, b: &RingPoly) {
        self.check(a);
        self.check(b);
        self.field.add_mod_batch(&mut a.coeffs, &b.coeffs);
    }

    /// Subtraction.
    pub fn sub(&self, a: &RingPoly, b: &RingPoly) -> RingPoly {
        self.check(a);
        self.check(b);
        let coeffs = a
            .coeffs
            .iter()
            .zip(b.coeffs.iter())
            .map(|(&x, &y)| self.field.sub(x, y))
            .collect();
        RingPoly { coeffs }
    }

    /// In-place subtraction `a -= b` — no allocation, batched kernel.
    pub fn sub_assign(&self, a: &mut RingPoly, b: &RingPoly) {
        self.check(a);
        self.check(b);
        self.field.sub_mod_batch(&mut a.coeffs, &b.coeffs);
    }

    /// Additive inverse.
    pub fn neg(&self, a: &RingPoly) -> RingPoly {
        self.check(a);
        let coeffs = a.coeffs.iter().map(|&x| self.field.neg(x)).collect();
        RingPoly { coeffs }
    }

    /// Ring product — cyclic convolution, `O(n^2)` field multiplications.
    pub fn mul(&self, a: &RingPoly, b: &RingPoly) -> RingPoly {
        self.check(a);
        self.check(b);
        let n = self.n;
        let mut out = vec![0u64; n];
        for (i, &ai) in a.coeffs.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.coeffs.iter().enumerate() {
                if bj == 0 {
                    continue;
                }
                let mut k = i + j;
                if k >= n {
                    k -= n;
                }
                out[k] = self.field.add(out[k], self.field.mul(ai, bj));
            }
        }
        RingPoly {
            coeffs: out.into_boxed_slice(),
        }
    }

    /// Multiplies by the linear factor `(x − t)` in `O(n)` — the hot path of
    /// the bottom-up encoder (one linear multiply per node).
    pub fn mul_linear(&self, a: &RingPoly, t: u64) -> RingPoly {
        let mut out = self.zero();
        self.mul_linear_into(a, t, &mut out);
        out
    }

    /// Allocation-free variant of [`RingCtx::mul_linear`]: writes
    /// `(x − t) · a` into `out` (which must be a distinct element of this
    /// ring).
    pub fn mul_linear_into(&self, a: &RingPoly, t: u64, out: &mut RingPoly) {
        self.check(a);
        self.check(out);
        debug_assert!(self.field.is_valid(t));
        let n = self.n;
        let neg_t = self.field.neg(t);
        #[allow(clippy::needless_range_loop)] // i indexes both `out` and the shifted source
        for i in 0..n {
            // x * a contributes a[i] to position i+1 (cyclically);
            // -t * a contributes -t*a[i] to position i.
            let shifted = if i == 0 {
                a.coeffs[n - 1]
            } else {
                a.coeffs[i - 1]
            };
            out.coeffs[i] = self.field.add(shifted, self.field.mul(neg_t, a.coeffs[i]));
        }
    }

    /// Evaluates at a point. On a table ring a nonzero point `g^k` is row
    /// `k` of the forward transform: `n` independent multiply-adds. The
    /// point 0 and the other rings run Horner's rule, `n − 1` dependent
    /// ones.
    pub fn eval(&self, a: &RingPoly, v: u64) -> u64 {
        self.check(a);
        if let (Some(dft), Some(k)) = (&self.dft, self.field.dlog(v)) {
            return dft.eval_at_power(&a.coeffs, k as usize, self.field.barrett());
        }
        self.horner(&a.coeffs, v)
    }

    /// Horner evaluation of a raw coefficient slice.
    #[inline]
    pub(crate) fn horner(&self, coeffs: &[u64], v: u64) -> u64 {
        debug_assert!(self.field.is_valid(v));
        if self.field.e() == 1 {
            // Barrett-fused step: acc·v + c < 2^48 + 2^24 reduces exactly.
            let br = self.field.barrett();
            let mut acc = 0u64;
            for &c in coeffs.iter().rev() {
                acc = br.reduce(acc * v + c);
            }
            return acc;
        }
        let mut acc = 0u64;
        for &c in coeffs.iter().rev() {
            acc = self.field.add(self.field.mul(acc, v), c);
        }
        acc
    }

    #[inline]
    fn check(&self, a: &RingPoly) {
        debug_assert_eq!(a.coeffs.len(), self.n, "ring element from a different ring");
    }
}

/// A ring element: `q − 1` field-element codes, index = exponent of `x`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RingPoly {
    coeffs: Box<[u64]>,
}

impl RingPoly {
    /// Coefficient view (little-endian by exponent).
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutable coefficient view for the crate's allocation-free fill paths
    /// (PRG draws, inverse transforms). Callers must keep codes valid.
    #[inline]
    pub(crate) fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// True iff all coefficients are zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Number of coefficients (`q − 1`).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True when the ring is the degenerate `n = 0` case (never constructed
    /// through [`RingCtx`], present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }
}

impl fmt::Debug for RingPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Compact display: only nonzero terms, low degree first.
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| match i {
                0 => format!("{c}"),
                1 => format!("{c}x"),
                _ => format!("{c}x^{i}"),
            })
            .collect();
        if terms.is_empty() {
            write!(f, "0")
        } else {
            write!(f, "{}", terms.join(" + "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring5() -> RingCtx {
        RingCtx::new(5, 1).unwrap() // F_5[x]/(x^4 - 1), the paper's figure-1 ring
    }

    #[test]
    fn construction_limits() {
        assert!(RingCtx::new(83, 1).is_ok());
        assert!(matches!(
            RingCtx::new(6, 1).unwrap_err(),
            RingError::Field(_)
        ));
        // q - 1 too large for the ring even though the field allows it.
        assert!(matches!(
            RingCtx::new(131101, 1).unwrap_err(),
            RingError::RingTooLarge(_)
        ));
    }

    #[test]
    fn paper_figure1_leaf_encodings() {
        // map: a=2, b=1, c=3. Leaves in fig 1(d): x-2 -> "x + 3", x-1 -> "x + 4",
        // x-3 -> "x + 2" over F_5.
        let r = ring5();
        assert_eq!(r.linear(2).coeffs(), &[3, 1, 0, 0]);
        assert_eq!(r.linear(1).coeffs(), &[4, 1, 0, 0]);
        assert_eq!(r.linear(3).coeffs(), &[2, 1, 0, 0]);
    }

    #[test]
    fn paper_figure1_internal_nodes() {
        // (x-1)(x-3) = x^2 - 4x + 3 = x^2 + x + 3 over F_5 (fig 1(d) middle left).
        let r = ring5();
        let f = r.mul(&r.linear(1), &r.linear(3));
        assert_eq!(f.coeffs(), &[3, 1, 1, 0]);

        // (x-3)(x-2)(x-1) = x^3 + 4x^2 + x + 4 (fig 1(d) middle right).
        let g = r.mul(&r.mul(&r.linear(3), &r.linear(2)), &r.linear(1));
        assert_eq!(g.coeffs(), &[4, 1, 4, 1]);

        // Root: (x-1)^2 (x-2)^2 (x-3)^2 reduced. Degree <= 3 ring elements are
        // determined by their values at the 4 nonzero points; the root must
        // vanish at 1, 2, 3 and equal A(4)^2 = 1 at 4, i.e. equal A itself =
        // x^3 + 4x^2 + x + 4. (The printed figure 1(d) shows 2A — off by a
        // scalar and inconsistent with evaluation preservation; we follow the
        // math, which interpolation at the nonzero points confirms.)
        let root = r.mul(&r.mul(&f, &g), &r.linear(2));
        assert_eq!(root.coeffs(), &[4, 1, 4, 1]);
        assert_eq!(
            root, g,
            "A^2 and A agree on all nonzero points, hence in the ring"
        );
    }

    #[test]
    fn paper_figure1_share_sum() {
        // Splitting the fig-1 root polynomial and summing the shares must
        // recover it, and each share alone differs from it.
        let r = ring5();
        let root = r.poly_from_coeffs(vec![4, 1, 4, 1]).unwrap();
        let client = r.poly_from_coeffs(vec![1, 0, 1, 2]).unwrap();
        let server = r.sub(&root, &client);
        assert_eq!(r.add(&client, &server), root);
        assert_ne!(client, root);
        assert_ne!(server, root);
    }

    #[test]
    fn reduction_preserves_nonzero_evaluations() {
        // The unreduced square (x-1)^2(x-2)^2(x-3)^2 has degree 6 > 4; after
        // reduction its evaluations at nonzero points must be unchanged —
        // zero exactly at 1, 2, 3.
        let r = ring5();
        let root = {
            let mut acc = r.one();
            for t in [1u64, 1, 2, 2, 3, 3] {
                acc = r.mul_linear(&acc, t);
            }
            acc
        };
        for v in 1..5u64 {
            let val = r.eval(&root, v);
            if v <= 3 {
                assert_eq!(val, 0, "v={v} is a mapped tag");
            } else {
                assert_ne!(val, 0, "v={v} is not in the tree");
            }
        }
    }

    #[test]
    fn mul_linear_matches_general_mul() {
        let r = RingCtx::new(83, 1).unwrap();
        let mut f = r.one();
        for t in [5u64, 17, 33, 2, 80] {
            f = r.mul_linear(&f, t);
        }
        let mut g = r.one();
        for t in [5u64, 17, 33, 2, 80] {
            g = r.mul(&g, &r.linear(t));
        }
        assert_eq!(f, g);
    }

    #[test]
    fn ring_identities() {
        let r = ring5();
        let a = r.poly_from_coeffs(vec![1, 2, 3, 4]).unwrap();
        let b = r.poly_from_coeffs(vec![4, 0, 1, 2]).unwrap();
        assert_eq!(r.add(&a, &r.zero()), a);
        assert_eq!(r.mul(&a, &r.one()), a);
        assert_eq!(r.sub(&a, &a), r.zero());
        assert_eq!(r.add(&a, &r.neg(&a)), r.zero());
        assert_eq!(r.mul(&a, &b), r.mul(&b, &a));
    }

    #[test]
    fn eval_is_ring_homomorphism_at_nonzero_points() {
        let r = RingCtx::new(29, 1).unwrap();
        let a = r
            .poly_from_coeffs((0..28).map(|i| (i * 7 + 3) % 29).collect())
            .unwrap();
        let b = r
            .poly_from_coeffs((0..28).map(|i| (i * 11 + 1) % 29).collect())
            .unwrap();
        let prod = r.mul(&a, &b);
        let sum = r.add(&a, &b);
        for v in r.field().nonzero_elements() {
            assert_eq!(
                r.eval(&prod, v),
                r.field().mul(r.eval(&a, v), r.eval(&b, v))
            );
            assert_eq!(r.eval(&sum, v), r.field().add(r.eval(&a, v), r.eval(&b, v)));
        }
    }

    #[test]
    fn poly_from_coeffs_validation() {
        let r = ring5();
        assert!(matches!(
            r.poly_from_coeffs(vec![0; 3]).unwrap_err(),
            RingError::WrongLength {
                expected: 4,
                got: 3
            }
        ));
        assert!(matches!(
            r.poly_from_coeffs(vec![0, 9, 0, 0]).unwrap_err(),
            RingError::InvalidCoefficient(9)
        ));
    }

    #[test]
    fn degenerate_ring_q2() {
        // F_2: n = 1, x ≡ 1, so (x - t) collapses to the constant 1 - t.
        let r = RingCtx::new(2, 1).unwrap();
        assert_eq!(r.len(), 1);
        let f = r.linear(1); // x - 1 ≡ 0
        assert!(f.is_zero());
    }

    #[test]
    fn debug_format_compact() {
        let r = ring5();
        let f = r.poly_from_coeffs(vec![3, 0, 1, 2]).unwrap();
        assert_eq!(format!("{f:?}"), "3 + 1x^2 + 2x^3");
        assert_eq!(format!("{:?}", r.zero()), "0");
    }
}
