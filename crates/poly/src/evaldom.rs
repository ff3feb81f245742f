//! The dual, evaluation-domain representation of ring elements.
//!
//! The multiplicative group of `F_q` is cyclic of order `n = q − 1` with a
//! fixed generator `g` ([`ssx_field::FieldCtx::generator`]). Evaluating a
//! ring element at the points `g^0, g^1, …, g^{n−1}` is therefore a discrete
//! Fourier transform over `F_q` — and because `x^{q−1} − 1 = Π_{v ≠ 0}(x − v)`
//! splits into distinct linear factors, the CRT makes that evaluation map an
//! **exact ring isomorphism** `R = F_q[x]/(x^{q−1} − 1) ≅ F_q^n`.
//!
//! In the evaluation domain ([`EvalPoly`]):
//!
//! * `mul` is `O(n)` pointwise instead of `O(n²)` cyclic convolution,
//! * `mul_linear` by `(x − t)` is `O(n)`: component `k` scales by `g^k − t`,
//! * evaluation at any nonzero point is an **O(1) lookup** (index =
//!   discrete log of the point), and evaluation at 0 is an `O(n)` average.
//!
//! The forward/inverse transforms cost `O(n²)` table-driven field
//! operations, so the hot paths keep values in whichever domain they operate
//! in and convert **only at the wire/storage boundary**: the packed byte
//! format stays the coefficient-form radix packing, bit-identical to the
//! pre-dual-representation encoding (regression-tested).
//!
//! This is the paper's own correctness argument turned into a data layout:
//! §3 justifies the reduction mod `x^{q−1} − 1` precisely because ring
//! elements are determined by their evaluations at the nonzero points.

use crate::ring::{RingCtx, RingError, RingPoly};
use std::fmt;

/// A ring element in the evaluation domain: component `k` is the value at
/// `g^k`. Exactly `n = q − 1` components.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EvalPoly {
    evals: Box<[u64]>,
}

impl EvalPoly {
    /// The evaluations, indexed by the exponent of the generator.
    #[inline]
    pub fn evals(&self) -> &[u64] {
        &self.evals
    }

    /// Number of components (`q − 1`).
    pub fn len(&self) -> usize {
        self.evals.len()
    }

    /// True when the ring is the degenerate zero-length case (never
    /// constructed through [`RingCtx`]; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// True iff this is the zero element (all evaluations zero).
    pub fn is_zero(&self) -> bool {
        self.evals.iter().all(|&v| v == 0)
    }
}

impl fmt::Debug for EvalPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EvalPoly{:?}", &self.evals[..])
    }
}

impl RingCtx {
    /// The `k`-th evaluation point `g^k`.
    #[inline]
    pub fn point(&self, k: usize) -> u64 {
        self.points[k]
    }

    /// All evaluation points `g^0 … g^{n−1}`.
    #[inline]
    pub fn eval_points(&self) -> &[u64] {
        &self.points
    }

    /// Forward transform: coefficient → evaluation domain. `O(n²)`
    /// table-driven field operations; use only at domain boundaries.
    pub fn to_evals(&self, a: &RingPoly) -> EvalPoly {
        let mut out = self.evals_zero();
        self.to_evals_into(a, &mut out);
        out
    }

    /// Allocation-free forward transform into an existing buffer.
    ///
    /// Table path (prime fields, `n ≤ 256`): each output component is one
    /// row of the precomputed `g^{ik}` matrix dotted with the coefficient
    /// vector — `i16 × i16 → i32` multiply-accumulates with a single Barrett
    /// reduction per component.
    ///
    /// Otherwise (extension fields / oversized rings) the exponent-stepping
    /// transform.
    pub fn to_evals_into(&self, a: &RingPoly, out: &mut EvalPoly) {
        debug_assert_eq!(a.coeffs().len(), self.len());
        debug_assert_eq!(out.evals.len(), self.len());
        match &self.dft {
            Some(dft) => dft.forward(a.coeffs(), &mut out.evals, self.field().barrett()),
            None => self.forward_stepping(a.coeffs(), &mut out.evals),
        }
    }

    /// The forward transform by transposed accumulation: for each nonzero
    /// coefficient `a_i = g^{l_i}` the contribution to component `k` is
    /// `g^{l_i + ik}`, whose exponent steps by `i` per component, so the
    /// inner loop is one `exp`-table read, one field add and one wrap, with
    /// zero coefficients skipped outright.
    fn forward_stepping(&self, coeffs: &[u64], out: &mut [u64]) {
        let n = self.len();
        let field = self.field();
        out.fill(0);
        for (i, &c) in coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let mut e = field.dlog(c).expect("nonzero coefficient") as usize;
            for slot in out.iter_mut() {
                *slot = field.add(*slot, field.generator_pow(e as u64));
                e += i;
                if e >= n {
                    e -= n;
                }
            }
        }
    }

    /// Inverse transform: evaluation → coefficient domain,
    /// `a_i = n^{-1} · Σ_k â_k · g^{-ik}`. `O(n²)` table-driven field
    /// operations; use only at the wire/storage boundary.
    pub fn from_evals(&self, a: &EvalPoly) -> RingPoly {
        let mut out = self.zero();
        self.from_evals_into(a, &mut out);
        out
    }

    /// Allocation-free inverse transform into an existing buffer: the
    /// table path of [`RingCtx::to_evals_into`] over the inverse matrix, or
    /// the exponent-stepping transform.
    pub fn from_evals_into(&self, a: &EvalPoly, out: &mut RingPoly) {
        self.from_evals_bounded_into(a, self.len() - 1, out);
    }

    /// Inverse transform when the caller can bound the polynomial's degree:
    /// only coefficients `0..=max_degree` are computed (the rest are zeroed),
    /// cutting the cost from `O(n²)` to `O(n·(max_degree+1))`.
    ///
    /// The bottom-up encoder uses this with `max_degree = subtree size`: a
    /// node with `d ≤ n−1` linear factors has exact degree `d`, so small
    /// subtrees — the overwhelming majority — pay a near-linear boundary
    /// cost. Exact only when the underlying polynomial really has degree
    /// `≤ max_degree`; `max_degree ≥ n−1` is the full transform.
    pub fn from_evals_bounded_into(&self, a: &EvalPoly, max_degree: usize, out: &mut RingPoly) {
        debug_assert_eq!(a.evals.len(), self.len());
        let lim = max_degree.min(self.len() - 1) + 1;
        let coeffs = out.coeffs_mut();
        coeffs[lim..].fill(0);
        match &self.dft {
            // Matrix rows already carry the n^{-1} factor: coefficient i is
            // one row dotted with the evaluations, reduced once.
            Some(dft) => dft.inverse(&a.evals, &mut coeffs[..lim], self.field().barrett()),
            None => self.inverse_stepping(&a.evals, &mut coeffs[..lim]),
        }
    }

    /// The inverse transform's first `out.len()` coefficients by the same
    /// transposed accumulation as [`RingCtx::forward_stepping`], with the
    /// conjugate exponent step `−k`, then the `n^{-1}` scaling.
    fn inverse_stepping(&self, evals: &[u64], out: &mut [u64]) {
        let n = self.len();
        let field = self.field();
        out.fill(0);
        for (k, &c) in evals.iter().enumerate() {
            if c == 0 {
                continue;
            }
            // â_k = g^{l_k} contributes g^{l_k - ik} to coefficient i.
            let step = (n - k) % n;
            let mut e = field.dlog(c).expect("nonzero component") as usize;
            for slot in out.iter_mut() {
                *slot = field.add(*slot, field.generator_pow(e as u64));
                e += step;
                if e >= n {
                    e -= n;
                }
            }
        }
        for slot in out.iter_mut() {
            *slot = field.mul(self.n_inv, *slot);
        }
    }

    /// The zero element in the evaluation domain.
    pub fn evals_zero(&self) -> EvalPoly {
        EvalPoly {
            evals: vec![0; self.len()].into_boxed_slice(),
        }
    }

    /// The multiplicative identity (the constant 1 evaluates to 1
    /// everywhere).
    pub fn evals_one(&self) -> EvalPoly {
        self.evals_constant(1)
    }

    /// The constant polynomial `c` (evaluates to `c` everywhere).
    pub fn evals_constant(&self, c: u64) -> EvalPoly {
        debug_assert!(self.field().is_valid(c));
        EvalPoly {
            evals: vec![c; self.len()].into_boxed_slice(),
        }
    }

    /// The leaf monomial `x − t` in the evaluation domain: component `k` is
    /// `g^k − t`. `O(n)` — no coefficient-domain detour.
    pub fn evals_linear(&self, t: u64) -> EvalPoly {
        let mut out = self.evals_zero();
        self.evals_linear_into(t, &mut out);
        out
    }

    /// Allocation-free variant of [`RingCtx::evals_linear`]: overwrites
    /// `out` with the evaluations of `x − t`.
    pub fn evals_linear_into(&self, t: u64, out: &mut EvalPoly) {
        debug_assert!(self.field().is_valid(t));
        debug_assert_eq!(out.evals.len(), self.len());
        let field = self.field();
        for (slot, &p) in out.evals.iter_mut().zip(self.points.iter()) {
            *slot = field.sub(p, t);
        }
    }

    /// Validates an externally supplied evaluation vector.
    pub fn evals_from_values(&self, values: Vec<u64>) -> Result<EvalPoly, RingError> {
        if values.len() != self.len() {
            return Err(RingError::WrongLength {
                expected: self.len(),
                got: values.len(),
            });
        }
        if let Some(&bad) = values.iter().find(|&&v| !self.field().is_valid(v)) {
            return Err(RingError::InvalidCoefficient(bad));
        }
        Ok(EvalPoly {
            evals: values.into_boxed_slice(),
        })
    }

    /// Pointwise addition `a += b` — `O(n)`, no allocation, batched kernel.
    pub fn eval_add_assign(&self, a: &mut EvalPoly, b: &EvalPoly) {
        self.field().add_mod_batch(&mut a.evals, &b.evals);
    }

    /// Pointwise subtraction `a -= b` — `O(n)`, no allocation, batched
    /// kernel.
    pub fn eval_sub_assign(&self, a: &mut EvalPoly, b: &EvalPoly) {
        self.field().sub_mod_batch(&mut a.evals, &b.evals);
    }

    /// Pointwise ring product `a *= b` — `O(n)` instead of the `O(n²)`
    /// coefficient-domain convolution; batched Barrett kernel.
    pub fn eval_mul_assign(&self, a: &mut EvalPoly, b: &EvalPoly) {
        self.field().mul_mod_batch(&mut a.evals, &b.evals);
    }

    /// Pointwise ring product, allocating — convenience over
    /// [`RingCtx::eval_mul_assign`].
    pub fn eval_mul(&self, a: &EvalPoly, b: &EvalPoly) -> EvalPoly {
        let mut out = a.clone();
        self.eval_mul_assign(&mut out, b);
        out
    }

    /// Multiplies by the linear factor `(x − t)` in place: component `k`
    /// scales by `g^k − t`. `O(n)`, no allocation — the encoder's hot loop.
    /// Prime fields run a fused branch-free subtract + Barrett multiply over
    /// the sequential generator-power points.
    pub fn eval_mul_linear_assign(&self, a: &mut EvalPoly, t: u64) {
        debug_assert!(self.field().is_valid(t));
        let field = self.field();
        if field.e() == 1 {
            let p = field.order();
            let br = field.barrett();
            for (x, &pt) in a.evals.iter_mut().zip(self.points.iter()) {
                let d = pt + p - t;
                let f = if d >= p { d - p } else { d };
                *x = br.reduce(*x * f);
            }
            return;
        }
        for (x, &p) in a.evals.iter_mut().zip(self.points.iter()) {
            *x = field.mul(*x, field.sub(p, t));
        }
    }

    /// Evaluates at `v`. For nonzero `v` this is an **O(1)** lookup at index
    /// `dlog(v)`; for `v = 0` the constant coefficient is the `O(n)` average
    /// `n^{-1} Σ_k â_k`.
    pub fn eval_at(&self, a: &EvalPoly, v: u64) -> u64 {
        debug_assert!(self.field().is_valid(v));
        debug_assert_eq!(a.evals.len(), self.len());
        let field = self.field();
        match field.dlog(v) {
            Some(k) => a.evals[k as usize],
            None => {
                let mut sum = 0u64;
                for &e in a.evals.iter() {
                    sum = field.add(sum, e);
                }
                field.mul(self.n_inv, sum)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::random_poly;
    use ssx_prg::Prg;

    fn rings() -> Vec<RingCtx> {
        // Prime fields incl. the paper's F_5 and F_83, plus true extension
        // fields F_4 and F_27.
        [(5u64, 1u32), (29, 1), (83, 1), (2, 2), (3, 3)]
            .into_iter()
            .map(|(p, e)| RingCtx::new(p, e).unwrap())
            .collect()
    }

    #[test]
    fn round_trip_is_identity() {
        for ring in rings() {
            let mut prg = Prg::from_u64(7);
            for _ in 0..8 {
                let a = random_poly(&ring, &mut prg);
                assert_eq!(ring.from_evals(&ring.to_evals(&a)), a);
            }
            // And the other direction.
            let e = ring.evals_linear(1);
            assert_eq!(ring.to_evals(&ring.from_evals(&e)), e);
        }
    }

    #[test]
    fn transform_is_evaluation() {
        for ring in rings() {
            let a = random_poly(&ring, &mut Prg::from_u64(9));
            let evals = ring.to_evals(&a);
            for k in 0..ring.len() {
                assert_eq!(evals.evals()[k], ring.eval(&a, ring.point(k)));
            }
        }
    }

    #[test]
    fn mul_agrees_between_domains() {
        for ring in rings() {
            let mut prg = Prg::from_u64(11);
            let a = random_poly(&ring, &mut prg);
            let b = random_poly(&ring, &mut prg);
            let coeff_prod = ring.mul(&a, &b);
            let eval_prod = ring.eval_mul(&ring.to_evals(&a), &ring.to_evals(&b));
            assert_eq!(ring.from_evals(&eval_prod), coeff_prod);
            assert_eq!(eval_prod, ring.to_evals(&coeff_prod));
        }
    }

    #[test]
    fn mul_linear_agrees_between_domains() {
        for ring in rings() {
            let a = random_poly(&ring, &mut Prg::from_u64(13));
            for t in ring.field().elements() {
                let coeff = ring.mul_linear(&a, t);
                let mut evals = ring.to_evals(&a);
                ring.eval_mul_linear_assign(&mut evals, t);
                assert_eq!(ring.from_evals(&evals), coeff, "t={t}");
            }
        }
    }

    #[test]
    fn add_sub_agree_between_domains() {
        for ring in rings() {
            let mut prg = Prg::from_u64(17);
            let a = random_poly(&ring, &mut prg);
            let b = random_poly(&ring, &mut prg);
            let mut sum = ring.to_evals(&a);
            ring.eval_add_assign(&mut sum, &ring.to_evals(&b));
            assert_eq!(ring.from_evals(&sum), ring.add(&a, &b));
            let mut diff = ring.to_evals(&a);
            ring.eval_sub_assign(&mut diff, &ring.to_evals(&b));
            assert_eq!(ring.from_evals(&diff), ring.sub(&a, &b));
        }
    }

    #[test]
    fn eval_at_matches_horner_everywhere() {
        for ring in rings() {
            let a = random_poly(&ring, &mut Prg::from_u64(19));
            let evals = ring.to_evals(&a);
            // All points including 0 (the O(n) average path).
            for v in ring.field().elements() {
                assert_eq!(ring.eval_at(&evals, v), ring.eval(&a, v), "v={v}");
            }
        }
    }

    /// The table kernels against references that share no code with them:
    /// the exponent-stepping transforms and Horner's rule, at every point.
    #[test]
    fn table_kernels_match_independent_references() {
        for q in [5u64, 29, 83, 257] {
            let ring = RingCtx::new(q, 1).unwrap();
            assert!(ring.dft.is_some(), "q = {q} builds tables");
            let n = ring.len();
            // A random element, and the all-(q − 1) one: the largest row sums.
            let largest = ring.poly_from_coeffs(vec![q - 1; n]).unwrap();
            for a in [random_poly(&ring, &mut Prg::from_u64(q)), largest] {
                let mut forward = vec![0; n];
                ring.forward_stepping(a.coeffs(), &mut forward);
                let evals = ring.to_evals(&a);
                assert_eq!(evals.evals(), &forward[..], "forward, q = {q}");
                let mut inverse = vec![0; n];
                ring.inverse_stepping(evals.evals(), &mut inverse);
                assert_eq!(inverse, a.coeffs(), "stepping round trip, q = {q}");
                assert_eq!(ring.from_evals(&evals), a, "inverse, q = {q}");
                for v in ring.field().elements() {
                    let horner = ring.horner(a.coeffs(), v);
                    assert_eq!(ring.eval(&a, v), horner, "eval, q = {q}, v = {v}");
                }
            }
        }
    }

    #[test]
    fn linear_constructor_matches_coefficient_form() {
        for ring in rings() {
            for t in ring.field().elements() {
                assert_eq!(ring.from_evals(&ring.evals_linear(t)), ring.linear(t));
            }
        }
    }

    #[test]
    fn constants_and_identity() {
        let ring = RingCtx::new(83, 1).unwrap();
        assert_eq!(ring.from_evals(&ring.evals_one()), ring.one());
        assert_eq!(ring.from_evals(&ring.evals_zero()), ring.zero());
        assert_eq!(ring.from_evals(&ring.evals_constant(7)), ring.constant(7));
        assert!(ring.evals_zero().is_zero());
        assert!(!ring.evals_one().is_zero());
    }

    #[test]
    fn validation_of_external_values() {
        let ring = RingCtx::new(5, 1).unwrap();
        assert!(matches!(
            ring.evals_from_values(vec![0; 3]).unwrap_err(),
            RingError::WrongLength {
                expected: 4,
                got: 3
            }
        ));
        assert!(matches!(
            ring.evals_from_values(vec![0, 9, 0, 0]).unwrap_err(),
            RingError::InvalidCoefficient(9)
        ));
        assert!(ring.evals_from_values(vec![1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn degenerate_ring_q2() {
        // n = 1: the single evaluation point is g^0 = 1.
        let ring = RingCtx::new(2, 1).unwrap();
        assert_eq!(ring.eval_points(), &[1]);
        let f = ring.evals_linear(1); // x - 1 ≡ 0
        assert!(f.is_zero());
        assert_eq!(ring.from_evals(&ring.evals_one()), ring.one());
    }

    #[test]
    fn bounded_inverse_matches_full_inverse_for_low_degree() {
        let ring = RingCtx::new(83, 1).unwrap();
        // d linear factors => exact degree d (monic products), so the
        // bounded inverse must reproduce the full transform.
        let mut evals = ring.evals_one();
        for (d, t) in [3u64, 17, 3, 55, 80, 12, 9].into_iter().enumerate() {
            ring.eval_mul_linear_assign(&mut evals, t);
            let full = ring.from_evals(&evals);
            let mut bounded = ring.zero();
            ring.from_evals_bounded_into(&evals, d + 1, &mut bounded);
            assert_eq!(bounded, full, "degree {}", d + 1);
        }
        // A bound at or above n-1 is the full transform on anything.
        let dense = ring.to_evals(&random_poly(&ring, &mut Prg::from_u64(3)));
        let mut out = ring.zero();
        ring.from_evals_bounded_into(&dense, ring.len() - 1, &mut out);
        assert_eq!(out, ring.from_evals(&dense));
        ring.from_evals_bounded_into(&dense, usize::MAX, &mut out);
        assert_eq!(out, ring.from_evals(&dense));
    }

    #[test]
    fn figure1_product_in_eval_domain() {
        // The fig-1 root (x−1)²(x−2)²(x−3)² over F_5 computed entirely in
        // the evaluation domain must come back as [4, 1, 4, 1].
        let ring = RingCtx::new(5, 1).unwrap();
        let mut acc = ring.evals_one();
        for t in [1u64, 1, 2, 2, 3, 3] {
            ring.eval_mul_linear_assign(&mut acc, t);
        }
        assert_eq!(ring.from_evals(&acc).coeffs(), &[4, 1, 4, 1]);
    }
}
