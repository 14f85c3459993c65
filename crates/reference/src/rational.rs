//! Exact rational arithmetic for the certifying oracle.
//!
//! [`Rational`] is an always-reduced fraction whose numerator and
//! denominator live in `i128` on the fast path and promote — via
//! overflow-*checked* operations, never wrapping — to a small in-crate
//! big-integer ([`Big`]) when a product or sum no longer fits. No external
//! crates (matching the workspace's offline compat-shim policy): the big
//! path needs only magnitude add/sub/mul, comparison, shifts, and binary
//! GCD, all of which fit in a few hundred lines. Division of big integers
//! is deliberately *not* implemented — rational division is
//! multiply-by-reciprocal, reduction uses binary GCD, and `floor` (needed
//! by exact branch-and-bound) is recovered from a float approximation
//! that is then *verified* exactly and nudged, so it is never trusted.
//!
//! Every finite `f64` is a dyadic rational (`m · 2^e` with integer `m`),
//! so [`Rational::from_f64`] is exact: float solver output converts into
//! this type without any rounding, which is what makes the certificate
//! layer's "evaluate exactly, compare against a documented tolerance"
//! contract meaningful.

use std::cmp::Ordering;
use std::fmt;

// ---------------------------------------------------------------------------
// Big: sign + little-endian u64 magnitude
// ---------------------------------------------------------------------------

/// Arbitrary-precision signed integer. Magnitude is little-endian `u64`
/// limbs with no trailing zero limbs; zero is the empty magnitude with
/// `neg == false`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Big {
    neg: bool,
    mag: Vec<u64>,
}

impl Big {
    fn zero() -> Big {
        Big { neg: false, mag: Vec::new() }
    }

    fn from_i128(v: i128) -> Big {
        let neg = v < 0;
        let m = v.unsigned_abs();
        let mut mag = vec![m as u64, (m >> 64) as u64];
        while mag.last() == Some(&0) {
            mag.pop();
        }
        Big { neg: neg && !mag.is_empty(), mag }
    }

    fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// `Some(v)` when the value fits an `i128` (used to demote back to the
    /// fast path after a big-path operation).
    fn to_i128(&self) -> Option<i128> {
        match self.mag.len() {
            0 => Some(0),
            1 => {
                let m = self.mag[0] as i128;
                Some(if self.neg { -m } else { m })
            }
            2 => {
                let m = (self.mag[0] as u128) | ((self.mag[1] as u128) << 64);
                if self.neg {
                    (m <= 1u128 << 127).then(|| (m as i128).wrapping_neg())
                } else {
                    (m < 1u128 << 127).then_some(m as i128)
                }
            }
            _ => None,
        }
    }

    fn bits(&self) -> u64 {
        match self.mag.last() {
            None => 0,
            Some(&top) => (self.mag.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let s = limb as u128 + *short.get(i).unwrap_or(&0) as u128 + carry as u128;
            out.push(s as u64);
            carry = (s >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// `a - b`, requiring `a >= b` in magnitude.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Big::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i128;
        for (i, &limb) in a.iter().enumerate() {
            let d = limb as i128 - *b.get(i).unwrap_or(&0) as i128 - borrow;
            if d < 0 {
                out.push((d + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(d as u64);
                borrow = 0;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn shr1_mag(mag: &mut Vec<u64>) {
        let mut carry = 0u64;
        for limb in mag.iter_mut().rev() {
            let new_carry = *limb & 1;
            *limb = (*limb >> 1) | (carry << 63);
            carry = new_carry;
        }
        while mag.last() == Some(&0) {
            mag.pop();
        }
    }

    fn shl_bits_mag(mag: &[u64], bits: u64) -> Vec<u64> {
        if mag.is_empty() {
            return Vec::new();
        }
        let limbs = (bits / 64) as usize;
        let rem = bits % 64;
        let mut out = vec![0u64; limbs];
        if rem == 0 {
            out.extend_from_slice(mag);
        } else {
            let mut carry = 0u64;
            for &limb in mag {
                out.push((limb << rem) | carry);
                carry = limb >> (64 - rem);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        out
    }

    fn trailing_zeros_mag(mag: &[u64]) -> u64 {
        for (i, &limb) in mag.iter().enumerate() {
            if limb != 0 {
                return i as u64 * 64 + limb.trailing_zeros() as u64;
            }
        }
        0
    }

    fn add(&self, other: &Big) -> Big {
        if self.neg == other.neg {
            let mag = Big::add_mag(&self.mag, &other.mag);
            Big { neg: self.neg && !mag.is_empty(), mag }
        } else {
            match Big::cmp_mag(&self.mag, &other.mag) {
                Ordering::Equal => Big::zero(),
                Ordering::Greater => {
                    let mag = Big::sub_mag(&self.mag, &other.mag);
                    Big { neg: self.neg && !mag.is_empty(), mag }
                }
                Ordering::Less => {
                    let mag = Big::sub_mag(&other.mag, &self.mag);
                    Big { neg: other.neg && !mag.is_empty(), mag }
                }
            }
        }
    }

    fn mul(&self, other: &Big) -> Big {
        let mag = Big::mul_mag(&self.mag, &other.mag);
        Big { neg: (self.neg != other.neg) && !mag.is_empty(), mag }
    }

    fn neg(&self) -> Big {
        Big { neg: !self.neg && !self.is_zero(), mag: self.mag.clone() }
    }

    fn cmp(&self, other: &Big) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Big::cmp_mag(&self.mag, &other.mag),
            (true, true) => Big::cmp_mag(&other.mag, &self.mag),
        }
    }

    /// Binary GCD on magnitudes (no division needed anywhere).
    fn gcd_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() {
            return b.to_vec();
        }
        if b.is_empty() {
            return a.to_vec();
        }
        let za = Big::trailing_zeros_mag(a);
        let zb = Big::trailing_zeros_mag(b);
        let shift = za.min(zb);
        let mut u = a.to_vec();
        let mut v = b.to_vec();
        for _ in 0..za {
            Big::shr1_mag(&mut u);
        }
        for _ in 0..zb {
            Big::shr1_mag(&mut v);
        }
        loop {
            match Big::cmp_mag(&u, &v) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut u, &mut v),
                Ordering::Greater => {}
            }
            u = Big::sub_mag(&u, &v);
            let tz = Big::trailing_zeros_mag(&u);
            for _ in 0..tz {
                Big::shr1_mag(&mut u);
            }
            if u.is_empty() {
                u = v.clone();
                break;
            }
        }
        Big::shl_bits_mag(&u, shift)
    }

    /// Approximate value as `(m, e)` with the magnitude's top 64 bits in
    /// `m` and the discarded low-bit count in `e`: value ≈ `m · 2^e`.
    /// Splitting mantissa and exponent keeps ratios of huge integers
    /// computable without overflowing `f64` range.
    fn to_f64_exp(&self) -> (f64, i64) {
        let bits = self.bits();
        if bits == 0 {
            return (0.0, 0);
        }
        let take = bits.min(64);
        let shift = bits - take; // bits discarded from the bottom
        let mut top = 0u64;
        for k in 0..take {
            let bit_index = shift + k;
            let limb = (bit_index / 64) as usize;
            let off = bit_index % 64;
            if self.mag[limb] >> off & 1 == 1 {
                top |= 1 << k;
            }
        }
        let val = if self.neg { -(top as f64) } else { top as f64 };
        (val, shift as i64)
    }

    fn to_f64(&self) -> f64 {
        let (m, e) = self.to_f64_exp();
        m * pow2(e)
    }
}

// ---------------------------------------------------------------------------
// Int: i128 fast path with checked promotion
// ---------------------------------------------------------------------------

/// Integer that is an `i128` until a checked operation overflows, then a
/// [`Big`]. Operations demote back when the result fits, so a transient
/// blow-up (common mid-reduction) does not poison later arithmetic.
#[derive(Clone, Debug)]
pub(crate) enum Int {
    S(i128),
    B(Big),
}

impl Int {
    fn big(&self) -> Big {
        match self {
            Int::S(v) => Big::from_i128(*v),
            Int::B(b) => b.clone(),
        }
    }

    fn normalize(b: Big) -> Int {
        match b.to_i128() {
            Some(v) => Int::S(v),
            None => Int::B(b),
        }
    }

    fn is_zero(&self) -> bool {
        match self {
            Int::S(v) => *v == 0,
            Int::B(b) => b.is_zero(),
        }
    }

    fn is_negative(&self) -> bool {
        match self {
            Int::S(v) => *v < 0,
            Int::B(b) => b.neg,
        }
    }

    fn add(&self, other: &Int) -> Int {
        if let (Int::S(a), Int::S(b)) = (self, other) {
            if let Some(s) = a.checked_add(*b) {
                return Int::S(s);
            }
        }
        Int::normalize(self.big().add(&other.big()))
    }

    fn sub(&self, other: &Int) -> Int {
        if let (Int::S(a), Int::S(b)) = (self, other) {
            if let Some(s) = a.checked_sub(*b) {
                return Int::S(s);
            }
        }
        Int::normalize(self.big().add(&other.big().neg()))
    }

    fn mul(&self, other: &Int) -> Int {
        if let (Int::S(a), Int::S(b)) = (self, other) {
            if let Some(s) = a.checked_mul(*b) {
                return Int::S(s);
            }
        }
        Int::normalize(self.big().mul(&other.big()))
    }

    fn neg(&self) -> Int {
        match self {
            Int::S(v) => match v.checked_neg() {
                Some(n) => Int::S(n),
                None => Int::normalize(Big::from_i128(*v).neg()),
            },
            Int::B(b) => Int::normalize(b.neg()),
        }
    }

    fn cmp(&self, other: &Int) -> Ordering {
        if let (Int::S(a), Int::S(b)) = (self, other) {
            return a.cmp(b);
        }
        self.big().cmp(&other.big())
    }

    fn gcd(&self, other: &Int) -> Int {
        if let (Int::S(a), Int::S(b)) = (self, other) {
            let (mut x, mut y) = (a.unsigned_abs(), b.unsigned_abs());
            while y != 0 {
                let t = x % y;
                x = y;
                y = t;
            }
            if x <= i128::MAX as u128 {
                return Int::S(x as i128);
            }
        }
        Int::normalize(Big {
            neg: false,
            mag: Big::gcd_mag(&self.big().mag, &other.big().mag),
        })
    }

    /// Exact division by a known divisor (`other` divides `self` exactly —
    /// only ever called with a GCD of `self`). On the big path this is a
    /// bit-at-a-time reconstruction to avoid implementing long division.
    fn div_exact(&self, other: &Int) -> Int {
        if let (Int::S(a), Int::S(b)) = (self, other) {
            debug_assert!(*b != 0 && a % b == 0);
            return Int::S(a / b);
        }
        let a = self.big();
        let b = other.big();
        debug_assert!(!b.is_zero());
        // Binary long division on magnitudes: standard shift-and-subtract.
        let mut quotient = vec![0u64; a.mag.len()];
        let mut rem: Vec<u64> = Vec::new();
        let total_bits = a.bits();
        for bit in (0..total_bits).rev() {
            // rem = rem * 2 + bit(a, bit)
            rem = Big::shl_bits_mag(&rem, 1);
            let limb = (bit / 64) as usize;
            if a.mag[limb] >> (bit % 64) & 1 == 1 {
                if rem.is_empty() {
                    rem.push(1);
                } else {
                    rem[0] |= 1;
                }
            }
            if Big::cmp_mag(&rem, &b.mag) != Ordering::Less {
                rem = Big::sub_mag(&rem, &b.mag);
                quotient[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        debug_assert!(rem.is_empty(), "div_exact called with non-divisor");
        while quotient.last() == Some(&0) {
            quotient.pop();
        }
        let neg = (a.neg != b.neg) && !quotient.is_empty();
        Int::normalize(Big { neg, mag: quotient })
    }

}

// ---------------------------------------------------------------------------
// Rational
// ---------------------------------------------------------------------------

/// An exact rational number: reduced fraction, positive denominator.
#[derive(Clone, Debug)]
pub struct Rational {
    num: Int,
    den: Int,
}

impl Rational {
    pub const ZERO: Rational = Rational { num: Int::S(0), den: Int::S(1) };
    pub const ONE: Rational = Rational { num: Int::S(1), den: Int::S(1) };

    pub fn from_int(v: i64) -> Rational {
        Rational { num: Int::S(v as i128), den: Int::S(1) }
    }

    /// `n / d`; panics on `d == 0`.
    pub fn ratio(n: i64, d: i64) -> Rational {
        assert!(d != 0, "zero denominator");
        Rational::reduced(Int::S(n as i128), Int::S(d as i128))
    }

    /// Exact conversion of a finite float (every finite `f64` is a dyadic
    /// rational). Returns `None` for NaN / infinities.
    pub fn from_f64(v: f64) -> Option<Rational> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::ZERO);
        }
        // v = m * 2^e exactly, with |m| < 2^53.
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i128 } else { 1 };
        let exp_field = ((bits >> 52) & 0x7ff) as i64;
        let frac = (bits & ((1u64 << 52) - 1)) as i128;
        let (m, e) = if exp_field == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1 << 52), exp_field - 1075)
        };
        let m = sign * m;
        Some(if e >= 0 {
            if e < 74 {
                // 53 significant bits + up to 74 shift fits i128.
                Rational { num: Int::S(m << e), den: Int::S(1) }
            } else {
                let mag = Big::shl_bits_mag(&Big::from_i128(m).mag, e as u64);
                Rational {
                    num: Int::normalize(Big { neg: m < 0, mag }),
                    den: Int::S(1),
                }
            }
        } else {
            let shift = -e;
            let den = if shift < 127 {
                Int::S(1i128 << shift)
            } else {
                Int::normalize(Big {
                    neg: false,
                    mag: Big::shl_bits_mag(&[1], shift as u64),
                })
            };
            // m is odd or reduction handles shared powers of two.
            Rational::reduced(Int::S(m), den)
        })
    }

    fn reduced(mut num: Int, mut den: Int) -> Rational {
        if num.is_zero() {
            return Rational::ZERO;
        }
        if den.is_negative() {
            num = num.neg();
            den = den.neg();
        }
        let g = num.gcd(&den);
        if g.cmp(&Int::S(1)) == Ordering::Greater {
            num = num.div_exact(&g);
            den = den.div_exact(&g);
        }
        Rational { num, den }
    }

    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    pub fn is_positive(&self) -> bool {
        !self.num.is_zero() && !self.num.is_negative()
    }

    /// True when the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        matches!(self.den, Int::S(1))
    }

    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            self.neg_ref()
        } else {
            self.clone()
        }
    }

    fn neg_ref(&self) -> Rational {
        Rational { num: self.num.neg(), den: self.den.clone() }
    }

    pub fn add_ref(&self, other: &Rational) -> Rational {
        // a/b + c/d = (ad + cb) / bd
        let num = self.num.mul(&other.den).add(&other.num.mul(&self.den));
        let den = self.den.mul(&other.den);
        Rational::reduced(num, den)
    }

    pub fn sub_ref(&self, other: &Rational) -> Rational {
        let num = self.num.mul(&other.den).sub(&other.num.mul(&self.den));
        let den = self.den.mul(&other.den);
        Rational::reduced(num, den)
    }

    pub fn mul_ref(&self, other: &Rational) -> Rational {
        Rational::reduced(self.num.mul(&other.num), self.den.mul(&other.den))
    }

    pub fn div_ref(&self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "division by zero rational");
        Rational::reduced(self.num.mul(&other.den), self.den.mul(&other.num))
    }

    /// Approximate float value (exact when both parts fit `f64` exactly).
    pub fn to_f64(&self) -> f64 {
        match (&self.num, &self.den) {
            (Int::S(n), Int::S(d)) => {
                let (nf, df) = (*n as f64, *d as f64);
                if nf.is_finite() && df.is_finite() && df != 0.0 {
                    return nf / df;
                }
                // i128 values beyond f64 range: fall through to the
                // exponent-tracked path.
                Big::from_i128(*n).to_f64() / Big::from_i128(*d).to_f64()
            }
            _ => {
                // (nm·2^ne) / (dm·2^de) = (nm/dm)·2^(ne−de); mantissas are
                // 64-bit scale so the ratio never over/underflows, only
                // the final power-of-two scaling can (correctly) saturate.
                let (nm, ne) = self.num.big().to_f64_exp();
                let (dm, de) = self.den.big().to_f64_exp();
                if dm == 0.0 {
                    return 0.0; // unreachable: denominators are positive
                }
                (nm / dm) * pow2(ne - de)
            }
        }
    }

    /// Largest integer `k` with `k <= self`, as a `Rational`. Uses the
    /// float approximation as a *candidate* and verifies/nudges exactly,
    /// so the result is always correct even when `to_f64` rounded.
    pub fn floor(&self) -> Rational {
        if self.is_integer() {
            return self.clone();
        }
        let mut k = self.to_f64().floor();
        if !k.is_finite() {
            k = 0.0;
        }
        let mut cand = Rational::from_f64(k).expect("finite floor candidate");
        // cand must satisfy cand <= self < cand + 1; nudge until it does.
        let one = Rational::ONE;
        while cand.cmp_ref(self) == Ordering::Greater {
            cand = cand.sub_ref(&one);
        }
        while cand.add_ref(&one).cmp_ref(self) != Ordering::Greater {
            cand = cand.add_ref(&one);
        }
        cand
    }

    pub fn ceil(&self) -> Rational {
        if self.is_integer() {
            return self.clone();
        }
        self.floor().add_ref(&Rational::ONE)
    }

    pub fn cmp_ref(&self, other: &Rational) -> Ordering {
        // a/b vs c/d  <=>  ad vs cb (b, d > 0).
        self.num.mul(&other.den).cmp(&other.num.mul(&self.den))
    }
}

/// `2^e` as `f64`, saturating to 0 / ±∞ outside the representable range
/// (`exp2` handles that; the clamp just avoids precision loss in the
/// `i64 → f64` cast for absurd exponents).
fn pow2(e: i64) -> f64 {
    (e.clamp(-1_100, 1_100) as f64).exp2()
}

impl PartialEq for Rational {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_ref(other) == Ordering::Equal
    }
}
impl Eq for Rational {}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_ref(other)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.num, &self.den) {
            (Int::S(n), Int::S(1)) => write!(f, "{n}"),
            (Int::S(n), Int::S(d)) => write!(f, "{n}/{d}"),
            _ => write!(f, "{:.6e} (big)", self.to_f64()),
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl std::ops::$trait for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                self.$inner(rhs)
            }
        }
        impl std::ops::$trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$inner(&rhs)
            }
        }
    };
}
impl_binop!(Add, add, add_ref);
impl_binop!(Sub, sub, sub_ref);
impl_binop!(Mul, mul, mul_ref);
impl_binop!(Div, div, div_ref);

impl std::ops::Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.neg_ref()
    }
}
impl std::ops::Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.neg_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    /// True when the fast `i128` representation is in use for both parts.
    fn is_small(q: &Rational) -> bool {
        matches!((&q.num, &q.den), (Int::S(_), Int::S(_)))
    }

    #[test]
    fn basic_arithmetic_reduces() {
        assert_eq!(r(1, 2).add_ref(&r(1, 3)), r(5, 6));
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(1, 2).mul_ref(&r(2, 3)), r(1, 3));
        assert_eq!(r(1, 2).sub_ref(&r(1, 2)), Rational::ZERO);
        assert_eq!(r(3, 4).div_ref(&r(3, 2)), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(1, 1_000_000));
        assert_eq!(r(7, 7).cmp_ref(&Rational::ONE), Ordering::Equal);
    }

    #[test]
    fn from_f64_is_exact() {
        for v in [0.5, 0.1, 1e-9, 123456.789, -3.25, 1e300, 5e-324, -0.0] {
            let q = Rational::from_f64(v).unwrap();
            assert_eq!(q.to_f64(), v, "round trip through rational must be exact for {v}");
        }
        assert_eq!(Rational::from_f64(0.25).unwrap(), r(1, 4));
        assert_eq!(Rational::from_f64(-1.5).unwrap(), r(-3, 2));
        assert!(Rational::from_f64(f64::NAN).is_none());
        assert!(Rational::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn overflow_promotes_and_stays_correct() {
        // (2^100 / 3) * 3 == 2^100, forced through the big path.
        let big = Rational::from_f64((2.0f64).powi(100)).unwrap();
        let third = big.div_ref(&Rational::from_int(3));
        let back = third.mul_ref(&Rational::from_int(3));
        assert_eq!(back, big);

        // Repeated squaring overflows i128 quickly; equality must hold
        // exactly against the f64 powers (which are exact powers of two).
        let mut q = Rational::from_f64(2.0f64.powi(60)).unwrap();
        q = q.mul_ref(&q); // 2^120, still small
        assert!(is_small(&q));
        q = q.mul_ref(&q); // 2^240, must promote
        assert!(!is_small(&q));
        assert_eq!(q.to_f64(), 2.0f64.powi(240));
        // And demotion: dividing back down returns to the fast path.
        let down = q.div_ref(&Rational::from_f64(2.0f64.powi(200)).unwrap());
        assert!(is_small(&down));
        assert_eq!(down, Rational::from_f64(2.0f64.powi(40)).unwrap());
    }

    #[test]
    fn big_addition_with_mixed_signs() {
        let a = Rational::from_f64(2.0f64.powi(200)).unwrap();
        let b = Rational::from_f64(2.0f64.powi(199)).unwrap();
        let d = a.sub_ref(&b);
        assert_eq!(d, b);
        assert_eq!(b.sub_ref(&a), b.neg_ref());
        assert_eq!(a.add_ref(&a.neg_ref()), Rational::ZERO);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(r(7, 2).floor(), Rational::from_int(3));
        assert_eq!(r(7, 2).ceil(), Rational::from_int(4));
        assert_eq!(r(-7, 2).floor(), Rational::from_int(-4));
        assert_eq!(r(-7, 2).ceil(), Rational::from_int(-3));
        assert_eq!(Rational::from_int(5).floor(), Rational::from_int(5));
        // A value whose float image rounds: (2^60 + 1) / 1 is integral,
        // but (2^60+1)/2 floors to 2^59 exactly despite float rounding.
        let v = Rational::from_f64(2.0f64.powi(60)).unwrap()
            .add_ref(&Rational::ONE)
            .div_ref(&Rational::from_int(2));
        assert_eq!(v.floor(), Rational::from_f64(2.0f64.powi(59)).unwrap());
    }

    #[test]
    fn gcd_on_big_path() {
        // gcd(2^130 * 3, 2^130 * 5) reduction: (3·2^130)/(5·2^130) = 3/5.
        let p130 = {
            let mut q = Rational::from_f64(2.0f64.powi(65)).unwrap();
            q = q.mul_ref(&q);
            q
        };
        let n = p130.mul_ref(&Rational::from_int(3));
        let d = p130.mul_ref(&Rational::from_int(5));
        assert_eq!(n.div_ref(&d), r(3, 5));
    }
}
