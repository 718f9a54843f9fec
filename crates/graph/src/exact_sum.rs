//! Exact sums of `f64`s: a fixed-point superaccumulator.
//!
//! Every finite `f64` is an integer multiple of 2⁻¹⁰⁷⁴ below 2¹⁰²⁴, so a
//! two's-complement integer of 2⁻¹⁰⁷⁴ units a little wider than 2,098 bits
//! holds any sum of them without rounding. Adding or subtracting one value
//! touches the two limbs its 53-bit significand lands in plus a carry
//! chain, so it is O(1) amortized; [`ExactSum::value`] rounds the integer
//! to the nearest `f64` (ties to even) once. The state is a function of
//! the multiset of terms alone: any order of the same additions and
//! subtractions leaves the same limbs, so the rounded value's bits do not
//! depend on the order either.

/// Limbs of 64 bits: 2,098 bits reach the top of the largest finite
/// `f64`, and the rest is headroom for carries and the sign, so up to 2⁷⁷
/// terms of `f64::MAX` sum without wrapping.
const LIMBS: usize = 34;

/// An exact running sum of `f64` terms. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExactSum {
    /// Bit `k` of the integer weighs 2^(k − 1074); limb 0 is the least
    /// significant, and the integer is two's complement.
    limbs: [u64; LIMBS],
    /// Infinite terms added less those subtracted, by sign: a non-zero
    /// count makes the sum infinite whatever the finite part holds.
    infinite: i64,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            infinite: 0,
        }
    }
}

impl ExactSum {
    /// The exact sum of `terms`.
    pub(crate) fn of(terms: &[f64]) -> Self {
        let mut sum = ExactSum::default();
        for &x in terms {
            sum.add(x);
        }
        sum
    }

    /// Adds `x` exactly.
    ///
    /// # Panics
    /// Panics in debug builds if `x` is NaN.
    pub(crate) fn add(&mut self, x: f64) {
        self.accumulate(x, false);
    }

    /// Subtracts `x` exactly.
    ///
    /// # Panics
    /// Panics in debug builds if `x` is NaN.
    pub(crate) fn sub(&mut self, x: f64) {
        self.accumulate(x, true);
    }

    fn accumulate(&mut self, x: f64, negate: bool) {
        debug_assert!(!x.is_nan(), "an exact sum has no NaN terms");
        let negative = x.is_sign_negative() != negate;
        if x.is_infinite() {
            self.infinite += if negative { -1 } else { 1 };
            return;
        }
        let bits = x.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as usize;
        let fraction = bits & ((1 << 52) - 1);
        // A normal value is (2⁵² + fraction) · 2^(exponent − 1075), a
        // subnormal one fraction · 2⁻¹⁰⁷⁴.
        let (significand, shift) = match exponent {
            0 => (fraction, 0),
            _ => (fraction | 1 << 52, exponent - 1),
        };
        if significand == 0 {
            return;
        }
        let wide = u128::from(significand) << (shift % 64);
        let parts = [wide as u64, (wide >> 64) as u64];
        let mut carry = false;
        for (i, limb) in self.limbs.iter_mut().enumerate().skip(shift / 64) {
            let Some(part) = parts.get(i - shift / 64).copied().or(carry.then_some(0)) else {
                break;
            };
            let (next, over) = if negative {
                let (d, b1) = limb.overflowing_sub(part);
                let (d, b2) = d.overflowing_sub(u64::from(carry));
                (d, b1 || b2)
            } else {
                let (s, c1) = limb.overflowing_add(part);
                let (s, c2) = s.overflowing_add(u64::from(carry));
                (s, c1 || c2)
            };
            *limb = next;
            carry = over;
        }
    }

    /// The sum rounded to the nearest `f64`, ties to even: ±infinity past
    /// `f64::MAX`, or when infinite terms are in the sum.
    pub(crate) fn value(&self) -> f64 {
        if self.infinite != 0 {
            return f64::INFINITY.copysign(self.infinite as f64);
        }
        if self.limbs[LIMBS - 1] >> 63 == 0 {
            return round(&self.limbs);
        }
        // Negative: round the magnitude, the two's complement.
        let mut magnitude = self.limbs.map(|l| !l);
        for limb in &mut magnitude {
            let (next, over) = limb.overflowing_add(1);
            *limb = next;
            if !over {
                break;
            }
        }
        -round(&magnitude)
    }
}

/// The non-negative integer `limbs` (units of 2⁻¹⁰⁷⁴) rounded to the
/// nearest `f64`, ties to even.
fn round(limbs: &[u64; LIMBS]) -> f64 {
    let Some(top) = (0..LIMBS).rev().find(|&i| limbs[i] != 0) else {
        return 0.0;
    };
    let msb = top * 64 + 63 - limbs[top].leading_zeros() as usize;
    if msb < 53 {
        // Fewer than 53 significant bits: exact, normal or subnormal.
        return limbs[0] as f64 * f64::from_bits(1);
    }
    // Keep the 53 bits from `msb` down; round on the bit below them and
    // on whether anything lower is set.
    let mut shift = msb - 52;
    let mut significand = bits_at(limbs, shift) & ((1 << 53) - 1);
    let half = bits_at(limbs, shift - 1) & 1 == 1;
    let sticky = {
        let below = shift - 1;
        limbs[..below / 64].iter().any(|&l| l != 0)
            || limbs[below / 64] & ((1u64 << (below % 64)) - 1) != 0
    };
    if half && (sticky || significand & 1 == 1) {
        significand += 1;
        if significand == 1 << 53 {
            significand >>= 1;
            shift += 1;
        }
    }
    // significand · 2^(shift − 1074) with 2⁵² ≤ significand < 2⁵³ has the
    // biased exponent shift + 1.
    let exponent = shift as u64 + 1;
    if exponent >= 0x7ff {
        return f64::INFINITY;
    }
    f64::from_bits(exponent << 52 | (significand & ((1 << 52) - 1)))
}

/// The 64 bits of `limbs` from bit `start` up (zeros past the top).
fn bits_at(limbs: &[u64; LIMBS], start: usize) -> u64 {
    let (i, offset) = (start / 64, start % 64);
    let low = u128::from(limbs[i]);
    let high = u128::from(limbs.get(i + 1).copied().unwrap_or(0));
    ((high << 64 | low) >> offset) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference: the exact rational sum of `terms`, as a sign and an
    /// arbitrary-width magnitude in 2⁻¹⁰⁷⁴ units (little-endian u32
    /// digits), rounded by hand to the nearest `f64`, ties to even.
    fn reference(terms: &[f64]) -> f64 {
        // Signed big integers as (negative, digits) with schoolbook add.
        fn digits(x: f64) -> Vec<u64> {
            let bits = x.abs().to_bits();
            let exponent = (bits >> 52) as usize;
            let fraction = bits & ((1 << 52) - 1);
            let (sig, shift) = match exponent {
                0 => (fraction, 0),
                _ => (fraction | 1 << 52, exponent - 1),
            };
            let mut out = vec![0u64; (shift + 53) / 32 + 2];
            for bit in 0..53 {
                if sig >> bit & 1 == 1 {
                    let k = shift + bit;
                    out[k / 32] |= 1 << (k % 32);
                }
            }
            out
        }
        fn cmp(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
            let len = a.len().max(b.len());
            for i in (0..len).rev() {
                let (x, y) = (
                    a.get(i).copied().unwrap_or(0),
                    b.get(i).copied().unwrap_or(0),
                );
                if x != y {
                    return x.cmp(&y);
                }
            }
            std::cmp::Ordering::Equal
        }
        fn add(a: &[u64], b: &[u64]) -> Vec<u64> {
            let len = a.len().max(b.len()) + 1;
            let mut out = vec![0u64; len];
            let mut carry = 0;
            for (i, o) in out.iter_mut().enumerate() {
                let s = a.get(i).copied().unwrap_or(0) + b.get(i).copied().unwrap_or(0) + carry;
                *o = s & 0xffff_ffff;
                carry = s >> 32;
            }
            out
        }
        fn sub(a: &[u64], b: &[u64]) -> Vec<u64> {
            // a ≥ b.
            let mut out = vec![0u64; a.len()];
            let mut borrow = 0i64;
            for (i, o) in out.iter_mut().enumerate() {
                let d = a[i] as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
                borrow = i64::from(d < 0);
                *o = (d + (borrow << 32)) as u64;
            }
            out
        }
        let (mut neg, mut mag) = (false, vec![0u64]);
        for &t in terms {
            let d = digits(t);
            if (t < 0.0) == neg {
                mag = add(&mag, &d);
            } else if cmp(&mag, &d).is_ge() {
                mag = sub(&mag, &d);
            } else {
                mag = sub(&d, &mag);
                neg = !neg;
            }
        }
        // Round: find the top bit, keep 53, ties to even.
        let bit = |k: usize| mag.get(k / 32).is_some_and(|&d| d >> (k % 32) & 1 == 1);
        let Some(msb) = (0..mag.len() * 32).rev().find(|&k| bit(k)) else {
            return 0.0;
        };
        let value = if msb < 53 {
            let v: u64 = (0..=msb).map(|k| u64::from(bit(k)) << k).sum();
            v as f64 * f64::from_bits(1)
        } else {
            let shift = msb - 52;
            let mut sig: u64 = (0..53).map(|k| u64::from(bit(shift + k)) << k).sum();
            let half = bit(shift - 1);
            let sticky = (0..shift - 1).any(bit);
            let mut shift = shift;
            if half && (sticky || sig & 1 == 1) {
                sig += 1;
                if sig == 1 << 53 {
                    sig >>= 1;
                    shift += 1;
                }
            }
            if shift + 1 >= 0x7ff {
                f64::INFINITY
            } else {
                f64::from_bits((shift as u64 + 1) << 52 | (sig & ((1 << 52) - 1)))
            }
        };
        if neg {
            -value
        } else {
            value
        }
    }

    /// A finite `f64` from one draw: a magnitude 10^e with `e` in
    /// -300..300, a subnormal, or a small multiple of 1/8; either sign.
    fn term((kind, e, bits, negative): (u32, f64, u64, bool)) -> f64 {
        let x = match kind {
            0 => 10f64.powf(e),
            1 => f64::from_bits(1 + bits % ((1 << 52) - 1)),
            _ => (1 + bits % 64) as f64 * 0.125,
        };
        if negative {
            -x
        } else {
            x
        }
    }

    type Draw = (u32, f64, u64, bool);

    fn draw_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Draw>> {
        prop::collection::vec(
            (0u32..3, -300.0f64..300.0, any::<u64>(), any::<bool>()),
            len,
        )
    }

    #[test]
    fn sums_small_cases_exactly() {
        assert_eq!(ExactSum::default().value().to_bits(), 0.0f64.to_bits());
        assert_eq!(ExactSum::of(&[0.1, 0.2]).value(), 0.1 + 0.2);
        // 1 + 2⁻⁵³ + 2⁻⁵³: a sequential sum loses both halves, the exact
        // sum is 1 + 2⁻⁵².
        let tiny = f64::EPSILON / 2.0;
        assert_eq!(ExactSum::of(&[1.0, tiny, tiny]).value(), 1.0 + f64::EPSILON);
        // Halfway between 1 and 1 + 2⁻⁵² plus 2⁻⁶⁰, a bit in the round
        // bit's own limb: above the tie, so it rounds up.
        assert_eq!(ExactSum::of(&[1.0, tiny, tiny / 128.0]).value(), 1.0 + f64::EPSILON);
        assert_eq!(ExactSum::of(&[1.0, tiny]).value(), 1.0);
        // A huge term that comes and goes leaves the small ones intact.
        assert_eq!(ExactSum::of(&[1e300, 3.0, -1e300, 0.5]).value(), 3.5);
        assert_eq!(ExactSum::of(&[-2.0, 0.5]).value(), -1.5);
        // Subnormals sum exactly.
        let min = f64::from_bits(1);
        assert_eq!(ExactSum::of(&[min, min, min]).value(), 3.0 * min);
        // Past f64::MAX the rounded sum is infinite; the sum stays exact.
        let mut big = ExactSum::of(&[f64::MAX, f64::MAX]);
        assert_eq!(big.value(), f64::INFINITY);
        big.sub(f64::MAX);
        assert_eq!(big.value(), f64::MAX);
        big.add(f64::INFINITY);
        assert_eq!(big.value(), f64::INFINITY);
        big.sub(f64::INFINITY);
        assert_eq!(big.value(), f64::MAX);
        // Ties to even at the top of the range: MAX plus half its ulp
        // rounds up to infinity, less than half stays at MAX.
        let half_ulp = f64::from_bits(0x7c90_0000_0000_0000); // 2⁹⁷⁰
        assert_eq!(ExactSum::of(&[f64::MAX, half_ulp]).value(), f64::INFINITY);
        assert_eq!(ExactSum::of(&[f64::MAX, half_ulp / 2.0]).value(), f64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The rounded sum is the correctly rounded exact sum, for terms
        // whose magnitudes span 1e-300 to 1e300.
        #[test]
        fn matches_an_exact_reference(draws in draw_vec(0..40)) {
            let terms: Vec<f64> = draws.into_iter().map(term).collect();
            let want = reference(&terms);
            prop_assert_eq!(ExactSum::of(&terms).value().to_bits(), want.to_bits());
        }

        // Its bits do not depend on the order of the operations, and
        // adding then subtracting any terms restores it.
        #[test]
        fn order_free_and_reversible(
            draws in draw_vec(1..40),
            extra in draw_vec(1..20),
            seed in any::<u64>(),
        ) {
            let terms: Vec<f64> = draws.into_iter().map(term).collect();
            let extra: Vec<f64> = extra.into_iter().map(term).collect();
            let sum = ExactSum::of(&terms);
            let mut shuffled = terms.clone();
            let mut state = seed | 1;
            for i in (1..shuffled.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            prop_assert_eq!(&ExactSum::of(&shuffled), &sum);
            prop_assert_eq!(ExactSum::of(&shuffled).value().to_bits(), sum.value().to_bits());
            // Interleave: subtract the extras first, add the terms, add
            // the extras back.
            let mut moved = ExactSum::default();
            for &x in &extra {
                moved.sub(x);
            }
            for &x in shuffled.iter().rev() {
                moved.add(x);
            }
            for &x in &extra {
                moved.add(x);
            }
            prop_assert_eq!(&moved, &sum);
            prop_assert_eq!(moved.value().to_bits(), sum.value().to_bits());
        }
    }
}
