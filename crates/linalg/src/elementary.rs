//! `exp`, `ln` and `sin_cos` owned by the workspace, bit for bit equal to the
//! libm results every fixed-seed pin was recorded with.
//!
//! Each function re-implements one routine of glibc 2.36's x86-64 FMA build
//! (the variant its IFUNC selects on any CPU with FMA and AVX2), operation
//! for operation, with an [`f64::mul_add`] exactly where that build fuses a
//! multiply and an add. `mul_add` rounds once on every host (a software
//! `fma` on a CPU without the instruction: slow, but exact), so the results
//! no longer depend on which libm the host links or how it dispatches.
//!
//! | function    | glibc routine          | algorithm                                   |
//! |-------------|------------------------|---------------------------------------------|
//! | [`exp`]     | `__ieee754_exp_fma`    | x = k·ln2/128 + r; 2^(k/128) from a 128-entry table times a degree-5 polynomial in r |
//! | [`ln`]      | `__ieee754_log_fma`    | x = 2^k·z; ln z = ln c + log1p(z/c − 1) over a 128-entry (1/c, ln c) table; a degree-12 polynomial near 1 |
//! | [`sin_cos`] | `__sincos_fma`         | IBM's `do_sin`/`do_cos`: Taylor below 0.126, else sin/cos(k/128) from a 110-entry double-double table; π/2 − \|x\| or a three-part Cody–Waite reduction above 0.855469 |
//!
//! **Fallback.** Arguments outside the ranges these paths cover go to the
//! host's [`f64::exp`], [`f64::ln`], [`f64::sin`] and [`f64::cos`]:
//! - `exp`: |x| ≥ 512, |x| < 2⁻⁵⁴, ∞ and NaN;
//! - `ln`: zero, negative, subnormal, ∞ and NaN;
//! - `sin_cos`: |x| < 2⁻²⁷ and |x| ≥ 105 414 336 (high word
//!   `0x4199_21fb` and above, which glibc's comments round to
//!   105 414 350), ∞ and NaN.
//!
//! The callers reach a fallback rarely, and then at libm's speed: the
//! mixture log-sum-exp's `exp(0)` for its largest term, a Box–Muller angle
//! below 2⁻²⁷, a soft-plus argument of exactly 0 or below −512.
//!
//! **Provenance of the data** (in `tables.rs`; 7 616 bytes):
//! - `exp`: regenerated from its rule. For k in 0..128, hi = 2^(k/128)
//!   rounded to nearest and tail = (2^(k/128) − hi)/hi rounded to nearest,
//!   evaluated at 80 decimal digits. All 128 entries equal glibc's.
//! - `sin_cos`: regenerated as correctly rounded double-doubles of
//!   sin(k/128) and cos(k/128), k in 0..110, from 80-digit Taylor series.
//!   The 220 high words equal glibc's; 18 of its 220 low words differ, by
//!   1–39 units of a word whose own weight is about 2⁻⁵³ of the result's,
//!   and the release census (`tests/elementary.rs`) finds no output bit that
//!   moves.
//! - `ln`: the `invc`/`logc` pairs are the table of ARM's
//!   optimized-routines `log_data.c` (MIT licence), which glibc ships.
//! - The polynomial coefficients and reduction constants are those of the
//!   same routines (ARM optimized-routines for `exp` and `ln`, IBM Accurate
//!   Mathematical Library for `sin_cos`), quoted as bit patterns.
//!
//! The code follows the published algorithms; no library source text is
//! copied.

mod tables;

use tables::{EXP_TABLE, LOG_TABLE, SINCOS_TABLE};

// ---- exp ------------------------------------------------------------------

/// 128/ln 2 (`0x1.71547652b82fep+7`).
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// −ln 2/128, high part (`-0x1.62e42fefa0000p-8`).
const EXP_NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
/// −ln 2/128, low part (`-0x1.cf79abc9e3b3ap-47`).
const EXP_NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// 1.5·2⁵²: adding it rounds to an integer held in the low mantissa bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// exp(r) − 1 ≈ r + C2·r² + C3·r³ + C4·r⁴ + C5·r⁵.
const EXP_C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
const EXP_C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
const EXP_C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
const EXP_C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);

/// `e^x`, equal bit for bit to glibc 2.36's `exp` on x86-64 with FMA.
///
/// See the [module documentation](self) for the algorithm and fallback.
/// gis-analyze: no_alloc
#[inline]
pub fn exp(x: f64) -> f64 {
    let abstop = ((x.to_bits() >> 52) & 0x7ff) as u32;
    // 2⁻⁵⁴ ≤ |x| < 512: exponent fields 0x3c9..=0x407.
    if abstop.wrapping_sub(0x3c9) >= 0x408 - 0x3c9 {
        return x.exp();
    }
    // x = k·ln2/128 + r with |r| ≤ ln2/256.
    let kd = x.mul_add(EXP_INV_LN2_N, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = kd.mul_add(EXP_NEG_LN2_LO_N, kd.mul_add(EXP_NEG_LN2_HI_N, x));
    // 2^(k/128) ≈ scale·(1 + tail).
    let idx = 2 * (ki % 128) as usize;
    let tail = f64::from_bits(EXP_TABLE[idx]);
    let scale = f64::from_bits(EXP_TABLE[idx + 1].wrapping_add(ki << 45));
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(
        r.mul_add(EXP_C5, EXP_C4),
        r.mul_add(EXP_C3, EXP_C2).mul_add(r2, tail + r),
    );
    scale.mul_add(tmp, scale)
}

// ---- ln -------------------------------------------------------------------

/// ln 2, high part (`0x1.62e42fefa3800p-1`).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fefa_3800);
/// ln 2, low part (`0x1.ef35793c76730p-45`).
const LN2_LO: f64 = f64::from_bits(0x3d2e_f357_93c7_6730);
/// log1p(r) − r ≈ A0·r² + … + A4·r⁶ on the table path.
const LN_A: [f64; 5] = [
    f64::from_bits(0xbfe0_0000_0000_0001),
    f64::from_bits(0x3fd5_5555_5551_305b),
    f64::from_bits(0xbfcf_ffff_ffeb_4590),
    f64::from_bits(0x3fc9_99b3_24f1_0111),
    f64::from_bits(0xbfc5_5575_e506_c89f),
];
/// ln(1 + r) − r ≈ B0·r² + … + B10·r¹² near 1 (B0 = −½).
const LN_B: [f64; 11] = [
    f64::from_bits(0xbfe0_0000_0000_0000),
    f64::from_bits(0x3fd5_5555_5555_5577),
    f64::from_bits(0xbfcf_ffff_ffff_fdcb),
    f64::from_bits(0x3fc9_9999_9995_dd0c),
    f64::from_bits(0xbfc5_5555_5567_45a7),
    f64::from_bits(0x3fc2_4924_a344_de30),
    f64::from_bits(0xbfbf_ffff_a442_3d65),
    f64::from_bits(0x3fbc_7184_282a_d6ca),
    f64::from_bits(0xbfb9_99eb_43b0_68ff),
    f64::from_bits(0x3fb7_8182_f7af_d085),
    f64::from_bits(0xbfb5_5213_75d1_45cd),
];
/// 2²⁷, which splits r into a 26-bit head and its tail.
const TWO_27: f64 = 134_217_728.0;

/// Natural logarithm, equal bit for bit to glibc 2.36's `log` on x86-64 with
/// FMA.
///
/// See the [module documentation](self) for the algorithm and fallback.
/// gis-analyze: no_alloc
#[inline]
pub fn ln(x: f64) -> f64 {
    let ix = x.to_bits();
    // 1 − 2⁻⁴ ≤ x < 1 + 0x1.09p-4: the near-1 polynomial.
    const LO: u64 = 0x3fee_0000_0000_0000;
    const HI: u64 = 0x3ff1_0900_0000_0000;
    if ix.wrapping_sub(LO) < HI - LO {
        if ix == 1f64.to_bits() {
            return 0.0;
        }
        let b = &LN_B;
        let r = x - 1.0;
        let r2 = r * r;
        let r3 = r * r2;
        let p = r3
            .mul_add(b[10], r2.mul_add(b[9], r.mul_add(b[8], b[7])))
            .mul_add(r3, r2.mul_add(b[6], r.mul_add(b[5], b[4])))
            .mul_add(r3, r2.mul_add(b[3], r.mul_add(b[2], b[1])));
        // hi + lo = r − r²/2 in extra precision: rhi keeps the top 26 bits
        // of r, so rhi² is exact.
        let rhi = (-r).mul_add(TWO_27, r.mul_add(TWO_27, r));
        let rlo = r - rhi;
        let rhi2 = rhi * rhi;
        let hi = rhi2.mul_add(b[0], r);
        let lo = rhi2.mul_add(b[0], r - hi);
        let lo = (b[0] * rlo).mul_add(r + rhi, lo);
        return hi + p.mul_add(r3, lo);
    }
    let top = (ix >> 48) as u32;
    // Zero, subnormal, negative (sign bit in `top`), ∞ or NaN.
    if top.wrapping_sub(0x0010) >= 0x7ff0 - 0x0010 {
        return x.ln();
    }
    // x = 2^k·z with z in [0x1.6p-1, 0x1.6p0), in the i-th of 128
    // subintervals, whose centre c has 1/c ≈ invc.
    const OFF: u64 = 0x3fe6_0000_0000_0000;
    let tmp = ix.wrapping_sub(OFF);
    let i = ((tmp >> 45) % 128) as usize;
    let k = ((tmp as i64) >> 52) as i32;
    let z = f64::from_bits(ix.wrapping_sub(tmp & (0xfff << 52)));
    let [invc, logc] = LOG_TABLE[i].map(f64::from_bits);
    // ln x = log1p(r) + ln c + k·ln 2 with r = z/c − 1.
    let r = z.mul_add(invc, -1.0);
    let kd = f64::from(k);
    let w = kd.mul_add(LN2_HI, logc);
    let hi = w + r;
    let lo = kd.mul_add(LN2_LO, w - hi + r);
    let a = &LN_A;
    let r2 = r * r;
    (r * r2).mul_add(
        r.mul_add(a[4], a[3]).mul_add(r2, r.mul_add(a[2], a[1])),
        r2.mul_add(a[0], lo),
    ) + hi
}

// ---- sin_cos --------------------------------------------------------------

/// 1.5·2⁴⁵: adding it rounds |x| to a multiple of 1/128, the table index.
const BIG: f64 = f64::from_bits(0x42c8_0000_0000_0000);
/// Taylor coefficients of sin below 0.126 (S1 = −1/3!, …).
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5555);
const S2: f64 = f64::from_bits(0x3f81_1111_1111_0ece);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19db_08b8);
const S4: f64 = f64::from_bits(0x3ec7_1de2_7b9a_7ed9);
const S5: f64 = f64::from_bits(0xbe5a_ddff_c2fc_df59);
/// sin and cos of the remainder below 1/256, beside the table.
const SN3: f64 = f64::from_bits(0xbfc5_5555_5555_5515);
const SN5: f64 = f64::from_bits(0x3f81_1110_e829_872f);
const CS2: f64 = 0.5;
const CS4: f64 = f64::from_bits(0xbfa5_5555_5555_5535);
const CS6: f64 = f64::from_bits(0x3f56_c16b_edd9_e239);
/// π/2 as a double-double.
const HP0: f64 = std::f64::consts::FRAC_PI_2;
const HP1: f64 = f64::from_bits(0x3c91_a626_3314_5c07);
/// 2/π and 1.5·2⁵², for the quadrant count.
const HPINV: f64 = std::f64::consts::FRAC_2_PI;
const TOINT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// π/2 in four parts (MP1 + MP2 + PP3 + PP4), for the Cody–Waite reduction.
const MP1: f64 = f64::from_bits(0x3ff9_21fb_5800_0000);
const MP2: f64 = f64::from_bits(0xbe4d_de97_3c00_0000);
const PP3: f64 = f64::from_bits(0xbc8c_b3b3_9800_0000);
const PP4: f64 = f64::from_bits(0xbacd_747f_23e3_2ed7);

/// `(sin x, cos x)`, equal bit for bit to glibc 2.36's `sincos` on x86-64
/// with FMA.
///
/// See the [module documentation](self) for the algorithm and fallback.
/// gis-analyze: no_alloc
#[inline]
pub fn sin_cos(x: f64) -> (f64, f64) {
    let k = ((x.to_bits() >> 32) as u32) & 0x7fff_ffff;
    if !(0x3e40_0000..0x4199_21fb).contains(&k) {
        return (x.sin(), x.cos());
    }
    // |x| < 0.855469.
    if k < 0x3feb_6000 {
        return (do_sin(x, 0.0), do_cos(x, 0.0));
    }
    // |x| < 2.426265: the argument is π/2 − |x| as a double-double.
    if k < 0x4003_68fd {
        let y = HP0 - x.abs();
        let a = y + HP1;
        let da = (y - a) + HP1;
        return (do_cos(a, da).copysign(x), do_sin(a, da));
    }
    let (mut a, mut da, n) = reduce_sincos(x);
    // Quadrants 1 and 2 evaluate at −(a + da); do_sin is odd and do_cos
    // even, so this and the swap below select ±sin, ±cos per quadrant.
    if n == 1 || n == 2 {
        a = -a;
        da = -da;
    }
    let s = do_sin(a, da);
    let c = do_cos(a, da);
    let c = if n & 2 == 0 { c } else { -c };
    if n & 1 == 0 {
        (s, c)
    } else {
        (c, s)
    }
}

/// The table row nearest |x|: `(k/128 as u, [sin, sin low, cos, cos low])`.
#[inline(always)]
fn table_row(abs_x: f64) -> (f64, [f64; 4]) {
    let u = BIG + abs_x;
    // The low word of u is round(|x|·128) < 110.
    let k = (u.to_bits() as u32) as usize;
    (u - BIG, SINCOS_TABLE[k].map(f64::from_bits))
}

/// sin(x + dx) for |x| < 0.855469 (IBM's `do_sin`).
#[inline(always)]
fn do_sin(x: f64, dx: f64) -> f64 {
    if x.abs() < 0.126 {
        let xx = x * x;
        let p = S5
            .mul_add(xx, S4)
            .mul_add(xx, S3)
            .mul_add(xx, S2)
            .mul_add(xx, S1);
        let t = p.mul_add(x, -(0.5 * dx)).mul_add(xx, dx);
        return x + t;
    }
    let dx = if x <= 0.0 { -dx } else { dx };
    let (c0, [sn, ssn, cs, ccs]) = table_row(x.abs());
    let y = x.abs() - c0;
    let yy = y * y;
    let s = y + (y * yy).mul_add(yy.mul_add(SN5, SN3), dx);
    let c = dx.mul_add(y, yy * yy.mul_add(CS6, CS4).mul_add(yy, CS2));
    let cor = s.mul_add(cs, (-c).mul_add(sn, s.mul_add(ccs, ssn)));
    (sn + cor).copysign(x)
}

/// cos(x + dx) for |x| < 0.855469 (IBM's `do_cos`).
#[inline(always)]
fn do_cos(x: f64, dx: f64) -> f64 {
    let dx = if x < 0.0 { -dx } else { dx };
    let (c0, [sn, ssn, cs, ccs]) = table_row(x.abs());
    let y = x.abs() - c0 + dx;
    let yy = y * y;
    let s = (y * yy).mul_add(yy.mul_add(SN5, SN3), y);
    let c = yy * yy.mul_add(CS6, CS4).mul_add(yy, CS2);
    let cor = (-s).mul_add(sn, (-cs).mul_add(c, (-s).mul_add(ssn, ccs)));
    cs + cor
}

/// x = n·π/2 + (a + da) with |a| ≤ π/4 (about), for |x| < 105 414 336;
/// returns `(a, da, n mod 4)`.
#[inline(always)]
fn reduce_sincos(x: f64) -> (f64, f64, u32) {
    let t = x.mul_add(HPINV, TOINT);
    let xn = t - TOINT;
    let n = (t.to_bits() as u32) & 3;
    let y = (-xn).mul_add(MP2, (-xn).mul_add(MP1, x));
    let t2 = (-xn).mul_add(PP3, y);
    let db = (-xn).mul_add(PP3, y - t2);
    let b = (-xn).mul_add(PP4, t2);
    let db = db + (-xn).mul_add(PP4, t2 - b);
    (b, db, n)
}
