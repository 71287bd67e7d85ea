/* The kernel arithmetic of sliarith: every step from operand zetas to the
 * unrounded zeta that core._materialize and lanes._materialize_lanes
 * round.  One source for the scalar ops, which call it one value at a
 * time, and for sliarith.lanes, which call the *_lanes loops over
 * contiguous arrays.  Built by sliarith._kernel with -ffp-contract=off
 * and against the libm that Python's math module calls, so each
 * function gives the binary64 of the same steps written with math.exp
 * and math.log, bit for bit.
 *
 * A function whose input is outside its domain returns NaN, which no
 * valid input produces; the Python callers turn it into ValueError.  A
 * lane loop stops at such a lane and returns its index, else -1.
 */

#include <math.h>
#include <stddef.h>

/* math.exp overflows binary64 just above this argument. */
#define EXP_MAX_ARG 709.782712893384
/* Unit roundoff of binary64. */
#define U 0x1p-53
/* Descriptors must lie below this level count, so that level and rung
 * indices count exactly in binary64. */
#define LEVEL_CAP 0x1p52
/* A reciprocal ladder has at most four nonzero rungs: from a_top <= 1,
 * a_{j-1} = exp(-1/a_j) gives at most e**-1, e**-e and 2.6e-7, and the
 * next one is +0.  Every rung below the last nonzero one is +0 too. */
#define RUNGS 6

/* Generalized exponential phi(zeta) as v raised through *left more
 * exps: the index of zeta, exact in binary64, exponentiated once per
 * level while the argument stays at or below EXP_MAX_ARG. */
static double peel(double zeta, double *left)
{
    double levels = trunc(zeta), v = zeta - levels;
    while (levels > 0.0 && v <= EXP_MAX_ARG) {
        v = exp(v);
        levels -= 1.0;
    }
    *left = levels;
    return v;
}

/* phi, for finite zeta >= 0; inf once the tower leaves binary64. */
double phi(double zeta)
{
    double left;
    if (!(zeta >= 0.0 && zeta < INFINITY))
        return NAN;
    double v = peel(zeta, &left);
    return left > 0.0 ? INFINITY : v;
}

/* Base-10 logarithm of phi(zeta), finite past binary64's range: with one
 * level left phi is e**v, whose log10 is v / ln 10, and with two it is
 * e**(e**v), whose log10 is e**(v - ln ln 10).  -inf for zeta = 0, inf
 * once the log10 itself leaves binary64. */
double log_phi10(double zeta)
{
    double left;
    if (!(zeta >= 0.0 && zeta < INFINITY))
        return NAN;
    double v = peel(zeta, &left);
    if (left == 0.0)
        return v != 0.0 ? log10(v) : -INFINITY;
    if (left == 1.0)
        return v / log(10.0);
    double w = v - log(log(10.0));
    return left == 2.0 && w <= EXP_MAX_ARG ? exp(w) : INFINITY;
}

/* Inverse of phi, for finite v >= 0: psi(v) = v below one, else
 * 1 + psi(ln v). */
double psi(double v)
{
    double level = 0.0;
    if (!(v >= 0.0 && v < INFINITY))
        return NAN;
    while (v >= 1.0) {
        v = log(v);
        level += 1.0;
    }
    return level + v;
}

/* The zeta of a finite magnitude a >= 0: psi(a) from one up, and
 * 1 + psi(-ln a), psi(1/a) without forming 1/a (which overflows for
 * subnormal a), below it; 0 for a = 0. */
double encode_zeta(double a)
{
    if (a == 0.0)
        return 0.0;
    return a >= 1.0 ? psi(a) : 1.0 + psi(-log(a));
}

/* The reciprocal ladder of zeta_x >= 1, a_j = 1/phi(zeta_x - j) for the
 * levels j below lev = trunc(zeta_x), from the top down: rung[i] holds
 * a_{lev-1-i} for i < the count returned, and the rungs below are +0. */
static int rungs(double zeta_x, double lev, double *rung)
{
    int n = 0;
    double a_j = exp(-(zeta_x - lev));
    while (a_j > 0.0 && n < lev && n < RUNGS) {
        rung[n++] = a_j;
        a_j = exp(-1.0 / a_j);
    }
    return n;
}

/* a_j of the ladder of rungs() that filled rung with n rungs. */
static double rung_at(const double *rung, int n, double lev, double j)
{
    double i = lev - 1.0 - j;
    return i < n ? rung[(int)i] : 0.0;
}

/* b_0 = phi(zeta_y)/phi(zeta_x) for 0 <= zeta_y <= zeta_x, Y's ratio
 * ladder against the rungs of X: b_{m-1} = a_{m-1} e**g for zeta_y =
 * m + g, then b_{j-1} = exp(-(1 - b_j)/a_j).  Below a +0 rung b is 1
 * where 1 - b <= 0 and 0 otherwise, and stays so. */
static double ratio(const double *rung, int n, double lev, double zeta_y)
{
    double m = trunc(zeta_y), g = zeta_y - m;
    if (m == 0.0)
        return rung_at(rung, n, lev, 0.0) * g;
    double b = rung_at(rung, n, lev, m - 1.0) * exp(g);
    for (double j = m - 1.0; j > 0.0; j--) {
        double d = 1.0 - b, a_j = rung_at(rung, n, lev, j);
        if (d <= 0.0)
            b = 1.0;
        else if (a_j <= 0.0)
            b = 0.0;
        else
            b = exp(-d / a_j);
        if (a_j == 0.0) /* so is every rung below: b stays */
            break;
    }
    return b;
}

/* Magnitude add/subtract on generalized descriptors, arith.li_add_sub:
 * for finite zeta_x >= zeta_y >= 0, or with reciprocal_y for finite
 * zeta_x >= 1 and zeta_y > 1, Y being 1/phi(zeta_y), fed as the raw
 * descriptor a_0 of its own ladder.  The result against X is
 * c_0 = 1 +/- b_0, c_j = 1 + a_j ln c_{j-1}, up the levels of X until
 * some c_j < a_j, where the result is j + c_j/a_j; past the top level
 * it is lev + psi(f + ln c_{lev-1}). */
double li_add_sub(double zeta_x, double zeta_y, int subtract, int reciprocal_y)
{
    double rung[RUNGS];
    if (reciprocal_y) {
        if (!(1.0 <= zeta_x && zeta_x < LEVEL_CAP && 1.0 < zeta_y && zeta_y < LEVEL_CAP))
            return NAN;
        double lev_y = trunc(zeta_y);
        zeta_y = rung_at(rung, rungs(zeta_y, lev_y, rung), lev_y, 0.0);
    } else if (!(0.0 <= zeta_y && zeta_y <= zeta_x && zeta_x < LEVEL_CAP)) {
        return NAN;
    }
    if (subtract && zeta_x == zeta_y)
        /* The ladder computes b_0 = 1 only up to roundoff; equal
         * descriptors must cancel exactly. */
        return 0.0;
    double lev = trunc(zeta_x), f = zeta_x - lev;
    if (lev == 0.0)
        /* Both magnitudes are raw values below one. */
        return psi(subtract ? zeta_x - zeta_y : zeta_x + zeta_y);

    int n = rungs(zeta_x, lev, rung);
    double b = ratio(rung, n, lev, zeta_y);
    double c = subtract ? 1.0 - b : 1.0 + b, log_c = 0.0;
    for (double j = 0.0; j < lev; j++) {
        double a_j = rung_at(rung, n, lev, j);
        if (j > 0.0)
            c = 1.0 + a_j * log_c;
        if (c <= 0.0)
            /* phi(zeta_z - j) is 1 on the nose (or full cancellation at
             * j = 0); roundoff cannot sit below this. */
            return j;
        if (c < a_j)
            return j + c / a_j;
        log_c = log(c);
        if (a_j == 0.0 && j + 1.0 < lev - n) {
            /* On the +0 rungs above this one c is 1 and ln c is 0. */
            j = lev - n - 1.0;
            log_c = 0.0;
        }
    }
    double h = f + log_c;
    if (h < 0.0) /* roundoff below the a_{lev-1} <= c guarantee */
        h = 0.0;
    /* psi(h), inline: h < 1 + ln 2 (c <= 2), so it takes at most one log. */
    return lev + (h < 1.0 ? h : 1.0 + log(h));
}

/* Magnitude multiply/divide on descriptors >= 1, arith.li_mul_div:
 * ln phi(zeta) = phi(zeta - 1), so the product is the sum of the
 * descriptors shifted down by one, and the quotient, or its reciprocal
 * where zeta_x < zeta_y, their difference.  li_add_sub's domain check on
 * the shifted pair is this kernel's. */
double li_mul_div(double zeta_x, double zeta_y, int divide)
{
    if (zeta_x < zeta_y)
        return li_add_sub(zeta_y - 1.0, zeta_x - 1.0, divide, 0) + 1.0;
    return li_add_sub(zeta_x - 1.0, zeta_y - 1.0, divide, 0) + 1.0;
}

/* A sum or difference of two magnitudes below one, |big| = 1/phi(zeta_b)
 * and |small| = 1/phi(zeta_s), zeta_b <= zeta_s: with r = phi(zeta_b)/
 * phi(zeta_s), b_0 of zeta_b against zeta_s, |big| +/- |small| is
 * (1 +/- r)/phi(zeta_b), and this returns psi(|ln(1 +/- r)|).  Distinct
 * words give r below 1 - 5e-8 up to 24 index bits, but 1 - r is kept
 * > 0, so that a difference is never zero. */
double ratio_log(double zeta_b, double zeta_s, int subtract)
{
    double rung[RUNGS], lev = trunc(zeta_s);
    double r = ratio(rung, rungs(zeta_s, lev, rung), lev, zeta_b);
    return psi(subtract ? -log1p(-fmin(r, 1.0 - U)) : log1p(r));
}

void phi_lanes(size_t n, const double *zeta, double *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = phi(zeta[i]);
}

void log_phi10_lanes(size_t n, const double *zeta, double *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = log_phi10(zeta[i]);
}

void encode_zeta_lanes(size_t n, const double *a, double *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = encode_zeta(a[i]);
}

void ratio_log_lanes(size_t n, const double *zeta_b, const double *zeta_s,
                     const _Bool *subtract, double *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = ratio_log(zeta_b[i], zeta_s[i], subtract[i]);
}

ptrdiff_t li_add_sub_lanes(size_t n, const double *zeta_x, const double *zeta_y,
                           const _Bool *subtract, const _Bool *reciprocal_y, double *out)
{
    for (size_t i = 0; i < n; i++) {
        out[i] = li_add_sub(zeta_x[i], zeta_y[i], subtract[i], reciprocal_y[i]);
        if (isnan(out[i]))
            return (ptrdiff_t)i;
    }
    return -1;
}

ptrdiff_t li_mul_div_lanes(size_t n, const double *zeta_x, const double *zeta_y,
                           const _Bool *divide, double *out)
{
    for (size_t i = 0; i < n; i++) {
        out[i] = li_mul_div(zeta_x[i], zeta_y[i], divide[i]);
        if (isnan(out[i]))
            return (ptrdiff_t)i;
    }
    return -1;
}
