#!/usr/bin/env python3
"""Generates src/common/refmath_tables.inc, the constant tables of refmath.

Every value is computed in Python's `decimal` at 80 significant digits and
rounded once to the nearest double, so the tables are reproducible on any
host and owe nothing to a C library.

    python3 tools/gen_refmath_tables.py            # rewrite the .inc
    python3 tools/gen_refmath_tables.py --check    # exit 1 if it is stale

Tables (src/common/refmath.cpp explains how each is used):
  * exp:  2^(i/128) = H_i (1 + tail_i), stored as tail_i and the bits of H_i
          less i << 45, so adding k << 45 for k = 128 q + i gives 2^q H_i;
  * log:  128 subintervals of [z0, 2 z0) in bit space, the one holding 1.0
          centred on it; per interval invc (20 fraction bits, 1 exactly
          for the interval of 1.0) and log(1/invc) split into a hi part on
          the 2^-42 grid (so k ln2_hi + logc_hi is exact) and a lo part;
  * j0:   Taylor coefficients of J0 about j + 1/2 for j = 0..31, from the
          Bessel ODE's recurrence, and the Hankel asymptotic series P, Q
          in 1/x^2 for x >= 32;
  * the split constants of ln 2, 1/ln 2, 1/ln 10 and pi/2.
"""
import argparse
import decimal
import os
import struct
import sys
from decimal import Decimal as D

decimal.getcontext().prec = 80

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "common", "refmath_tables.inc")

EXP_BITS = 7
LOG_BITS = 7
J0_INTERVALS = 32
J0_DEGREE = 16
J0_ASYM_TERMS = 12  # terms of P and of Q


def pi():
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239).
    def atan_inv(n):
        x = D(1) / n
        x2 = x * x
        term, total, k = x, x, 1
        while True:
            term *= -x2
            nxt = total + term / (2 * k + 1)
            if nxt == total:
                return total
            total, k = nxt, k + 1
    return 16 * atan_inv(5) - 4 * atan_inv(239)


PI = pi()
LN2 = D(2).ln()
LN10 = D(10).ln()


def f64(x):
    """Nearest double (Python's float(str) rounds correctly)."""
    return float(x)


def exact(x):
    return D(x)  # Decimal(float) is exact


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b & (2**64 - 1)))[0]


def round_to_grid(x, quantum):
    return (x / quantum).to_integral_value(rounding=decimal.ROUND_HALF_EVEN) * quantum


def split(x, sig_bits):
    """Nearest double to x with at most sig_bits significant bits."""
    e = x.copy_abs().ln() / LN2
    e = int(e.to_integral_value(rounding=decimal.ROUND_FLOOR))
    quantum = D(2) ** (e - sig_bits + 1)
    return f64(round_to_grid(x, quantum))


def lit(x):
    return "0x0p+0" if x == 0 else float.hex(x)


def exp_tables():
    n = 1 << EXP_BITS
    tails, sbits = [], []
    for i in range(n):
        t = (LN2 * i / n).exp()
        h = f64(t)
        tails.append(f64((t - exact(h)) / exact(h)))
        sbits.append((bits(h) - (i << (52 - EXP_BITS))) & (2**64 - 1))
    return tails, sbits


def log_tables():
    n = 1 << LOG_BITS
    width = 1 << (52 - LOG_BITS)
    one = bits(1.0)
    # Place 1.0 at the centre of an interval, with z0 near sqrt(1/2).
    target = bits(float(D("0.5").sqrt()))
    m = round((one - width // 2 - target) / width)
    off = one - width // 2 - m * width
    quantum = D(2) ** -42
    invc, hi, lo = [], [], []
    for i in range(n):
        z_lo = exact(from_bits(off + i * width))
        z_hi = exact(from_bits(off + (i + 1) * width))
        if i == m:
            c_inv = D(1)
        else:
            c_inv = round_to_grid(2 / (z_lo + z_hi), D(2) ** -20)
        logc = -c_inv.ln()
        h = round_to_grid(logc, quantum)
        invc.append(f64(c_inv))
        hi.append(f64(h))
        lo.append(f64(logc - h))
    return off, m, invc, hi, lo


def bessel_j(order, x):
    """J_order(x) by its power series, in decimal."""
    q = -(x * x) / 4
    term = D(1)
    for _ in range(order):
        term *= x / 2
    for k in range(1, order + 1):
        term /= k
    total, k = term, 0
    while True:
        k += 1
        term = term * q / (k * (k + order))
        nxt = total + term
        if nxt == total and k > 5:
            return total
        total = nxt


def j0_taylor():
    rows = []
    for j in range(J0_INTERVALS):
        c = D(j) + D("0.5")
        a = [bessel_j(0, c), -bessel_j(1, c)]
        prev = D(0)
        for m in range(J0_DEGREE - 1):
            am1 = a[m - 1] if m >= 1 else prev
            nxt = -((m + 1) ** 2 * a[m + 1] + c * a[m] + am1) / (c * (m + 2) * (m + 1))
            a.append(nxt)
        rows.append([f64(v) for v in a])
    return rows


def j0_asymptotic():
    # a_k = prod_{j<=k} (2j-1)^2 / (k! 8^k), the Hankel coefficients of J0 up
    # to sign: P = sum (-1)^k a_2k u^k, Q x = sum (-1)^k a_2k+1 u^k with
    # u = 1/x^2, and J0 = sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)).
    a = [D(1)]
    for k in range(1, 2 * J0_ASYM_TERMS + 1):
        a.append(a[-1] * (2 * k - 1) ** 2 / (k * 8))
    p = [f64((-1) ** k * a[2 * k]) for k in range(J0_ASYM_TERMS)]
    q = [f64((-1) ** (k + 1) * a[2 * k + 1]) for k in range(J0_ASYM_TERMS)]
    return p, q


def generate():
    tails, sbits = exp_tables()
    off, one_index, invc, hi, lo = log_tables()
    taylor = j0_taylor()
    p, q = j0_asymptotic()

    ln2_hi = f64(round_to_grid(LN2, D(2) ** -42))
    ln2_lo = f64(LN2 - exact(ln2_hi))
    n_exp = 1 << EXP_BITS
    neg_ln2_hi_n = -split(LN2 / n_exp, 35)
    neg_ln2_lo_n = f64(-(LN2 / n_exp) - exact(neg_ln2_hi_n))
    inv_ln2 = 1 / LN2
    inv_ln2_hi = split(inv_ln2, 32)
    inv_ln10 = 1 / LN10
    inv_ln10_hi = split(inv_ln10, 32)
    pio2 = PI / 2
    pio2_parts = []
    rest = pio2
    for sig in (33, 33, 33):
        part = split(rest, sig)
        pio2_parts.append(part)
        rest -= exact(part)
    pio2_parts.append(f64(rest))

    out = []
    w = out.append
    w("// Generated by tools/gen_refmath_tables.py from Python decimal arithmetic;")
    w("// do not edit.  Included by src/common/refmath.cpp inside its detail")
    w("// namespace.")
    w("")
    w(f"constexpr int kExpBits = {EXP_BITS};")
    w(f"constexpr int kLogBits = {LOG_BITS};")
    w(f"constexpr std::uint64_t kLogOffset = {off:#018x}ULL;")
    w(f"constexpr int kLogIndexOfOne = {one_index};")
    w(f"constexpr int kJ0Intervals = {J0_INTERVALS};")
    w(f"constexpr int kJ0Degree = {J0_DEGREE};")
    w(f"constexpr int kJ0AsymTerms = {J0_ASYM_TERMS};")
    w("")
    w(f"constexpr double kLn2 = {lit(f64(LN2))};")
    w(f"constexpr double kLn2Hi = {lit(ln2_hi)};  // on the 2^-42 grid")
    w(f"constexpr double kLn2Lo = {lit(ln2_lo)};")
    w(f"constexpr double kInvLn2 = {lit(f64(inv_ln2))};")
    w(f"constexpr double kInvLn2Hi = {lit(inv_ln2_hi)};  // 32 bits")
    w(f"constexpr double kInvLn2Lo = {lit(f64(inv_ln2 - exact(inv_ln2_hi)))};")
    w(f"constexpr double kInvLn10 = {lit(f64(inv_ln10))};")
    w(f"constexpr double kInvLn10Hi = {lit(inv_ln10_hi)};  // 32 bits")
    w(f"constexpr double kInvLn10Lo = {lit(f64(inv_ln10 - exact(inv_ln10_hi)))};")
    w(f"constexpr double kInvLn2N = {lit(f64(n_exp / LN2))};  // 128 / ln 2")
    w(f"constexpr double kNegLn2HiN = {lit(neg_ln2_hi_n)};  // 35 bits")
    w(f"constexpr double kNegLn2LoN = {lit(neg_ln2_lo_n)};")
    w(f"constexpr double kInvPio2 = {lit(f64(2 / PI))};")
    for k, part in enumerate(pio2_parts, 1):
        note = "  // 33 bits" if k < 4 else ""
        w(f"constexpr double kPio2_{k} = {lit(part)};{note}")
    w(f"constexpr double kInvSqrtPi = {lit(f64(1 / PI.sqrt()))};")
    w("")
    w("alignas(64) constexpr double kExpTail[128] = {")
    for i in range(0, len(tails), 4):
        w("    " + ", ".join(lit(v) for v in tails[i:i + 4]) + ",")
    w("};")
    w("alignas(64) constexpr std::uint64_t kExpScaleBits[128] = {")
    for i in range(0, len(sbits), 4):
        w("    " + ", ".join(f"{v:#018x}ULL" for v in sbits[i:i + 4]) + ",")
    w("};")
    for name, vals in (("kLogInvC", invc), ("kLogCHi", hi), ("kLogCLo", lo)):
        w(f"alignas(64) constexpr double {name}[128] = {{")
        for i in range(0, len(vals), 4):
            w("    " + ", ".join(lit(v) for v in vals[i:i + 4]) + ",")
        w("};")
    w("")
    w("// J0(j + 1/2 + t) = sum_n kJ0Taylor[j][n] t^n, |t| <= 1/2.")
    w(f"constexpr double kJ0Taylor[{J0_INTERVALS}][{J0_DEGREE + 1}] = {{")
    for row in taylor:
        w("    {")
        for i in range(0, len(row), 3):
            w("        " + ", ".join(lit(v) for v in row[i:i + 3]) + ",")
        w("    },")
    w("};")
    w("// Hankel series of J0 for x >= 32 in u = 1/x^2.")
    w(f"constexpr double kJ0P[{J0_ASYM_TERMS}] = {{")
    for i in range(0, len(p), 3):
        w("    " + ", ".join(lit(v) for v in p[i:i + 3]) + ",")
    w("};")
    w(f"constexpr double kJ0Q[{J0_ASYM_TERMS}] = {{")
    for i in range(0, len(q), 3):
        w("    " + ", ".join(lit(v) for v in q[i:i + 3]) + ",")
    w("};")
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file instead of writing")
    args = parser.parse_args()
    text = generate()
    if args.check:
        with open(OUT) as f:
            if f.read() != text:
                print("refmath_tables.inc is stale; rerun the generator",
                      file=sys.stderr)
                return 1
        return 0
    with open(OUT, "w") as f:
        f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
