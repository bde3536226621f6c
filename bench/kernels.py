"""Per-layer kernel microbenchmarks for rings, series, rational and diffops.

Inputs are catalog series that the workloads scan, in the three
ramification indices they use (e = 1 at p = 5, e = 2 at p = 3, e = 4 at
p = 5). Random dense data is avoided on purpose: it makes the e > 1 Pade
sweep explode and measures a case the workloads never reach.

Each kernel's result is checked against a plain reference written here,
over tuples of Fractions with pi^e = -p, before its time counts. The time
reported is the minimum over repeats, in milliseconds.
"""

import time
from fractions import Fraction

from cartier.catalog import SeriesKind, SeriesSpec, build
from cartier.diffops import uniform_part
from cartier.rational import pade_pairs, raw_congruence_check
from cartier.rings import PadicContext

ORDER = 64
PADE_DEG = 8
UNIFORM_ORDER = 32
MIN_REPEATS = 3
MIN_SECONDS = 0.2


# -- plain reference arithmetic on component tuples -------------------------


def _ref_mul(a, b, p):
    e = len(a)
    acc = [Fraction(0)] * e
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j < e:
                    acc[i + j] += x * y
                else:
                    acc[i + j - e] -= p * x * y
    return acc


def _ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _ref_conv(f, g, n, p):
    """First n coefficients of f*g; f and g are lists of component lists."""
    e = len(f[0]) if f else len(g[0])
    out = [[Fraction(0)] * e for _ in range(n)]
    for i in range(min(n, len(f))):
        for j in range(min(n - i, len(g))):
            out[i + j] = _ref_add(out[i + j], _ref_mul(f[i], g[j], p))
    return out


def _ref_inverse(a, p):
    """Field inverse in Q[pi]/(pi^e + p) by Gauss-Jordan on the multiplication matrix."""
    e = len(a)
    if e == 1:
        return [1 / a[0]]
    pi = [Fraction(0)] * e
    pi[1] = Fraction(1)
    cols, power = [], list(a)
    for _ in range(e):
        cols.append(power)
        power = _ref_mul(power, pi, p)
    m = [[cols[j][i] for j in range(e)] + [Fraction(int(i == 0))] for i in range(e)]
    for c in range(e):
        piv = next(r for r in range(c, e) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(e):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return [m[i][e] for i in range(e)]


def _ref_valuation(a, p):
    e = len(a)
    best = None
    for i, c in enumerate(a):
        if c:
            v, num, den = 0, c.numerator, c.denominator
            while num % p == 0:
                num //= p
                v += 1
            while den % p == 0:
                den //= p
                v -= 1
            w = e * v + i
            best = w if best is None else min(best, w)
    return best


def _parts(seq):
    return [list(c.parts) for c in seq]


def _ref_raw_check(num, den, target, m, upto, p):
    e = len(target[0])
    zero = [Fraction(0)] * e
    inv = _ref_inverse(den[0], p)
    out = []
    for n in range(upto):
        s = list(num[n]) if n < len(num) else list(zero)
        for k in range(1, min(n, len(den) - 1) + 1):
            t = _ref_mul(den[k], out[n - k], p)
            s = [x - y for x, y in zip(s, t)]
        value = _ref_mul(inv, s, p)
        out.append(value)
        v = _ref_valuation([x - y for x, y in zip(value, target[n])], p)
        if v is not None and v < m:
            return False
    return True


# -- inputs ----------------------------------------------------------------


def _entry(kind, ctx, order, alphas=None):
    return build(SeriesSpec(kind, ctx, order, alphas=alphas))


def _contexts():
    """e -> (context, series f, series g, congruence level)."""
    half = (Fraction(1, 2), Fraction(1, 2))
    c1 = PadicContext.unramified(5)
    c2 = PadicContext.dwork(3)
    c4 = PadicContext.dwork(5)
    hyp = SeriesKind.HYPERGEOMETRIC
    return {
        1: (c1, _entry(SeriesKind.APERY, c1, ORDER).series, _entry(hyp, c1, ORDER, half).series, 3),
        2: (c2, _entry(SeriesKind.APERY, c2, ORDER).series, _entry(SeriesKind.BESSEL, c2, ORDER).series, 3),
        4: (c4, _entry(hyp, c4, ORDER, half).series, _entry(SeriesKind.BESSEL, c4, ORDER).series, 4),
    }


# -- kernels ---------------------------------------------------------------


class KernelMismatch(AssertionError):
    """A kernel disagreed with its plain reference."""


def _check(cond, what):
    if not cond:
        raise KernelMismatch(what)


def _time_ms(fn):
    best = None
    spent = 0.0
    runs = 0
    while runs < MIN_REPEATS or spent < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        spent += dt
        runs += 1
        best = dt if best is None else min(best, dt)
    return best * 1000.0


def _sweep(src):
    """(window, r, t) for every Pade pair of every window up to degree PADE_DEG."""
    return [(w, r, t) for w in range(1, 2 * PADE_DEG + 2) for r, t in pade_pairs(src, w)]


def run_kernels():
    """Return {metric name: milliseconds}; raises KernelMismatch on a wrong result."""
    out = {}
    for e, (ctx, f, g, level) in _contexts().items():
        p = ctx.prime
        tag = f"e{e}_ms"
        fp, gp = _parts(f.coeffs), _parts(g.coeffs)

        prod = f * g
        _check(_parts(prod.coeffs) == _ref_conv(fp, gp, ORDER, p), f"series mul e={e}")
        out[f"kernel.series_mul_n64.{tag}"] = _time_ms(lambda: f * g)

        inv = g.invert_unit()
        one = _ref_conv(gp, _parts(inv.coeffs), ORDER, p)
        unit = [[Fraction(int(n == 0 and i == 0)) for i in range(e)] for n in range(ORDER)]
        _check(one == unit, f"series invert e={e}")
        out[f"kernel.series_invert_n64.{tag}"] = _time_ms(g.invert_unit)

        sweep = _sweep(f)
        for w, r, t in sweep:
            lhs = _ref_conv(_parts(t.coeffs), fp, w, p)
            rhs = _parts(r.coeffs)[:w] + [[Fraction(0)] * e] * (w - len(r.coeffs))
            _check(lhs == rhs, f"pade pair e={e} window={w}")
        out[f"kernel.pade_sweep.{tag}"] = _time_ms(lambda: _sweep(f))

        usable = [(r, t) for _, r, t in sweep if not t.constant_term().is_zero()]
        for r, t in usable:
            want = _ref_raw_check(_parts(r.coeffs), _parts(t.coeffs), fp, level, ORDER, p)
            _check(raw_congruence_check(r, t, f, level, ORDER) == want, f"raw verify e={e}")
        out[f"kernel.raw_verify.{tag}"] = _time_ms(
            lambda: [raw_congruence_check(r, t, f, level, ORDER) for r, t in usable]
        )

    for e, (kind, ctx) in {
        1: (SeriesKind.APERY, PadicContext.unramified(5)),
        2: (SeriesKind.BESSEL, PadicContext.dwork(3)),
    }.items():
        A = _entry(kind, ctx, UNIFORM_ORDER).operator.companion().truncate(UNIFORM_ORDER)
        Y = uniform_part(A, UNIFORM_ORDER)
        _check(_uniform_identity_holds(A, Y, ctx.prime), f"uniform part e={e}")
        out[f"kernel.uniform_part.e{e}_ms"] = _time_ms(lambda: uniform_part(A, UNIFORM_ORDER))
    return out


def _uniform_identity_holds(A, Y, p):
    """delta Y = A Y - Y A(0), coefficientwise, in plain arithmetic."""
    n, order = A.size, Y.order
    a = [[_parts(A.entry(i, j).coeffs) for j in range(n)] for i in range(n)]
    y = [[_parts(Y.entry(i, j).coeffs) for j in range(n)] for i in range(n)]
    a0 = [[[a[i][j][0]] for j in range(n)] for i in range(n)]
    for i in range(n):
        for c in range(n):
            rhs = [[Fraction(0)] * len(a[0][0][0]) for _ in range(order)]
            for k in range(n):
                ay = _ref_conv(a[i][k], y[k][c], order, p)
                ya = _ref_conv(y[i][k], a0[k][c], order, p)
                rhs = [_ref_add(s, [u - v for u, v in zip(x, z)]) for s, x, z in zip(rhs, ay, ya)]
            lhs = [[j * x for x in y[i][c][j]] for j in range(order)]
            if lhs != rhs:
                return False
    return True
