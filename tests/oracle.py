"""Plain references for the tests, and the inputs that more than one test
module shares.

Each reference spells an operation out the slow way: on the Coefficient
view, by the field Euclid, by a dense solve or by enumeration, independent
of the integer-row kernels it checks. Test modules import from here; none
imports another.
"""

import itertools
import math
from fractions import Fraction

from cartier import NotInK0, PadicContext, ReconstructionFailed
from cartier.diffops import SeriesMatrix
from cartier.rational import (
    Polynomial,
    RationalFunction,
    VERIFY_FAIL,
    VERIFY_NOT_K0,
    VERIFY_OK,
    canonical_lift,
    congruence_outcome,
    pade_pairs,
    product_congruence_outcome,
)
from cartier.rings import INF
from cartier.series import TruncSeries


# -- Closed-form series, straight from their defining formulas, independent
# of any builder or operator.

def geometric(ctx, order):
    return TruncSeries.from_coeffs(ctx, [1] * order)


def half_series(ctx, order):
    # (1-z)^(-1/2) = sum C(2n,n)/4^n z^n
    return TruncSeries.from_coeffs(
        ctx, [Fraction(math.comb(2 * n, n), 4**n) for n in range(order)]
    )


def gauss_coefficients(count):
    # 2F1(1/2,1/2;1;z) = sum ((1/2)_n / n!)^2 z^n = sum (C(2n,n)/4^n)^2 z^n
    return [Fraction(math.comb(2 * n, n), 4**n) ** 2 for n in range(count)]


def apery_numbers(count):
    return [
        sum(
            math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2
            for k in range(n + 1)
        )
        for n in range(count)
    ]


def apery_series(ctx, order):
    return TruncSeries.from_coeffs(ctx, apery_numbers(order))


def digit_sum(n, base):
    s = 0
    while n:
        s += n % base
        n //= base
    return s


# -- Text: the canonical rendering on Fractions.

def ref_render(parts):
    """The canonical text of sum_i parts[i] pi^i, parts Fractions, written
    term by term on the Fractions."""
    pieces = []
    for i, c in enumerate(parts):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "pi" if mag == 1 else f"{mag}*pi"
        else:
            body = f"pi^{i}" if mag == 1 else f"{mag}*pi^{i}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


# -- Random inputs with the features the row kernels must get right.

# e = 1, 2 and 4
KERNEL_CONTEXTS = [PadicContext.unramified(5), PadicContext.dwork(3), PadicContext.dwork(5)]
SHAPES = ("dense", "zero-run", "zero-component", "pi-divisible")


def random_coeff(rng, ctx):
    """Nonzero in most draws; denominators include p, so not all integral."""
    if rng.random() < 0.2:
        return ctx.zero()
    dens = (1, 1, 2, 3, ctx.prime, ctx.prime**2)
    return ctx.coeff([Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(ctx.e)])


def shaped_series(rng, ctx, order, shape):
    """A random series with one of the features the kernel must get right:
    a run of zero coefficients, a pi-component that vanishes throughout
    (the last one; at e = 1 that is the whole series, so there it is the
    odd coefficients), or every coefficient divisible by pi."""
    coeffs = [random_coeff(rng, ctx) for _ in range(order)]
    if shape == "zero-run" and order > 2:
        lo = rng.randrange(order - 1)
        hi = rng.randrange(lo + 1, order + 1)
        coeffs[lo:hi] = [ctx.zero()] * (hi - lo)
    elif shape == "zero-component":
        if ctx.e == 1:
            coeffs[1::2] = [ctx.zero()] * len(coeffs[1::2])
        else:
            coeffs = [ctx.coeff(c.parts[:-1]) for c in coeffs]
    elif shape == "pi-divisible":
        coeffs = [c * ctx.pi() for c in coeffs]
    return TruncSeries(tuple(coeffs), ctx)


# -- The series kernel and products of powers, as Coefficient loops.

def ref_mul(f, g):
    n = min(f.order, g.order)
    out = [f.ctx.zero()] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + f[i] * g[j]
    return TruncSeries(tuple(out), f.ctx)


def ref_invert_unit(f):
    inv0 = f[0].inverse()
    out = [inv0]
    for n in range(1, f.order):
        s = f.ctx.zero()
        for k in range(1, n + 1):
            s = s + f[k] * out[n - k]
        out.append(-inv0 * s)
    return TruncSeries(tuple(out), f.ctx)


def ref_product(fs, exps):
    """prod f_i^(a_i) by repeated products with f_i or its inverse."""
    order = min(f.order for f in fs)
    acc = TruncSeries.one(fs[0].ctx, order)
    for f, a in zip(fs, exps):
        if a == 0:
            continue
        f = f.truncate(order)
        factor = f if a > 0 else f.invert_unit()
        for _ in range(abs(a)):
            acc = acc * factor
    return acc


# -- Field Euclid on Coefficient polynomials, the exact quotient stream, the
# verification outcome, and enumeration of the certificate filter's t.

def poly_divmod(a, b):
    """Euclidean division of a by b over the field."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    lead_inv = b.coeffs[-1].inverse()
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return Polynomial.zero(a.ctx), a
    quot = [a.ctx.zero()] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + b.degree] * lead_inv
        if not c.is_zero():
            quot[k] = c
            for j, x in enumerate(b.coeffs):
                rem[k + j] = rem[k + j] - c * x
    return Polynomial.from_coeffs(a.ctx, quot), Polynomial.from_coeffs(a.ctx, rem)


def poly_gcd(a, b):
    """Monic gcd by Euclid over the field."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero():
        return a
    return a.scale(a.coeffs[-1].inverse())


def make_oracle(num, den):
    """RationalFunction.make by the field Euclid: divide out the monic gcd."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if not num.is_zero():
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    c = next(x for x in den.coeffs if not x.is_zero()).inverse()
    return RationalFunction(num.scale(c), den.scale(c))


def prefix_poly(f, upto):
    """The polynomial of f's first upto coefficients."""
    return Polynomial.from_rows(f.ctx, f.den, [row[:upto] for row in f.rows])


def euclid_pairs(f, window):
    """Extended Euclid on (z^window, f mod z^window) over the field."""
    ctx = f.ctx
    r_prev = Polynomial.monomial(ctx, window)
    r_cur = prefix_poly(f, window)
    t_prev, t_cur = Polynomial.zero(ctx), Polynomial.one(ctx)
    if r_cur.is_zero():
        yield r_cur, t_cur
        return
    while not r_cur.is_zero():
        yield r_cur, t_cur
        q, rem = poly_divmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, rem
        t_prev, t_cur = t_cur, t_prev - q * t_cur


def ref_gauss_valuation(poly):
    return min((c.valuation() for c in poly.coeffs), default=INF)


def ref_no_roots(b):
    if b.is_zero() or b[0].is_zero():
        return False
    return all(c.valuation() >= b[0].valuation() for c in b.coeffs)


def ref_stream(num, den, upto):
    """The first upto Taylor coefficients of num/den from den * S = num."""
    inv = den[0].inverse()
    out = []
    for n in range(upto):
        s = num[n]
        for k in range(1, min(n, den.degree) + 1):
            s = s - den[k] * out[n - k]
        out.append(inv * s)
    return out


def exact_congruent(num, den, target, m, upto):
    """num/den expanded exactly and compared with target mod pi^m."""
    head = ref_stream(num, den, upto)
    return all((x - target[n]).valuation() >= m for n, x in enumerate(head))


def ref_outcome(cand, mult, target, m, upto, require_norm_one):
    """congruence_outcome (mult None) and product_congruence_outcome as
    Coefficient streams: the outcome, and the least valuation of the
    residual coefficients (None for a pole at 0)."""
    ctx = cand.den.ctx
    if cand.den[0].is_zero():
        return VERIFY_FAIL, None
    head = ref_stream(cand.num, cand.den, upto)
    vals = []
    for j in range(upto):
        s = head[j]
        if mult is not None:
            s = sum((head[i] * mult[j - i] for i in range(j + 1)), ctx.zero())
        vals.append((s - target[j]).valuation())
    resid = min(vals, default=INF)
    if any(v < m for v in vals):
        return VERIFY_FAIL, resid
    if require_norm_one and ref_gauss_valuation(cand.num) - ref_gauss_valuation(cand.den) != 0:
        return VERIFY_FAIL, resid
    if not ref_no_roots(cand.den):
        return VERIFY_NOT_K0, resid
    return VERIFY_OK, resid


def brute_force_feasible(g, m, a, b):
    """Enumerate t_1..t_b over O_K/pi^m (component i mod p^ceil((m-i)/e)) and
    test coefficients a+1 .. upto-1 of t*g."""
    ctx, upto = g.ctx, g.order
    e, p = ctx.e, ctx.prime
    digits = [range(p ** max(0, -((i - m) // e))) for i in range(e)]
    elements = list(itertools.product(*digits))
    for ts in itertools.product(elements, repeat=b):
        rows = [[int(i == 0)] + [t[i] for t in ts] + [0] * (upto - b - 1) for i in range(e)]
        s = TruncSeries.from_rows(ctx, 1, rows) * g
        if all(s.coefficient(n).valuation() >= m for n in range(a + 1, upto)):
            return True
    return False


# -- The matrix operations as Coefficient loops; uniform_part is checked
# against a dense n^2 x n^2 solve of its Sylvester equation, independent of
# the Neumann sum it uses.

def ref_matmul(a, b):
    n = a.size
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ref_mul(a.entry(i, 0), b.entry(0, j))
            for k in range(1, n):
                acc = acc + ref_mul(a.entry(i, k), b.entry(k, j))
            row.append(acc)
        rows.append(row)
    return SeriesMatrix.from_rows(rows)


def ref_companion(L):
    """The companion of L built entry by entry from TruncSeries: ones on
    the superdiagonal, (-a_n, .., -a_1) in the last row."""
    n, ctx, order = L.order, L.ctx, L.series_order
    rows = [
        [TruncSeries.one(ctx, order) if j == i + 1 else TruncSeries.zero(ctx, order)
         for j in range(n)]
        for i in range(n - 1)
    ]
    rows.append([-L.coeffs[n - 1 - j].truncate(order) for j in range(n)])
    return SeriesMatrix.from_rows(rows)


def ref_matmul_const(a, c):
    n = a.size
    return SeriesMatrix.from_rows(
        [[sum((a.entry(i, k) * c[k][j] for k in range(1, n)), a.entry(i, 0) * c[0][j])
          for j in range(n)] for i in range(n)]
    )


def const_ints(c, ctx):
    """(den, vec) of a constant Coefficient matrix, as constant_ints gives it."""
    return SeriesMatrix.from_rows([[TruncSeries((x,), ctx) for x in row] for row in c]).constant_ints()


def const_product(a, b, ctx):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), ctx.zero()) for j in range(n)]
        for i in range(n)
    ]


def ref_solve(matrix, rhs):
    """Gauss-Jordan over Coefficients."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if not a[r][col].is_zero())
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col].inverse()
        a[col] = [inv * x for x in a[col]]
        for r in range(n):
            if r != col:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def series_matrix_from_coefficients(xs, ctx):
    n = len(xs[0])
    return SeriesMatrix.from_rows(
        [[TruncSeries(tuple(x[i][c] for x in xs), ctx) for c in range(n)] for i in range(n)]
    )


def ref_invert_series(m):
    n, ctx = m.size, m.ctx
    unit = lambda j: [ctx.coeff(int(i == j)) for i in range(n)]
    cols = [ref_solve(m.constant_matrix(), unit(j)) for j in range(n)]
    inv0 = [[cols[j][i] for j in range(n)] for i in range(n)]
    xs = [inv0]
    for j in range(1, m.order):
        acc = [[ctx.zero()] * n for _ in range(n)]
        for l in range(1, j + 1):
            prod = const_product(m.coefficient_matrix(l), xs[j - l], ctx)
            acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, prod)]
        xs.append([[-c for c in row] for row in const_product(inv0, acc, ctx)])
    return series_matrix_from_coefficients(xs, ctx)


def ref_uniform_part(A, order):
    """j Y_j + Y_j A0 - A0 Y_j = sum_(l=1..j) A_l Y_(j-l), solved as a dense
    n^2 x n^2 system per coefficient."""
    n, ctx = A.size, A.ctx
    a0 = A.constant_matrix()
    xs = [[[ctx.coeff(int(i == c)) for c in range(n)] for i in range(n)]]
    for j in range(1, order):
        rhs = [[ctx.zero()] * n for _ in range(n)]
        for l in range(1, j + 1):
            prod = const_product(A.coefficient_matrix(l), xs[j - l], ctx)
            rhs = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(rhs, prod)]
        system = []
        for a in range(n):
            for b in range(n):
                row = []
                for u in range(n):
                    for v in range(n):
                        # coefficient of Y[u][v] in entry (a, b) of j Y + Y A0 - A0 Y
                        c = ctx.coeff(j) if (a, b) == (u, v) else ctx.zero()
                        if a == u:
                            c = c + a0[v][b]
                        if b == v:
                            c = c - a0[a][u]
                        row.append(c)
                system.append(row)
        flat = ref_solve(system, [rhs[a][b] for a in range(n) for b in range(n)])
        xs.append([[flat[a * n + b] for b in range(n)] for a in range(n)])
    return series_matrix_from_coefficients(xs, ctx)


# -- The operator recursions and delta-application, coefficient by coefficient.

def ref_unit_solution_generic(L, order):
    """The generic recursion on Coefficients:
    j^n f_j = -sum_i sum_(l=1..j) a_i[l] (j-l)^(n-i) f_(j-l)."""
    n, ctx = L.order, L.ctx
    f = [ctx.one()]
    for j in range(1, order):
        s = ctx.zero()
        for i, a in enumerate(L.coeffs, start=1):
            for l in range(1, j + 1):
                s = s + a[l] * Fraction(j - l) ** (n - i) * f[j - l]
        f.append(-s * Fraction(1, j**n))
    return TruncSeries(tuple(f), ctx)


def ref_unit_solution_banded(raw_terms, ctx, n, order):
    """The banded recursion on Coefficients:
    lead j^n f_j = -sum_(zdeg > 0) Q_zdeg(j - zdeg) f_(j - zdeg)."""
    lead = dict(raw_terms)[0][-1]
    f = [ctx.one()]
    for j in range(1, order):
        s = ctx.zero()
        for zdeg, poly in raw_terms:
            if 0 < zdeg <= j:
                q = sum((c * Fraction(j - zdeg) ** k for k, c in enumerate(poly)), ctx.zero())
                s = s + q * f[j - zdeg]
        f.append(-s / (lead * Fraction(j) ** n))
    return TruncSeries(tuple(f), ctx)


def ref_apply(L, f):
    """delta^n f + sum_i a_i delta^(n-i) f, coefficient by coefficient."""
    n = L.order
    order = min(f.order, L.series_order)
    out = []
    for j in range(order):
        s = f[j] * j**n
        for i, a in enumerate(L.coeffs, start=1):
            for l in range(j + 1):
                s = s + a[l] * (j - l) ** (n - i) * f[j - l]
        out.append(s)
    return TruncSeries(tuple(out), L.ctx)


# -- The certificate search without the residue screen: callback_sweep hands
# every candidate of the Pade windows of each source to a verify callback.

def callback_sweep(sources, deg_bound, verify):
    seen, saw_k0_reject = set(), False
    for src in sources:
        for window in range(1, min(2 * deg_bound + 1, src.order) + 1):
            for r, t in pade_pairs(src, window):
                if t.degree > deg_bound:
                    break
                if r.degree > deg_bound or t.vanishes_at_zero():
                    continue
                cand = RationalFunction.from_coprime(r, t)
                if cand in seen:
                    continue
                seen.add(cand)
                verdict = verify(cand)
                if verdict == VERIFY_OK:
                    return cand
                saw_k0_reject |= verdict == VERIFY_NOT_K0
    if saw_k0_reject:
        raise NotInK0("reference")
    raise ReconstructionFailed("reference", deg_bound=deg_bound)


def reference_search(target, m, deg_bound, mult=None, require_norm_one=False):
    upto = target.order
    g = target if mult is None else target * mult.invert_unit()
    sources = [g, canonical_lift(g, m)] if g.min_valuation() >= 0 else [g]

    def verify(cand):
        if mult is None:
            return congruence_outcome(cand, target, m, upto, require_norm_one)[0]
        return product_congruence_outcome(cand, mult, target, m, upto, require_norm_one)[0]

    return callback_sweep(sources, deg_bound, verify)

