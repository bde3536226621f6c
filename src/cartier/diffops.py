"""Differential operators in delta = z d/dz and their solution machinery.

Operators enter in raw form, a list of (zdeg, deltapoly) terms meaning
sum_t z^(zdeg_t) * Q_t(delta) with the z-power on the left, which is how the
classical operators are written down. monicize divides by the leading series
to get L = delta^n + a_1 delta^(n-1) + .. + a_n as series, keeping the raw
terms. monicize, the unit solution and the passage check in frobenius read
an operator through its one polynomial form, DiffOp.polynomial_form.

The MOM property (all a_i vanish at 0) is what makes the unit power-series
solution recursion solvable: the z^j coefficient equation reads
j^n f_j = -(contributions of lower f's), and j^n never vanishes for j >= 1.
"""

from __future__ import annotations

import math
from itertools import chain, zip_longest
from operator import add, mul

from .errors import (
    BadParameters,
    LeadingNotUnit,
    NotMOM,
    NotNilpotent,
    OrderExhausted,
)
from .rings import PadicContext, _ring_inverse, _ring_mul, record
from .series import (
    IntegerRows,
    TruncSeries,
    _align,
    _apply,
    _const_map,
    _diag,
    _invert,
    _matmul_ints,
    _recurrence,
)


class SeriesMatrix(IntegerRows):
    """Square n x n matrix of series known mod z^order, stored as a
    TruncSeries is: integer rows over one canonical denominator, the e rows
    of entry (i, j) starting at row (i n + j) e (the kernel's flat layout).
    Sums, scalar products, delta, the Cartier operator, substitution,
    truncation and the valuations are the IntegerRows operations; entry(i, j)
    reads one entry as a TruncSeries.
    """

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows) -> "SeriesMatrix":
        """The matrix of a square list of lists of TruncSeries, at their
        least order."""
        if not rows or any(len(r) != len(rows) for r in rows):
            raise BadParameters("matrix must be square and nonempty")
        entries = list(chain.from_iterable(rows))
        ctx = entries[0].ctx
        if any(s.ctx != ctx for s in entries):
            raise BadParameters("mixed contexts")
        order = min(s.order for s in entries)
        den, aligned = _align([s.truncate(order) for s in entries])
        return cls._canonical(ctx, den, list(chain.from_iterable(aligned)))

    @classmethod
    def zero(cls, ctx: PadicContext, n: int, order: int) -> "SeriesMatrix":
        return cls._canonical(ctx, 1, [[0] * order for _ in range(n * n * ctx.e)])

    @classmethod
    def identity(cls, ctx: PadicContext, n: int, order: int) -> "SeriesMatrix":
        out = cls.zero(ctx, n, order)
        if order:
            for i in range(n):
                out.rows[(i * n + i) * ctx.e][0] = 1
        return out

    @property
    def size(self) -> int:
        return math.isqrt(len(self.rows) // self.ctx.e)

    def entry(self, i: int, j: int) -> TruncSeries:
        e = self.ctx.e
        at = (i * self.size + j) * e
        return TruncSeries._of(self.ctx, self.den, self.rows[at : at + e])

    def __repr__(self):
        n = self.size
        entries = [[self.entry(i, j) for j in range(n)] for i in range(n)]
        return f"SeriesMatrix.from_rows({entries!r})"

    # the IntegerRows product, named here, where the benchmark's tracer wraps it
    matmul = IntegerRows.__mul__

    def constant_matrix(self):
        return self.coefficient_matrix(0)

    def constant_ints(self):
        """(den, vec): the value at 0 as a constant matrix, column 0 of the
        rows, in canonical form, so that equal values give equal pairs."""
        at0 = self.truncate(1)
        return at0.den, [row[0] for row in at0.rows]

    def coefficient_matrix(self, l: int):
        n = self.size
        return [[self.entry(i, j).coefficient(l) for j in range(n)] for i in range(n)]

    def invert_series(self) -> "SeriesMatrix":
        """Inverse as a series matrix; constant term must be invertible."""
        dx, x = _invert(self.den, self.rows, self.order, self.ctx)
        return SeriesMatrix._of(self.ctx, dx, x)


# -- operators ---------------------------------------------------------------


def _normalize_raw_terms(terms, ctx):
    """Coerce the coefficients, add the terms of one z-degree on their parts,
    then strip each sum's zero tail and drop the z-degrees whose terms
    cancel."""
    merged = {}
    zero = (0,) * ctx.e
    for zdeg, deltapoly in terms:
        if zdeg < 0:
            raise BadParameters("z-degree must be >= 0")
        pairs = zip_longest(merged.get(zdeg, ()), (ctx.coeff(c).parts for c in deltapoly),
                            fillvalue=zero)
        merged[zdeg] = [tuple(map(add, a, b)) for a, b in pairs]
    out = []
    for z, poly in sorted(merged.items()):
        while poly and not any(poly[-1]):
            poly.pop()
        if poly:
            out.append((z, tuple(map(ctx.coeff, poly))))
    return tuple(out)


def _json(x, kind, what):
    """x if it is a JSON value of the type kind, else a TypeError; a bool is
    not an int."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise TypeError(f"expected {what}, got {x!r}")
    return x


def _json_coeff(x, ctx):
    """The coefficient x if it is a JSON integer, a coefficient text or a
    list of those, one per pi-component."""
    for c in x if isinstance(x, list) else [x]:
        _json(c, (int, str), "an integer or text coefficient")
    return ctx.coeff(x)


def raw_terms_from_json(data: dict, ctx: PadicContext) -> list:
    """Read the operator exchange format {"terms": [{zdeg, deltapoly}]} into
    (zdeg, coefficients) pairs as written, else BadParameters; monicize
    normalizes them."""
    try:
        return [
            (_json(t["zdeg"], int, "an integer z-degree"),
             [_json_coeff(c, ctx) for c in _json(t["deltapoly"], list, "a list of coefficients")])
            for t in data["terms"]
        ]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise BadParameters(f"malformed operator terms ({type(exc).__name__}: {exc})") from None


@record
class DiffOp:
    """Monic operator delta^n + a_1 delta^(n-1) + .. + a_n.

    coeffs holds a_1..a_n as truncated series. raw_terms is the normalized
    term list of an operator from monicize, and None for a derived one.
    """

    coeffs: tuple
    ctx: PadicContext
    raw_terms: tuple = None

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def series_order(self) -> int:
        return min(a.order for a in self.coeffs) if self.coeffs else 0

    @property
    def is_mom(self) -> bool:
        """All coefficients vanish at z = 0."""
        return not any(row[0] for a in self.coeffs for row in a.rows)

    def polynomial_form(self, order: int) -> list:
        """P_0, .., P_n with L = sum_k P_k delta^k mod z^order, each as e
        integer rows of one length over a common denominator that is left
        out, as every reader is homogeneous in them: the raw terms'
        polynomials, or a_n, .., a_1 and 1 for a derived operator."""
        if self.raw_terms is not None:
            return _raw_form(self.raw_terms, self.ctx, order)
        if self.series_order < order:
            raise OrderExhausted(
                f"coefficients reliable to {self.series_order} < requested {order}"
            )
        one = TruncSeries.one(self.ctx, order)
        return _align([a.truncate(order) for a in self.coeffs[::-1]] + [one])[1]

    def companion(self) -> SeriesMatrix:
        """Shift structure with last row (-a_n, .., -a_1), built on the
        rows of the a_i over their common denominator."""
        n, e = self.order, self.ctx.e
        order = self.series_order
        den, aligned = _align([a.truncate(order) for a in self.coeffs])
        zero = [[0] * order] * e
        one = [[den, *zero[0][1:]][:order], *zero[1:]]
        rows = []
        for i in range(n - 1):
            for j in range(n):
                rows += one if j == i + 1 else zero
        rows += [[-x for x in row] for a in reversed(aligned) for row in a]
        return SeriesMatrix._of(self.ctx, den, rows)

    def apply(self, f: TruncSeries) -> TruncSeries:
        """delta^n f + sum a_i delta^(n-i) f, to the common reliable order,
        summed on f's rows and those of the a_i over their common
        denominator da."""
        n, ctx = self.order, self.ctx
        order = min(f.order, self.series_order) if n else f.order
        da, aligned = _align([a.truncate(order) for a in self.coeffs])
        powers = [[row[:order] for row in f.rows]]
        for _ in range(n):
            powers.append([list(map(mul, row, range(order))) for row in powers[-1]])
        out = [[da * x for x in row] for row in powers[n]]
        for a, power in zip(aligned, powers[n - 1 :: -1]):
            out = [list(map(add, u, v)) for u, v in zip(out, _matmul_ints(a, power, ctx, order))]
        return TruncSeries._of(ctx, da * f.den, out)

    def unit_solution(self, order: int) -> TruncSeries:
        """The solution with constant term 1, to order max(order, 1), as the
        recursion starts from f_0 = 1 (P_n(0) is read at order 0 too)."""
        if not self.is_mom:
            raise NotMOM("coefficients do not all vanish at 0")
        return _unit_solution_ints(self.polynomial_form(max(order, 1)), self.ctx, order)


def _raw_form(raw, ctx, order):
    """polynomial_form of normalized raw terms: z^zdeg Q(delta) puts Q's
    delta^k coefficient in P_k at z^zdeg. The rows end at the last z-degree
    below order; n is the top delta-power of all terms."""
    low = [(z, poly) for z, poly in raw if z < order]
    width = max((z for z, _ in low), default=0) + 1
    den = math.lcm(*(x.denominator for _, poly in low for c in poly for x in c.parts))
    form = [[[0] * width for _ in range(ctx.e)] for _ in range(max(len(poly) for _, poly in raw))]
    for z, poly in low:
        for rows, c in zip(form, poly):
            for row, x in zip(rows, c.parts):
                row[z] = x.numerator * (den // x.denominator)
    return form


def _unit_solution_ints(form, ctx, order):
    """The series f with f_0 = 1 and (L f)_j = 0 for j >= 1, L MOM with
    the polynomial form P_0, .., P_n: as P_k(0) = 0 for k < n, that is
    P_n(0) j^n f_j = -sum_k ((P_k - P_k(0)) delta^k f)_j.

    It is series._recurrence on the column X = (f, delta f, ..,
    delta^(K-1) f), P_(K-1) the last P_k that is not constant, with
    P_0 .. P_(K-1) in row 0 of M and every other row of M zero: as
    _recurrence reads M from z^1 on, row 0 of R_j is the sum above, from
    which solve reads f_j and returns j^k f_j in row k.
    """
    e, p = ctx.e, ctx.prime
    n = len(form) - 1
    size = 1 + max(
        (k for k, rows in enumerate(form) if any(any(row[1:]) for row in rows)), default=0
    )
    # row 0 of M holds P_0 .. P_(K-1); every other entry is zero
    m = list(chain.from_iterable(form[:size])) + [[0]] * (size * (size - 1) * e)
    dl, linv = _ring_inverse(1, [row[0] for row in form[n]], p)

    def solve(j, r, dr):
        f = [-v for v in _ring_mul(r[:e], linv, p)]
        return [j**k * v for k in range(size) for v in f], dr * dl * j**n

    # f_0 = 1, and (delta^k f)_0 = 0 for k >= 1
    x0 = [int(i == 0) for i in range(size * e)]
    den, x = _recurrence(1, m, x0, 1, order, solve, ctx)
    return TruncSeries._of(ctx, den, x[:e])


def monicize(terms, ctx: PadicContext, order: int) -> DiffOp:
    """Divide a raw term list by its leading series to get a monic operator,
    a_i = P_(n-i) / P_n.

    The leading delta^n series must be a unit at 0.
    """
    raw = _normalize_raw_terms(terms, ctx)
    if order < 1:
        raise BadParameters("order must be at least 1")
    if not raw:
        raise BadParameters("empty operator")
    form = _raw_form(raw, ctx, order)
    n = len(form) - 1
    if n < 1:
        raise BadParameters("operator must have positive delta-order")
    if not any(row[0] for row in form[n]):
        raise LeadingNotUnit("leading delta coefficient vanishes at z = 0")
    pad = [0] * (order - len(form[n][0]))
    P = [TruncSeries._of(ctx, 1, [row + pad for row in rows]) for rows in form]
    lead_inv = P[n].invert_unit()
    return DiffOp(tuple(P[n - i] * lead_inv for i in range(1, n + 1)), ctx, raw)


def uniform_part(A: SeriesMatrix, order: int) -> SeriesMatrix:
    """The log-free factor Y of the fundamental solution of delta X = A X:
    Y(0) = I and delta Y = A Y - Y A(0).

    Solved coefficient by coefficient: for j >= 1, (j + ad) Y_j = R_j with
    ad(E) = E A0 - A0 E and R_j = sum_(l=1..j) A_l Y_(j-l). A0 is nilpotent,
    so ad is too, and Y_j is the finite Neumann sum
    sum_k (-ad)^k R_j / j^(k+1), taken until (-ad)^k R_j vanishes.
    """
    n = A.size
    ctx = A.ctx
    order = min(order, A.order)
    da, a = A.den, A.rows
    # A0 over da; (-ad)(E) = A0 E - E A0
    a0 = [row[0] for row in a]
    _require_nilpotent(a0, n, ctx)
    neg_ad = _const_map(ctx, a0, a0)

    def solve(j, term, dr):
        # term k = (-ad)^k R_j lies over dr * da^k, and Y_j is
        # sum_k term_k / j^(k+1); Horner over step = j * da brings the terms
        # to the last one's denominator dr * step^top * j
        num = [0] * len(term)
        step, top = j * da, -1
        while any(term):
            num = [x * step + y for x, y in zip(num, term)]
            top += 1
            term = _apply(neg_ad, term)
        return num, dr * step ** max(top, 0) * j

    dy, y = _recurrence(da, a, _diag([1] * n, ctx.e), 1, order, solve, ctx)
    return SeriesMatrix._of(ctx, dy, y)


def _require_nilpotent(a0, n, ctx):
    """NotNilpotent unless the n x n constant matrix a0 (A0 over a
    denominator) satisfies A0^n = 0: E -> A0 E applied n times to I."""
    times_a0 = _const_map(ctx, a0)
    power = _diag([1] * n, ctx.e)
    for _ in range(n):
        power = _apply(times_a0, power)
    if any(power):
        raise NotNilpotent("constant term of the system matrix is not nilpotent")
