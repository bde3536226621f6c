"""Differential operators in delta = z d/dz and their solution machinery.

Operators enter in raw form, a list of (zdeg, deltapoly) terms meaning
sum_t z^(zdeg_t) * Q_t(delta) with the z-power on the left, which is how the
classical operators are written down. monicize divides by the leading series
to get L = delta^n + a_1 delta^(n-1) + .. + a_n as series, keeping the raw
terms for the banded unit-solution recursion.

The MOM property (all a_i vanish at 0) is what makes the unit power-series
solution recursion solvable: the z^j coefficient equation reads
j^n f_j = -(contributions of lower f's), and j^n never vanishes for j >= 1.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import (
    BadParameters,
    LeadingNotUnit,
    NotMOM,
    NotNilpotent,
    OrderExhausted,
)
from .rings import PadicContext, _int_parts, _ring_inverse, _ring_mul, record
from .series import (
    SeriesRows,
    TruncSeries,
    _align,
    _apply,
    _const_map,
    _diag,
    _invert,
    _matmul_ints,
    _recurrence,
)


class SeriesMatrix(SeriesRows):
    """Square n x n matrix of series known mod z^order, stored as a
    TruncSeries is: integer rows over one canonical denominator, the e rows
    of entry (i, j) starting at row (i n + j) e (the kernel's flat layout).
    Sums, scalar products, delta, the Cartier operator, substitution,
    truncation and the valuations are the SeriesRows operations; entry(i, j)
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

    def matmul(self, other: "SeriesMatrix") -> "SeriesMatrix":
        o = self._common(other)
        rows = _matmul_ints(self.rows, o.rows, self.ctx, min(self.order, o.order))
        return SeriesMatrix._of(self.ctx, self.den * o.den, rows)

    def row_matmul(self, i: int, other: "SeriesMatrix") -> list:
        """Row i of self.matmul(other) as a list of TruncSeries, with the
        series products of that row only."""
        o = self._common(other)
        e, n = self.ctx.e, self.size
        block = self.rows[i * n * e : (i + 1) * n * e]
        rows = _matmul_ints(block, o.rows, self.ctx, min(self.order, o.order))
        den = self.den * o.den
        return [TruncSeries._of(self.ctx, den, rows[at : at + e]) for at in range(0, n * e, e)]

    def matmul_const(self, den, vec) -> "SeriesMatrix":
        """Right-multiply by the constant matrix vec / den, vec a flat vector
        of integers as constant_ints gives it."""
        if len(vec) != len(self.rows):
            raise BadParameters("operands of different sizes")
        rows = _matmul_ints(self.rows, [[v] for v in vec], self.ctx, self.order)
        return SeriesMatrix._of(self.ctx, self.den * den, rows)

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
    """Merge duplicate z-degrees, coerce coefficients, strip zero tails."""
    merged = {}
    for zdeg, deltapoly in terms:
        if zdeg < 0:
            raise BadParameters("z-degree must be >= 0")
        poly = [ctx.coeff(c) for c in deltapoly]
        while poly and poly[-1].is_zero():
            poly.pop()
        if not poly:
            continue
        if zdeg in merged:
            old = merged[zdeg]
            size = max(len(old), len(poly))
            old += [ctx.zero()] * (size - len(old))
            for i, c in enumerate(poly):
                old[i] = old[i] + c
            merged[zdeg] = old
        else:
            merged[zdeg] = poly
    return tuple(sorted((z, tuple(p)) for z, p in merged.items()))


def _json_int(x):
    """x if it is a JSON integer; a float, a bool or a string is a TypeError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer z-degree, got {x!r}")
    return x


def _json_coeff(x, ctx):
    """The coefficient x if it is a JSON integer, a coefficient text or a
    list of those, one per pi-component; a float or a bool is a TypeError."""
    for c in x if isinstance(x, list) else [x]:
        if isinstance(c, bool) or not isinstance(c, (int, str)):
            raise TypeError(f"expected an integer or text coefficient, got {c!r}")
    return ctx.coeff(x)


def raw_terms_from_json(data: dict, ctx: PadicContext):
    """Read the operator exchange format {"terms": [{zdeg, deltapoly}]}, else BadParameters."""
    try:
        terms = [
            (_json_int(t["zdeg"]), [_json_coeff(c, ctx) for c in t["deltapoly"]])
            for t in data["terms"]
        ]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise BadParameters(f"malformed operator terms ({type(exc).__name__}: {exc})") from None
    return _normalize_raw_terms(terms, ctx)


@record
class DiffOp:
    """Monic operator delta^n + a_1 delta^(n-1) + .. + a_n.

    coeffs holds a_1..a_n as truncated series. raw_terms is carried along
    when the operator came from a raw term list; it enables the fast banded
    recursion.
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

    def companion(self) -> SeriesMatrix:
        """Shift structure with last row (-a_n, .., -a_1)."""
        n = self.order
        order = self.series_order
        rows = []
        for i in range(n - 1):
            rows.append(
                [
                    TruncSeries.one(self.ctx, order)
                    if j == i + 1
                    else TruncSeries.zero(self.ctx, order)
                    for j in range(n)
                ]
            )
        rows.append([-self.coeffs[n - 1 - j].truncate(order) for j in range(n)])
        return SeriesMatrix.from_rows(rows)

    def apply(self, f: TruncSeries) -> TruncSeries:
        """delta^n f + sum a_i delta^(n-i) f, to the common reliable order."""
        powers = [f]
        for _ in range(self.order):
            powers.append(powers[-1].delta())
        out = powers[self.order]
        for i, a in enumerate(self.coeffs, start=1):
            out = out + a * powers[self.order - i]
        return out

    def unit_solution(self, order: int) -> TruncSeries:
        """The solution with constant term 1, to the requested order.

        Uses the banded recursion on raw terms when available (cost linear in
        the order), otherwise the generic convolution against the a_i series.
        """
        if not self.is_mom:
            raise NotMOM("coefficients do not all vanish at 0")
        if self.raw_terms is not None:
            return _unit_solution_raw(self.raw_terms, self.ctx, self.order, order)
        if self.series_order < order:
            raise OrderExhausted(
                f"coefficients reliable to {self.series_order} < requested {order}"
            )
        # a_i carries delta^(n-i): the generic recursion has C_(n-i) = a_i
        return _unit_solution_ints(self.coeffs[::-1], self.ctx.one(), self.order, order)


def _unit_solution_raw(raw_terms, ctx, n, order):
    # zdeg-0 term must be c * delta^n with c a unit: that is exactly MOM
    # plus leading-unit, both established by monicize; the z^l term Q_l(delta)
    # gives C_k its z^l coefficient, the delta^k coefficient of Q_l
    head = dict(raw_terms).get(0)
    tail = {z: poly for z, poly in raw_terms if 0 < z < order}
    width = max(tail, default=0) + 1
    degree = max(map(len, tail.values()), default=0)
    zero = ctx.zero()
    cs = [
        TruncSeries(
            tuple(tail[l][k] if k < len(tail.get(l, ())) else zero for l in range(width)),
            ctx,
        )
        for k in range(degree)
    ]
    return _unit_solution_ints(cs, head[-1], n, order)


def _unit_solution_ints(cs, lead, n, order):
    """The series f with f_0 = 1 and, for j >= 1,
    lead * j^n f_j = -sum_k (C_k * delta^k f)_j, where C_k = cs[k] vanishes
    at 0: the unit-solution recursion of both the banded and the generic
    form, in integers.

    It is series._recurrence on the column X = (f, delta f, ..,
    delta^(K-1) f), K = len(cs), with C_0 .. C_(K-1) in row 0 of M and
    every other row of M zero: row 0 of R_j is sum_k (C_k * delta^k f)_j,
    from which solve reads f_j and returns j^k f_j in row k.
    """
    ctx = lead.ctx
    e, p = ctx.e, ctx.prime
    size = max(len(cs), 1)
    dc, crows = _align(cs)
    # row 0 of M holds C_0 .. C_(K-1); every other entry is zero
    m = list(chain.from_iterable(crows)) or [[0]] * e
    m += [[0]] * (size * (size - 1) * e)
    dl, linv = _ring_inverse(*_int_parts(lead), p)

    def solve(j, r, dr):
        f = [-v for v in _ring_mul(r[:e], linv, p)]
        return [j**k * v for k in range(size) for v in f], dr * dl * j**n

    # f_0 = 1, and (delta^k f)_0 = 0 for k >= 1
    x0 = [int(i == 0) for i in range(size * e)]
    den, x = _recurrence(dc, m, x0, 1, order, solve, ctx)
    return TruncSeries._of(ctx, den, x[:e])


def monicize(terms, ctx: PadicContext, order: int) -> DiffOp:
    """Divide a raw term list by its leading series to get a monic operator.

    The leading delta^n series must be a unit at 0.
    """
    if order < 1:
        raise BadParameters("order must be at least 1")
    raw = _normalize_raw_terms(terms, ctx)
    if not raw:
        raise BadParameters("empty operator")
    n = max(len(poly) for _, poly in raw) - 1
    if n < 1:
        raise BadParameters("operator must have positive delta-order")
    # a term at z-degree >= order changes nothing mod z^order
    low = [(z, poly) for z, poly in raw if z < order]
    width = max((z for z, _ in low), default=0) + 1
    pad = [0] * (order - width)
    numerators = []
    for k in range(n + 1):
        coeffs = [ctx.zero()] * width
        for z, poly in low:
            if k < len(poly):
                coeffs[z] = coeffs[z] + poly[k]
        f = TruncSeries(coeffs, ctx)
        numerators.append(TruncSeries.from_rows(ctx, f.den, [row + pad for row in f.rows]))
    if numerators[n].constant_term().is_zero():
        raise LeadingNotUnit("leading delta coefficient vanishes at z = 0")
    lead_inv = numerators[n].invert_unit()
    series_coeffs = tuple(numerators[n - i] * lead_inv for i in range(1, n + 1))
    return DiffOp(series_coeffs, ctx, raw)


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
