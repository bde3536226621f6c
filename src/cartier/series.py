"""Truncated power series over a p-adic context.

A TruncSeries stores exactly the coefficients it is reliable for: index j is
the coefficient of z^j and the number of coefficients is the reliable order.
Every operation returns a series whose length reflects how far the result can
be trusted; in particular the Cartier operator divides the order by p and
substitution z -> z^(p^k) multiplies it, so chained computations keep honest
bookkeeping without a separate precision field.

A series is stored as integer numerator rows, one row per pi-component,
over one common denominator: coefficient j is sum_t rows[t][j] pi^t / den.
The form is canonical (den > 0 and the gcd of den and every numerator is 1),
so equal values have equal rows. Every operation, and the product kernel at
the end of this module, runs on these rows; coeffs, the tuple of
Coefficients, is a view built on first use and cached, for code that
indexes or renders a series. The series-matrix product, inverse and uniform
part in diffops are built on the same kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, mul

from .errors import BadParameters, NotAUnit
from .rings import INF, Coefficient, PadicContext, _ring_inverse, _scale


class TruncSeries:
    """A series known mod z^order, as integer rows over a denominator.

    TruncSeries(coeffs, ctx) builds one from a sequence of Coefficients;
    from_rows builds one from integer rows. Instances are immutable.
    """

    __slots__ = ("ctx", "den", "rows", "_view")

    def __init__(self, coeffs, ctx: PadicContext):
        view = tuple(c if isinstance(c, Coefficient) else ctx.coeff(c) for c in coeffs)
        self.ctx = ctx
        self.den, self.rows = _coeff_rows(view, ctx.e)
        self._view = view

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: PadicContext, den: int, rows) -> "TruncSeries":
        """The series with coefficient j = sum_t rows[t][j] pi^t / den; rows
        holds ctx.e integer rows of one length and den is a nonzero int."""
        rows = [list(row) for row in rows]
        if len(rows) != ctx.e or len({len(row) for row in rows}) > 1 or not den:
            raise BadParameters("need e integer rows of one length over a nonzero denominator")
        if den < 0:
            den, rows = -den, [[-x for x in row] for row in rows]
        return cls._of(ctx, den, rows)

    @classmethod
    def _of(cls, ctx, den, rows):
        """Series of integer rows over den > 0, brought to canonical form."""
        g = math.gcd(den, *chain.from_iterable(rows))
        if g > 1:
            den //= g
            rows = [[x // g for x in row] for row in rows]
        return cls._canonical(ctx, den, rows)

    @classmethod
    def _canonical(cls, ctx, den, rows):
        """Series of rows over den that are already in canonical form."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.den = den
        self.rows = rows
        self._view = None
        return self

    @classmethod
    def from_coeffs(cls, ctx: PadicContext, values) -> "TruncSeries":
        values = list(values)
        if all(isinstance(v, (int, Fraction)) for v in values):
            den = math.lcm(*(v.denominator for v in values))
            row = [v.numerator * (den // v.denominator) for v in values]
            zero = [0] * len(row)
            return cls._canonical(ctx, den, [row] + [zero] * (ctx.e - 1))
        return cls(tuple(ctx.coeff(v) for v in values), ctx)

    @classmethod
    def zero(cls, ctx: PadicContext, order: int) -> "TruncSeries":
        return cls._canonical(ctx, 1, [[0] * order for _ in range(ctx.e)])

    @classmethod
    def one(cls, ctx: PadicContext, order: int) -> "TruncSeries":
        out = cls.zero(ctx, order)
        if order:
            out.rows[0][0] = 1
        return out

    # -- the Coefficient view ------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Coefficients, built once."""
        view = self._view
        if view is None:
            view = self._view = tuple(
                _coefficient(self.den, col, self.ctx) for col in zip(*self.rows)
            )
        return view

    @property
    def order(self) -> int:
        """Number of reliable coefficients (the series is known mod z^order)."""
        return len(self.rows[0])

    def __getitem__(self, j: int) -> Coefficient:
        return self.coeffs[j]

    def coefficient(self, j: int) -> Coefficient:
        """Coefficient j, without building the whole view."""
        if self._view is not None:
            return self._view[j]
        return _coefficient(self.den, [row[j] for row in self.rows], self.ctx)

    def constant_term(self) -> Coefficient:
        return self.coefficient(0)

    def truncate(self, upto: int) -> "TruncSeries":
        if upto > self.order:
            raise ValueError(f"only {self.order} coefficients are reliable")
        if upto == self.order:
            return self
        return TruncSeries._of(self.ctx, self.den, [row[:upto] for row in self.rows])

    # -- ring operations (result order = what both operands support) --------

    def _common(self, other):
        if isinstance(other, TruncSeries):
            if other.ctx != self.ctx:
                raise BadParameters("mixed contexts")
            return other
        raise TypeError("expected a TruncSeries")

    def _lincomb(self, other, sign):
        """self + sign * other on their common order."""
        o = self._common(other)
        n = min(self.order, o.order)
        den = math.lcm(self.den, o.den)
        ka, kb = den // self.den, sign * (den // o.den)
        rows = [
            [ka * x + kb * y for x, y in zip(ra[:n], rb[:n])]
            for ra, rb in zip(self.rows, o.rows)
        ]
        return TruncSeries._of(self.ctx, den, rows)

    def __add__(self, other):
        return self._lincomb(other, 1)

    def __sub__(self, other):
        return self._lincomb(other, -1)

    def __neg__(self):
        return TruncSeries._canonical(
            self.ctx, self.den, [[-x for x in row] for row in self.rows]
        )

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Fraction, Coefficient)):
            dc, c = _coeff_rows((ctx.coeff(other),), ctx.e)
            return self._times(dc, [x for (x,) in c])
        o = self._common(other)
        n = min(self.order, o.order)
        rows = _matmul_ints([[self.rows]], [[o.rows]], ctx, n)[0][0]
        return TruncSeries._of(ctx, self.den * o.den, rows)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self * other
        return NotImplemented

    def _times(self, den: int, c) -> "TruncSeries":
        """This series times c / den, c integer pi-components and den > 0."""
        return TruncSeries._of(self.ctx, self.den * den, _scale(c, self.rows, self.ctx.prime))

    def _inverse_of(self, j: int):
        """(d, x): x / d is the inverse of the nonzero coefficient j."""
        return _ring_inverse(self.den, [row[j] for row in self.rows], self.ctx.prime)

    def pow_int(self, n: int) -> "TruncSeries":
        """Integer power; negative exponents go through invert_unit."""
        if n < 0:
            return self.invert_unit().pow_int(-n)
        out = TruncSeries.one(self.ctx, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.rows == other.rows

    def __hash__(self):
        rows = tuple(map(tuple, self.rows))
        return hash((self.den, rows, self.ctx.prime, self.ctx.ramification))

    def agrees_with(self, other, upto: int) -> bool:
        o = self._common(other)
        if upto > min(self.order, o.order):
            raise ValueError("comparison window beyond reliable order")
        return self.truncate(upto) == o.truncate(upto)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def first_nonzero(self):
        """Index of the first nonzero coefficient, or None for zero."""
        hits = [next((j for j, x in enumerate(row) if x), None) for row in self.rows]
        return min((j for j in hits if j is not None), default=None)

    # -- derivations and the Cartier operator --------------------------------

    def delta(self) -> "TruncSeries":
        """The derivation z d/dz: multiplies coefficient j by j."""
        return TruncSeries._of(
            self.ctx, self.den, [list(map(mul, row, range(len(row)))) for row in self.rows]
        )

    def d_dz(self) -> "TruncSeries":
        """Ordinary derivative; reliable order drops by one."""
        return TruncSeries._of(
            self.ctx,
            self.den,
            [list(map(mul, row[1:], range(1, len(row)))) for row in self.rows],
        )

    def cartier(self) -> "TruncSeries":
        """Coefficient extraction along multiples of p: a_n -> a_(np).

        The result is reliable to ceil(order/p).
        """
        p = self.ctx.prime
        return TruncSeries._of(self.ctx, self.den, [row[::p] for row in self.rows])

    def subst_zpk(self, k: int) -> "TruncSeries":
        """Substitute z -> z^(p^k); reliable order grows to order * p^k.

        The gaps are exact zeros, and the first unknown coefficient is the
        one at z^(order * p^k).
        """
        if k < 0:
            raise BadParameters("substitution exponent must be >= 0")
        if k == 0:
            return self
        q = self.ctx.prime**k
        rows = []
        for row in self.rows:
            out = [0] * (len(row) * q)
            out[::q] = row
            rows.append(out)
        return TruncSeries._canonical(self.ctx, self.den, rows)

    # -- units ---------------------------------------------------------------

    def invert_unit(self) -> "TruncSeries":
        """Multiplicative inverse mod z^order; needs a unit constant term."""
        if self.order == 0:
            return self
        if not any(row[0] for row in self.rows):
            raise NotAUnit("constant term vanishes")
        ctx = self.ctx
        d0, inv0 = self._inverse_of(0)
        dg, g = _invert(self.den, [[self.rows]], self.order, [[[[x] for x in inv0]]], d0, ctx)
        return TruncSeries._of(ctx, dg, g[0][0])

    def log_derivative(self) -> "TruncSeries":
        """f'/f, reliable to order - 1."""
        return self.d_dz() * self.invert_unit()

    def hadamard(self, other) -> "TruncSeries":
        o = self._common(other)
        n = min(self.order, o.order)
        ctx = self.ctx
        acc = _unfolded(ctx, n)
        for s, ra in enumerate(self.rows):
            for t, rb in enumerate(o.rows):
                acc[s + t] = list(map(add, acc[s + t], map(mul, ra, rb)))
        return TruncSeries._of(ctx, self.den * o.den, _fold(acc, ctx))

    # -- valuations and congruences ------------------------------------------

    def first_discrepancy(self, other, m: int, upto: int):
        """Smallest j < upto with v(f_j - g_j) < m, or None."""
        o = self._common(other)
        if upto > min(self.order, o.order):
            raise ValueError("congruence window beyond reliable order")
        e, p = self.ctx.e, self.ctx.prime
        den = math.lcm(self.den, o.den)
        ka, kb = den // self.den, den // o.den
        # component t of the difference is d/den; v(d/den) pi^t >= m exactly
        # when p^(ceil((m - t)/e) + v_p(den)) divides d
        k = _p_adic_order(den, p)
        thresholds = [p ** max(0, -((t - m) // e) + k) for t in range(e)]
        found = upto
        for ra, rb, thr in zip(self.rows, o.rows, thresholds):
            if thr > 1:
                diff = map(lambda x, y: (ka * x - kb * y) % thr, ra[:found], rb[:found])
                found = next((j for j, r in enumerate(diff) if r), found)
        return None if found == upto else found

    def congruent_mod(self, other, m: int, upto: int) -> bool:
        return self.first_discrepancy(other, m, upto) is None

    def min_valuation(self, upto=None):
        """Smallest coefficient valuation on the window (INF if all zero).

        The smallest p-adic order along a row is that of the row's gcd.
        """
        e, p = self.ctx.e, self.ctx.prime
        k = _p_adic_order(self.den, p)
        best = INF
        for t, row in enumerate(self.rows):
            g = math.gcd(*(row if upto is None else row[:upto]))
            if g:
                best = min(best, e * (_p_adic_order(g, p) - k) + t)
        return best

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.ctx.prime,
            "ramification": self.ctx.ramification.value,
            "N": self.order,
            "coeffs": [c.render() for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncSeries":
        from .rings import Ramification

        ctx = PadicContext(int(data["p"]), Ramification(data["ramification"]))
        coeffs = [ctx.coeff(text) for text in data["coeffs"]]
        if len(coeffs) != int(data["N"]):
            raise BadParameters("coefficient count does not match N")
        return cls.from_coeffs(ctx, coeffs)

    def __repr__(self):
        return f"TruncSeries(coeffs={self.coeffs!r}, ctx={self.ctx!r})"

    def __str__(self):
        shown = ", ".join(self.coefficient(j).render() for j in range(min(self.order, 6)))
        tail = ", .." if self.order > 6 else ""
        return f"[{shown}{tail}] mod z^{self.order}"


def _p_adic_order(n: int, p: int) -> int:
    """v_p of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _coeff_rows(coeffs, e):
    """(den, rows) of a sequence of Coefficients: rows[t][j] / den is the
    pi^t part of coeffs[j], and den is the least common denominator of
    every part, so the pair is in canonical form."""
    den = math.lcm(*(x.denominator for c in coeffs for x in c.parts))
    return den, [
        [x.numerator * (den // x.denominator) for x in (c.parts[t] for c in coeffs)]
        for t in range(e)
    ]


def _coefficient(den, column, ctx):
    """The Coefficient with parts column[t] / den."""
    if den == 1:
        return Coefficient(tuple(map(Fraction, column)), ctx)
    return Coefficient(tuple(Fraction(x, den) for x in column), ctx)


# -- the integer kernel -------------------------------------------------------
#
# A "row" is a list of integer numerators along z. An entry (a series, or a
# constant as a series of order 1) is a list of rows, one per pi-component,
# over a denominator held beside it: a TruncSeries's rows are an entry. A
# product of two entries has 2e - 1 "unfolded" rows (pi^0 up to pi^(2e-2));
# _fold turns them back into e rows with pi^e = -p. Entries are never
# modified in place, so results may share rows with their operands.


def _align(series):
    """(den, [rows]) for a list of series: each one's rows over den, the
    least common denominator of all of them."""
    den = math.lcm(*(s.den for s in series))
    return den, [
        s.rows if s.den == den else [[x * (den // s.den) for x in r] for r in s.rows]
        for s in series
    ]


def _ints(matrix):
    """(den, entries) for a square matrix of series, aligned on one
    denominator: entries[i][k] is matrix[i][k]'s rows over den."""
    n = len(matrix)
    den, flat = _align([s for row in matrix for s in row])
    return den, [flat[i * n : (i + 1) * n] for i in range(n)]


def _unfolded(ctx, n):
    """Zero accumulator for a product: 2e - 1 rows of length n."""
    return [[0] * n for _ in range(2 * ctx.e - 1)]


def _fold(rows, ctx):
    """Fold unfolded product rows: pi^(e+t) = -p pi^t."""
    e, p = ctx.e, ctx.prime
    low = rows[:e]
    for t, high in enumerate(rows[e:]):
        low[t] = [x - p * y for x, y in zip(low[t], high)]
    return low


def _conv_add(out, a, b):
    """out[k] += sum_(i+j=k) a[i] * b[j] for every k < len(out).

    The walk runs over the operand with fewer nonzero terms, so that a
    substituted series f(z^(p^k)), nonzero only at multiples of p^k, costs
    its nonzero terms times the other operand's length."""
    n = len(out)
    a, b = a[:n], b[:n]
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, b = b, a
    for i, x in enumerate(a):
        if x:
            seg = b[: n - i]
            end = i + len(seg)
            out[i:end] = map(add, out[i:end], map(x.__mul__, seg))


def _mul_add(acc, a, b):
    """acc += a * b for entries a and b, with acc the 2e - 1 unfolded rows of
    the product (truncated to their length)."""
    b = [(t, rb) for t, rb in enumerate(b) if any(rb)]
    for s, ra in enumerate(a):
        if any(ra):
            for t, rb in b:
                _conv_add(acc[s + t], ra, rb)


def _matmul_ints(a, b, ctx, n):
    """Product of two square matrices of entries, each result entry summed
    over k in the unfolded domain and folded once, with rows of length n."""
    if n == 1:
        return _matmul_consts(a, b, ctx)
    size = len(a)
    out = []
    for row in a:
        out_row = []
        for j in range(size):
            acc = _unfolded(ctx, n)
            for k in range(size):
                _mul_add(acc, row[k], b[k][j])
            out_row.append(_fold(acc, ctx))
        out.append(out_row)
    return out


def _matmul_consts(a, b, ctx):
    """_matmul_ints with n = 1: only the constant terms, on bare ints."""
    e, p = ctx.e, ctx.prime
    b_cols = [[[(t, r[0]) for t, r in enumerate(b[k][j]) if r[0]] for k in range(len(b))]
              for j in range(len(b))]
    out = []
    for row in a:
        terms = [[(s, r[0]) for s, r in enumerate(entry) if r[0]] for entry in row]
        out_row = []
        for col in b_cols:
            acc = [0] * (2 * e - 1)
            for xs, ys in zip(terms, col):
                for s, x in xs:
                    for t, y in ys:
                        acc[s + t] += x * y
            out_row.append([[acc[t] - p * acc[t + e]] if t + e < len(acc) else [acc[t]]
                            for t in range(e)])
        out.append(out_row)
    return out


def _recurrence(dm, m, x0, d0, order, solve, ctx):
    """Integer form of the series matrix X with X_0 = x0 / d0 and, for j >= 1,
    X_j = solve(j, R_j) where R_j = sum_(l=1..j) M_l X_(j-l).

    m holds M's entries over dm and x0 constant entries. solve(j, r, dr) gets
    R_j as constant entries r over dr and returns X_j the same way, as
    (entries, denominator). solve must be linear: a step whose R_j is zero
    gets X_j = 0 without a call. Returns (den, x): X's entries over one
    common denominator, which grows only to the least common denominator of
    the coefficients solved so far.
    """
    size = len(m)
    x = [[[r[:] for r in entry] for entry in row] for row in x0]
    den = d0
    # the nonzero rows of M_1, M_2, ..: (i, k, s, row) with row[l - 1] = M_l,
    # without trailing zeros, so that a polynomial M costs its degree per step
    terms = [
        (i, k, s, _trimmed(row[1:]))
        for i in range(size)
        for k in range(size)
        for s, row in enumerate(m[i][k])
        if any(row[1:])
    ]
    for j in range(1, order):
        r = None
        for i, k, s, tail in terms:
            head = tail[:j]
            for c in range(size):
                for t, xs in enumerate(x[k][c]):
                    v = sum(map(mul, head, reversed(xs)))
                    if v:
                        if r is None:
                            r = [[_unfolded(ctx, 1) for _ in range(size)] for _ in range(size)]
                        r[i][c][s + t][0] += v
        if r is None:
            # R_j = 0, so X_j = 0 (solve is linear): no fold, solve or gcd
            for row in x:
                for entry in row:
                    for xs in entry:
                        xs.append(0)
            continue
        r = [[_fold(acc, ctx) for acc in row] for row in r]
        num, dj = solve(j, r, dm * den)
        g = math.gcd(dj, *(v for row in num for entry in row for (v,) in entry))
        dj //= g
        grown = math.lcm(den, dj)
        if grown != den:
            scale = grown // den
            x = [[[[v * scale for v in xs] for xs in entry] for entry in row] for row in x]
            den = grown
        scale = den // dj
        for row, nrow in zip(x, num):
            for entry, nentry in zip(row, nrow):
                for xs, (v,) in zip(entry, nentry):
                    xs.append(v // g * scale)
    return den, x


def _trimmed(row):
    """row without its trailing zeros."""
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return row[:end]


def _invert(dm, m, order, inv0, d0, ctx):
    """Integer form of M^-1 to the given order, from M's entries over dm and
    the inverse inv0 / d0 of M_0: X_j = -M_0^-1 sum_(l=1..j) M_l X_(j-l)."""
    minus_inv0 = [[[[-v for v in r] for r in entry] for entry in row] for row in inv0]

    def solve(j, r, dr):
        return _matmul_ints(minus_inv0, r, ctx, 1), d0 * dr

    return _recurrence(dm, m, inv0, d0, order, solve, ctx)
