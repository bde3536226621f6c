"""Truncated power series over a p-adic context.

A TruncSeries stores exactly the coefficients it is reliable for: index j is
the coefficient of z^j and the length of the tuple is the reliable order.
Every operation returns a series whose length reflects how far the result can
be trusted; in particular the Cartier operator divides the order by p and
substitution z -> z^(p^k) multiplies it, so chained computations keep honest
bookkeeping without a separate precision field.

Every series product runs through one integer kernel at the end of this
module: a group of coefficient sequences is read as integer numerator rows,
one row per pi-component, over the group's least common denominator.
Products convolve those rows on ints, pi^e = -p is folded on the rows, and
the result becomes Coefficients once, at the end. The series-matrix product,
inverse and uniform part in diffops are built on the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import BadParameters, NotAUnit
from .rings import Coefficient, PadicContext


@dataclass(frozen=True)
class TruncSeries:
    coeffs: tuple
    ctx: PadicContext

    # -- construction --------------------------------------------------------

    @classmethod
    def from_coeffs(cls, ctx: PadicContext, values) -> "TruncSeries":
        return cls(tuple(ctx.coeff(v) for v in values), ctx)

    @classmethod
    def zero(cls, ctx: PadicContext, order: int) -> "TruncSeries":
        return cls((ctx.zero(),) * order, ctx)

    @classmethod
    def one(cls, ctx: PadicContext, order: int) -> "TruncSeries":
        return cls((ctx.one(),) + (ctx.zero(),) * (order - 1), ctx)

    @property
    def order(self) -> int:
        """Number of reliable coefficients (the series is known mod z^order)."""
        return len(self.coeffs)

    def __getitem__(self, j: int) -> Coefficient:
        return self.coeffs[j]

    def constant_term(self) -> Coefficient:
        return self.coeffs[0]

    def truncate(self, upto: int) -> "TruncSeries":
        if upto > self.order:
            raise ValueError(f"only {self.order} coefficients are reliable")
        return TruncSeries(self.coeffs[:upto], self.ctx)

    # -- ring operations (result order = what both operands support) --------

    def _common(self, other):
        if isinstance(other, TruncSeries):
            if other.ctx != self.ctx:
                raise BadParameters("mixed contexts")
            return other
        raise TypeError("expected a TruncSeries")

    def __add__(self, other):
        o = self._common(other)
        n = min(self.order, o.order)
        return TruncSeries(
            tuple(a + b for a, b in zip(self.coeffs[:n], o.coeffs[:n])), self.ctx
        )

    def __sub__(self, other):
        o = self._common(other)
        n = min(self.order, o.order)
        return TruncSeries(
            tuple(a - b for a, b in zip(self.coeffs[:n], o.coeffs[:n])), self.ctx
        )

    def __neg__(self):
        return TruncSeries(tuple(-a for a in self.coeffs), self.ctx)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            c = self.ctx.coeff(other)
            return TruncSeries(tuple(c * a for a in self.coeffs), self.ctx)
        o = self._common(other)
        n = min(self.order, o.order)
        ctx = self.ctx
        (da, a), (db, b) = _ints([[self.coeffs[:n]]], ctx), _ints([[o.coeffs[:n]]], ctx)
        return TruncSeries(_coeffs(da * db, _matmul_ints(a, b, ctx, n)[0][0], ctx), ctx)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self * other
        return NotImplemented

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
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.ctx.prime, self.ctx.ramification))

    def agrees_with(self, other, upto: int) -> bool:
        o = self._common(other)
        if upto > min(self.order, o.order):
            raise ValueError("comparison window beyond reliable order")
        return all(self.coeffs[j] == o.coeffs[j] for j in range(upto))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- derivations and the Cartier operator --------------------------------

    def delta(self) -> "TruncSeries":
        """The derivation z d/dz: multiplies coefficient j by j."""
        return TruncSeries(
            tuple(c * j for j, c in enumerate(self.coeffs)), self.ctx
        )

    def d_dz(self) -> "TruncSeries":
        """Ordinary derivative; reliable order drops by one."""
        return TruncSeries(
            tuple(c * j for j, c in enumerate(self.coeffs))[1:], self.ctx
        )

    def cartier(self) -> "TruncSeries":
        """Coefficient extraction along multiples of p: a_n -> a_(np).

        The result is reliable to ceil(order/p).
        """
        p = self.ctx.prime
        return TruncSeries(self.coeffs[::p], self.ctx)

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
        zero = self.ctx.zero()
        out = [zero] * (self.order * q)
        for j, c in enumerate(self.coeffs):
            out[j * q] = c
        return TruncSeries(tuple(out), self.ctx)

    # -- units ---------------------------------------------------------------

    def invert_unit(self) -> "TruncSeries":
        """Multiplicative inverse mod z^order; needs a unit constant term."""
        if self.order == 0:
            return self
        f0 = self.coeffs[0]
        if f0.is_zero():
            raise NotAUnit("constant term vanishes")
        ctx = self.ctx
        den, f = _ints([[self.coeffs]], ctx)
        d0, inv0 = _ints([[(f0.inverse(),)]], ctx)
        dg, g = _invert(den, f, self.order, inv0, d0, ctx)
        return TruncSeries(_coeffs(dg, g[0][0], ctx), ctx)

    def log_derivative(self) -> "TruncSeries":
        """f'/f, reliable to order - 1."""
        return self.d_dz() * self.invert_unit()

    def hadamard(self, other) -> "TruncSeries":
        o = self._common(other)
        n = min(self.order, o.order)
        ctx = self.ctx
        (da, [[a]]), (db, [[b]]) = _ints([[self.coeffs[:n]]], ctx), _ints([[o.coeffs[:n]]], ctx)
        acc = _unfolded(ctx, n)
        for s, ra in enumerate(a):
            for t, rb in enumerate(b):
                acc[s + t] = list(map(add, acc[s + t], map(mul, ra, rb)))
        return TruncSeries(_coeffs(da * db, acc, ctx), ctx)

    # -- congruences ---------------------------------------------------------

    def first_discrepancy(self, other, m: int, upto: int):
        """Smallest j < upto with v(f_j - g_j) < m, or None."""
        o = self._common(other)
        if upto > min(self.order, o.order):
            raise ValueError("congruence window beyond reliable order")
        for j in range(upto):
            if (self.coeffs[j] - o.coeffs[j]).valuation() < m:
                return j
        return None

    def congruent_mod(self, other, m: int, upto: int) -> bool:
        return self.first_discrepancy(other, m, upto) is None

    def min_valuation(self, upto=None):
        """Smallest coefficient valuation on the window (INF if all zero)."""
        window = self.coeffs if upto is None else self.coeffs[:upto]
        vals = [c.valuation() for c in window]
        return min(vals, default=float("inf"))

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

    def __str__(self):
        shown = ", ".join(c.render() for c in self.coeffs[:6])
        tail = ", .." if self.order > 6 else ""
        return f"[{shown}{tail}] mod z^{self.order}"


# -- the integer kernel -------------------------------------------------------
#
# A "row" is a list of integer numerators along z. An entry (a series, or a
# constant as a series of order 1) is a list of rows, one per pi-component,
# over a denominator held beside it. A product of two entries has 2e - 1
# "unfolded" rows (pi^0 up to pi^(2e-2)); _fold turns them back into e rows
# with pi^e = -p.


def _ints(matrix, ctx):
    """(den, entries) for a square matrix of coefficient sequences (a series
    is a 1 x 1 matrix): entries[i][k][t][j] / den is the pi^t part of
    matrix[i][k][j], and den is the least common denominator of every part."""
    seqs = [seq for row in matrix for seq in row]
    den = math.lcm(*(x.denominator for seq in seqs for c in seq for x in c.parts))
    flat = [
        [[x.numerator * (den // x.denominator) for x in (c.parts[t] for c in seq)]
         for t in range(ctx.e)]
        for seq in seqs
    ]
    n = len(matrix)
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


def _coeffs(den, rows, ctx):
    """Coefficients of rows over den; unfolded rows are folded first."""
    if len(rows) > ctx.e:
        rows = _fold(rows, ctx)
    return tuple(
        Coefficient(tuple(Fraction(x, den) for x in col), ctx) for col in zip(*rows)
    )


def _conv_add(out, a, b):
    """out[k] += sum_(i+j=k) a[i] * b[j] for every k < len(out)."""
    n = len(out)
    for i, x in enumerate(a[:n]):
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


def _lincomb(a, b, c):
    """a + c * b, entrywise, for two matrices of entries of one shape."""
    return [
        [
            [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(ea, eb)]
            for ea, eb in zip(rowa, rowb)
        ]
        for rowa, rowb in zip(a, b)
    ]


def _recurrence(dm, m, x0, d0, order, solve, ctx):
    """Integer form of the series matrix X with X_0 = x0 / d0 and, for j >= 1,
    X_j = solve(j, R_j) where R_j = sum_(l=1..j) M_l X_(j-l).

    m holds M's entries over dm and x0 constant entries. solve(j, r, dr) gets
    R_j as constant entries r over dr and returns X_j the same way, as
    (entries, denominator). Returns (den, x): X's entries over one common
    denominator, which grows only to the least common denominator of the
    coefficients solved so far.
    """
    size = len(m)
    x = [[[r[:] for r in entry] for entry in row] for row in x0]
    den = d0
    # the nonzero rows of M_1, M_2, ..: (i, k, s, row) with row[l - 1] = M_l
    terms = [
        (i, k, s, row[1:])
        for i in range(size)
        for k in range(size)
        for s, row in enumerate(m[i][k])
        if any(row[1:])
    ]
    for j in range(1, order):
        r = [[_unfolded(ctx, 1) for _ in range(size)] for _ in range(size)]
        for i, k, s, tail in terms:
            head = tail[:j]
            for c in range(size):
                acc = r[i][c]
                for t, xs in enumerate(x[k][c]):
                    acc[s + t][0] += sum(map(mul, head, reversed(xs)))
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


def _invert(dm, m, order, inv0, d0, ctx):
    """Integer form of M^-1 to the given order, from M's entries over dm and
    the inverse inv0 / d0 of M_0: X_j = -M_0^-1 sum_(l=1..j) M_l X_(j-l)."""
    minus_inv0 = [[[[-v for v in r] for r in entry] for entry in row] for row in inv0]

    def solve(j, r, dr):
        return _matmul_ints(minus_inv0, r, ctx, 1), d0 * dr

    return _recurrence(dm, m, inv0, d0, order, solve, ctx)
