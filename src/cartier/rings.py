"""Exact coefficient arithmetic over the two supported p-adic contexts.

A context is either unramified (elements are plain rationals, uniformizer p)
or Dwork-Eisenstein ramified: elements of Q[pi]/(pi^(p-1) + p), stored as
e = p - 1 exact rational coordinates c0..c_(e-1) on the basis 1, pi, ..,
pi^(e-1). All arithmetic is exact; nothing is ever rounded. Reduction to a
residue happens only when a congruence is actually being checked.

Valuations are reported in integer pi-units, v(pi) = 1 and v(p) = e, so that
"congruent mod pi^m" is an integer comparison in every context. For a nonzero
element sum c_i pi^i the valuation is min_i (e*v_p(c_i) + i); the terms have
distinct residues mod e, so the minimum is attained exactly once and there is
no cancellation to account for.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
import sys
from fractions import Fraction
from operator import attrgetter

from .errors import BadParameters

INF = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _p_adic_order(n: int, p: int) -> int:
    """v_p of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _capped_power(p: int, k: int, n: int) -> int:
    """p^k when k <= n.bit_length(), else p^(n.bit_length()), which already
    exceeds n: either way it compares with every int from 0 to n as p^k
    does, without forming a huge p^k only to bound a window of n terms."""
    return p ** min(k, n.bit_length())


def rational_valuation(x: Fraction, p: int):
    """p-adic valuation of a rational, INF for zero."""
    if x == 0:
        return INF
    return _p_adic_order(x.numerator, p) - _p_adic_order(x.denominator, p)


def _component_digits(m: int, t: int, e: int) -> int:
    """ceil((m - t)/e): for a rational x, x * pi^t has valuation >= m
    exactly when v_p(x) reaches it, since v(pi) = 1 and v(p) = e."""
    return -((t - m) // e)


def record(cls):
    """Make cls an immutable record of its annotated fields, in order, as
    @dataclass(frozen=True) would, with methods written once here instead of
    generated for each class: positional or keyword construction (a class
    attribute is the field's default) followed by __post_init__, equality
    between instances of one class field by field, the hash of the field
    tuple, the repr Name(field=value, ...), and AttributeError on assignment
    or deletion. A method the class defines itself is kept."""
    names = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    # attrgetter of one name gives the bare value, not a 1-tuple
    values = attrgetter(*names) if len(names) > 1 else lambda r: tuple(getattr(r, f) for f in names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls.__name__, names, defaults, args, kwargs)
        fields = self.__dict__
        for name, value in zip(names, args):
            fields[name] = value
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        # a class that defines __eq__ alone has __hash__ None: it gets ours
        if cls.__dict__.get(method.__name__) is None:
            setattr(cls, method.__name__, method)
    return cls


def _bind(name, names, defaults, args, kwargs):
    """The field values of name(*args, **kwargs), in field order, or the
    TypeError of a call with a wrong argument list."""
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} arguments but {len(args)} were given")
    bound = dict(zip(names, args))
    for key in kwargs:
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in bound:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
    bound = {**defaults, **bound, **kwargs}
    missing = [n for n in names if n not in bound]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return [bound[n] for n in names]


class Ramification(enum.Enum):
    UNRAMIFIED = "unramified"
    DWORK = "dwork"


@record
class PadicContext:
    """Identity of the coefficient ring: the prime and the ramification.

    Its attribute e, the ramification index (v(p) = e in pi-units), is not a
    field: it is derived from the two fields once, because every Coefficient
    construction reads it.
    """

    prime: int
    ramification: Ramification

    def __post_init__(self):
        if not _is_prime(self.prime):
            raise BadParameters(f"{self.prime} is not prime")
        unramified = self.ramification is Ramification.UNRAMIFIED
        object.__setattr__(self, "e", 1 if unramified else max(self.prime - 1, 1))

    @classmethod
    def unramified(cls, p: int) -> "PadicContext":
        return cls(p, Ramification.UNRAMIFIED)

    @classmethod
    def dwork(cls, p: int) -> "PadicContext":
        """Context for Q_p(pi) with pi a root of X^(p-1) + p.

        For p = 2 the relation degenerates to pi = -2 and the field is Q_2
        again, with e = 1.
        """
        return cls(p, Ramification.DWORK)

    def coeff(self, x) -> "Coefficient":
        """Coerce an int, Fraction, component tuple, or text form."""
        if isinstance(x, Coefficient):
            if x.ctx != self:
                raise BadParameters("coefficient from a different context")
            return x
        if isinstance(x, str):
            return parse_coefficient(x, self)
        if isinstance(x, (list, tuple)):
            parts = [Fraction(c) for c in x]
            if len(parts) > self.e:
                raise BadParameters("too many pi-components for this context")
            parts += [Fraction(0)] * (self.e - len(parts))
            return Coefficient(tuple(parts), self)
        parts = (Fraction(x),) + (Fraction(0),) * (self.e - 1)
        return Coefficient(parts, self)

    def zero(self) -> "Coefficient":
        return self.coeff(0)

    def one(self) -> "Coefficient":
        return self.coeff(1)

    def pi(self) -> "Coefficient":
        """The uniformizer: p when unramified, else the Eisenstein root.

        Dwork p = 2 is the degenerate case pi = -2.
        """
        if self.ramification is Ramification.UNRAMIFIED:
            return self.coeff(self.prime)
        if self.e == 1:
            return self.coeff(-self.prime)
        return self.coeff((0, 1))


@record
class Coefficient:
    """An exact element sum_i parts[i] * pi^i of the context's field."""

    parts: tuple
    ctx: PadicContext

    def __init__(self, parts: tuple, ctx: PadicContext):
        # written out, not record's: every arithmetic result is built here
        if len(parts) != ctx.e:
            raise BadParameters("component count must equal the ramification index")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "ctx", ctx)

    # -- ring structure -----------------------------------------------------

    def _lift(self, other):
        """other as a Coefficient of this context, or None for an operand
        that is not an int, a Fraction or a Coefficient (the operators then
        return NotImplemented, so the other operand's reflected one runs)."""
        if isinstance(other, Coefficient):
            if other.ctx != self.ctx:
                raise BadParameters("mixed contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.coeff(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Coefficient(tuple(a + b for a, b in zip(self.parts, o.parts)), self.ctx)

    __radd__ = __add__

    def __neg__(self):
        return Coefficient(tuple(-a for a in self.parts), self.ctx)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Coefficient(tuple(a - b for a, b in zip(self.parts, o.parts)), self.ctx)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.ctx.e == 1:
            return Coefficient((self.parts[0] * o.parts[0],), self.ctx)
        (da, a), (db, b) = _int_parts(self), _int_parts(o)
        prod = _ring_mul(a, b, self.ctx.prime)
        return Coefficient(tuple(Fraction(x, da * db) for x in prod), self.ctx)

    __rmul__ = __mul__

    def inverse(self) -> "Coefficient":
        """Exact field inverse, from the integer remainder sequence of
        X^e + p and this element (_ring_inverse)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        d, inv = _ring_inverse(*_int_parts(self), self.ctx.prime)
        return Coefficient(tuple(Fraction(x, d) for x in inv), self.ctx)

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.coeff(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.ctx == other.ctx and self.parts == other.parts

    def __hash__(self):
        return hash((self.parts, self.ctx.prime, self.ctx.ramification))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return not any(self.parts)

    # -- valuation -----------------------------------------------------------

    def valuation(self):
        """pi-adic valuation as an integer, INF for zero."""
        p = self.ctx.prime
        e = self.ctx.e
        best = INF
        for i, c in enumerate(self.parts):
            if c == 0:
                continue
            v = e * rational_valuation(c, p) + i
            if v < best:
                best = v
        return best

    # -- text form -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text, as _render gives it."""
        return _render(*_int_parts(self))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Coefficient({self.render()!r}, p={self.ctx.prime}, {self.ctx.ramification.value})"


def _render(den, column):
    """Canonical text of sum_t column[t] pi^t / den, for integers column[t]
    and den > 0: "a/b" terms joined with signs, pi powers marked.

    Examples: "3", "-1/2", "2 + 1/3*pi", "1 - pi^2". BadParameters when an
    integer is longer than Python prints (sys.get_int_max_str_digits).
    """
    text = ""
    for t, x in enumerate(column):
        if x:
            g = math.gcd(x, den)
            try:
                body = str(abs(x) // g) if g == den else f"{abs(x) // g}/{den // g}"
            except ValueError:  # past Python's int to str limit, sys.get_int_max_str_digits
                limit = f"the limit of {sys.get_int_max_str_digits()} digits"
                raise BadParameters(f"a coefficient is longer than {limit}") from None
            if t:
                power = "pi" if t == 1 else f"pi^{t}"
                body = power if body == "1" else f"{body}*{power}"
            if text:
                text += f" - {body}" if x < 0 else f" + {body}"
            else:
                text = f"-{body}" if x < 0 else body
    return text or "0"


_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/0*[1-9]\d*)?)?(?P<star>\*)?(?P<pi>pi(?:\^(?P<pow>\d+))?)?$"
)


def parse_coefficient(text: str, ctx: PadicContext) -> Coefficient:
    """Parse the canonical text form back, bit-exactly.

    Accepts any pi power, so operator files may write e.g. "pi^3" even
    though the canonical form would not: pi^(qe + t) = (pi^e)^q pi^t, with
    pi^e = p unramified and -p for Dwork (p = 2 included, where pi = -2).
    """
    compact = text.replace(" ", "")
    if not compact:
        raise BadParameters("empty coefficient text")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise BadParameters(f"cannot parse coefficient {text!r}")
    e = ctx.e
    pi_e = ctx.prime if ctx.ramification is Ramification.UNRAMIFIED else -ctx.prime
    parts = [Fraction(0)] * e
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        term = term.lstrip("+-")
        m = _TERM_RE.match(term)
        if not m or (m.group("star") and not (m.group("coef") and m.group("pi"))):
            raise BadParameters(f"cannot parse coefficient term {term!r}")
        if not m.group("coef") and not m.group("pi"):
            raise BadParameters(f"cannot parse coefficient term {term!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        power = int(m.group("pow") or 1) if m.group("pi") else 0
        q, t = divmod(power, e)
        parts[t] += sign * coef * pi_e**q
    return Coefficient(tuple(parts), ctx)


# -- integer rows ---------------------------------------------------------------
#
# An element of Z[pi]/(pi^e + p) is a list of its e integer pi-components; a
# polynomial over it is e int lists of one length, list i holding component i
# of every z-coefficient. With one list, it is a polynomial over Z.


def _int_parts(c: Coefficient):
    """(den, nums): the parts of c are nums[i] / den, den their lcm."""
    den = math.lcm(*(x.denominator for x in c.parts))
    return den, [x.numerator * (den // x.denominator) for x in c.parts]


def _terms(c, rows, p):
    """c * rows as (component, factor, row) terms: component i of c times
    row j lands in component i + j, folded through pi^e = -p."""
    e = len(rows)
    return [
        (i + j, ci, row) if i + j < e else (i + j - e, -p * ci, row)
        for i, ci in enumerate(c)
        if ci
        for j, row in enumerate(rows)
    ]


def _scale(c, rows, p):
    """The polynomial rows times the ring element c."""
    if len(rows) == 1:
        return [[c[0] * x for x in rows[0]]]
    out = [None] * len(rows)
    for k, f, row in _terms(c, rows, p):
        prev = out[k]
        out[k] = [f * x for x in row] if prev is None else [u + f * x for u, x in zip(prev, row)]
    return [[0] * len(rows[0]) if row is None else row for row in out]


def _ring_mul(a, b, p):
    """Product of two elements of Z[pi]/(pi^e + p)."""
    return [row[0] for row in _scale(a, [[x] for x in b], p)]


def _rowop(a, acc, c, shift, rows, p):
    """a*acc - c*z^shift*rows for ring elements a and c; acc must be long enough."""
    n = len(rows[0])
    if len(acc) == 1:
        out, f = [a[0] * x for x in acc[0]], c[0]
        out[shift:shift + n] = [u - f * x for u, x in zip(out[shift:shift + n], rows[0])]
        return [out]
    out = _scale(a, acc, p)
    for k, f, row in _terms(c, rows, p):
        dst = out[k]
        dst[shift:shift + n] = [u - f * x for u, x in zip(dst[shift:shift + n], row)]
    return out


def _strip(rows):
    """Drop the top z-degrees at which every component is zero."""
    if len(rows) == 1:
        row = rows[0]
        while row and not row[-1]:
            row.pop()
        return rows
    n = len(rows[0])
    while n and not any([row[n - 1] for row in rows]):
        n -= 1
    for row in rows:
        del row[n:]
    return rows


def _primitive(*polys):
    """The row polynomials divided by the gcd of all their integers."""
    g = math.gcd(*itertools.chain.from_iterable(itertools.chain.from_iterable(polys)))
    if g > 1:
        return [[[x // g for x in row] for row in poly] for poly in polys]
    return list(polys)


def _pseudo_step(prev, cur, p):
    """One pseudo-division step over Z[pi]/(pi^e + p): prev and cur are
    lists [r, *cofactors] of row polynomials, cur's r nonzero, and each
    member of prev becomes lead*member - c*z^k*(cur's member), k from the
    top down, lead being the leading ring element of cur's r. A relation
    r = sum_i cofactor_i * x_i of prev and cur holds for the stripped result."""
    r_prev, r_cur = prev[0], cur[0]
    deg = len(r_cur[0]) - 1
    lead = [row[deg] for row in r_cur]
    shift = len(r_prev[0]) - 1 - deg
    out = [r_prev] + [
        [row + [0] * (max(len(a[0]), shift + len(b[0])) - len(row)) for row in a]
        for a, b in zip(prev[1:], cur[1:])
    ]
    for k in range(shift, -1, -1):
        c = [row[k + deg] for row in out[0]]
        if any(c):
            out = [_rowop(lead, a, c, k, b, p) for a, b in zip(out, cur)]
    return [_strip(a) for a in out]


def _adjugate(c, p):
    """(r, t) with t * c = r in Z[pi]/(pi^e + p), r a nonzero integer, for a
    nonzero ring element c: the primitive remainder sequence over Z of the
    Eisenstein X^e + p and c(X), prime to each other, ends at a constant
    r = s (X^e + p) + t c(X), and X = pi gives t c = r."""
    e = len(c)
    prev = [[[p] + [0] * (e - 1) + [1]], [[]]]
    cur = [_strip([list(c)]), [[1]]]
    while len(cur[0][0]) > 1:
        prev, cur = cur, _primitive(*_pseudo_step(prev, cur, p))
    r, t = cur[0][0][0], cur[1][0]
    return r, t + [0] * (e - len(t))


def _ring_inverse(den, c, p):
    """(d, x) with x / d the inverse of the nonzero element c / den of
    Q[pi]/(pi^e + p), c its e integer pi-components, in canonical form
    (d > 0, gcd(d, *x) = 1)."""
    r, t = _adjugate(c, p)
    x = [den * v if r > 0 else -den * v for v in t]
    g = math.gcd(r, *x)
    return abs(r) // g, [v // g for v in x]
