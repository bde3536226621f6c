import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartier import (
    BadParameters,
    Coefficient,
    INF,
    NegativeValuation,
    PadicContext,
    parse_coefficient,
)
from cartier.rational import Polynomial, canonical_lift
from cartier.rings import _render
from cartier.series import TruncSeries
from oracle import KERNEL_CONTEXTS, SHAPES, ref_render, shaped_series

U5 = PadicContext.unramified(5)
U3 = PadicContext.unramified(3)
D3 = PadicContext.dwork(3)
D5 = PadicContext.dwork(5)
D2 = PadicContext.dwork(2)
D7 = PadicContext.dwork(7)


def rationals(max_num=50, max_den=12):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def coefficients(ctx):
    return st.builds(
        lambda parts: ctx.coeff(parts), st.tuples(*[rationals() for _ in range(ctx.e)])
    )


def solve_exact(matrix, rhs):
    """X with matrix X = rhs, both lists of rows of Fractions, by Gauss-Jordan
    elimination over Q; ZeroDivisionError when the matrix is singular."""
    n = len(matrix)
    a = [row[:] + rhs[i] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n:] for i in range(n)]


def solve_exact_inverse(c):
    """The field inverse by Gauss-Jordan on the multiplication matrix: column
    j holds the components of c * pi^j, and the inverse solves M x = 1."""
    e = c.ctx.e
    cols, power = [], c
    for _ in range(e):
        cols.append(power.parts)
        power = power * c.ctx.pi()
    matrix = [[cols[j][i] for j in range(e)] for i in range(e)]
    unit = [[Fraction(int(i == 0))] for i in range(e)]
    return Coefficient(tuple(x for (x,) in solve_exact(matrix, unit)), c.ctx)


class TestInverseAgainstSolveExact:
    """Coefficient.inverse runs the integer remainder sequence of X^e + p and
    the element; the reference solves the e x e Fraction system."""

    @pytest.mark.parametrize("ctx", [U5, D2, D3, D5, D7], ids=lambda c: f"p{c.prime}e{c.e}")
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches(self, ctx, data):
        dens = st.sampled_from([1, 2, 3, ctx.prime, ctx.prime**2, 4 * ctx.prime**3])
        parts = [
            Fraction(data.draw(st.integers(-10**6, 10**6)), data.draw(dens)) for _ in range(ctx.e)
        ]
        if data.draw(st.booleans()):
            # a single component, or the top one only, or p-divisible ones
            keep = data.draw(st.integers(0, ctx.e - 1))
            parts = [x if i == keep else Fraction(0) for i, x in enumerate(parts)]
        c = ctx.coeff(tuple(parts))
        if c.is_zero():
            return
        assert c.inverse() == solve_exact_inverse(c)
        assert c * c.inverse() == ctx.one()

    @pytest.mark.parametrize("ctx", [D3, D5, D7], ids=lambda c: f"e{c.e}")
    def test_powers_of_pi_and_units(self, ctx):
        pi = ctx.pi()
        for c in (pi, pi ** (ctx.e - 1), pi**ctx.e, 1 + pi, ctx.coeff(Fraction(-7, ctx.prime))):
            assert c.inverse() == solve_exact_inverse(c)


class TestContext:
    def test_ramification_index(self):
        assert U5.e == 1
        assert D3.e == 2
        assert D5.e == 4
        assert D2.e == 1

    def test_rejects_composite_prime(self):
        with pytest.raises(BadParameters):
            PadicContext.unramified(6)

    def test_eisenstein_relation_holds_exactly(self):
        for ctx in (D2, D3, D5):
            pi = ctx.pi()
            assert pi ** (ctx.prime - 1) == ctx.coeff(-ctx.prime)

    def test_contexts_compare_by_ring_not_bookkeeping(self):
        assert PadicContext.unramified(5) != PadicContext.dwork(5)


class TestValuation:
    def test_uniformizer_and_prime(self):
        assert U5.pi().valuation() == 1
        assert D3.pi().valuation() == 1
        assert D3.coeff(3).valuation() == 2
        assert D5.coeff(5).valuation() == 4

    def test_zero_is_infinite(self):
        assert U5.zero().valuation() == INF
        assert D3.zero().valuation() == INF

    def test_negative_valuation_of_denominator(self):
        assert U5.coeff(Fraction(3, 5)).valuation() == -1
        assert D3.coeff(Fraction(1, 3)).valuation() == -2

    def test_mixed_component_valuation(self):
        # 3 + pi has v = min(2, 1) = 1; 9 + 3*pi has v = min(4, 3) = 3
        assert (D3.coeff(3) + D3.pi()).valuation() == 1
        assert (D3.coeff(9) + 3 * D3.pi()).valuation() == 3

    @given(a=coefficients(D3), b=coefficients(D3))
    @settings(max_examples=60, deadline=None)
    def test_valuation_laws(self, a, b):
        va, vb = a.valuation(), b.valuation()
        assert (a * b).valuation() == va + vb
        assert (a + b).valuation() >= min(va, vb)


class TestArithmetic:
    @given(a=coefficients(D5), b=coefficients(D5), c=coefficients(D5))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(a=coefficients(D3))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, a):
        if not a.is_zero():
            assert a * a.inverse() == D3.one()

    def test_inverse_of_uniformizer(self):
        pi = D3.pi()
        assert pi * pi.inverse() == D3.one()
        # 1/pi = -pi/3 since pi^2 = -3
        assert pi.inverse() == D3.coeff((0, Fraction(-1, 3)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            D3.one() / D3.zero()


def residue(c, m):
    """The canonical residue of c mod pi^m, by canonical_lift of the series c."""
    return canonical_lift(TruncSeries((c,), c.ctx), m)[0]


class TestCanonicalResidue:
    def test_unramified_canonical_residue(self):
        assert residue(U3.coeff(10), 2) == U3.one()
        assert residue(U3.coeff(Fraction(1, 2)), 1) == U3.coeff(2)

    def test_negative_valuation_rejected(self):
        with pytest.raises(NegativeValuation):
            residue(U3.coeff(Fraction(1, 3)), 2)

    def test_dwork_residue_folds_pi_powers(self):
        # pi^3 + 3 = 3 - 3*pi; mod pi^3 the pi-component dies (v(3*pi) = 3)
        pi = D3.pi()
        value = pi**3 + 3
        assert residue(value, 3) == D3.coeff(3)

    @given(a=coefficients(D3), b=coefficients(D3), m=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_residues_agree_iff_congruent(self, a, b, m):
        if a.valuation() < 0 or b.valuation() < 0:
            return
        same = residue(a, m) == residue(b, m)
        assert same == ((a - b).valuation() >= m)


@st.composite
def rendered_columns(draw):
    """(ctx, den, column): e in {1, 2, 4}, a den > 0, and e integers over it
    with zero, +-1 and negative parts."""
    ctx = draw(st.sampled_from([U5, D3, D5]))
    den = draw(st.integers(1, 12))
    part = st.one_of(st.integers(-2, 2).map(den.__mul__), st.integers(-60, 60))
    return ctx, den, draw(st.lists(part, min_size=ctx.e, max_size=ctx.e))


class TestRowRenderer:
    """rings._render, which renders every series, polynomial and Coefficient
    of a report, against the rendering on Fractions."""

    @given(rendered_columns())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_rendering(self, case):
        ctx, den, column = case
        parts = tuple(Fraction(x, den) for x in column)
        assert _render(den, column) == ref_render(parts)
        assert Coefficient(parts, ctx).render() == ref_render(parts)

    @pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
    def test_series_and_polynomials_render_each_coefficient(self, ctx):
        rng = random.Random(f"render/{ctx.e}")
        for shape in SHAPES:
            f = shaped_series(rng, ctx, 9, shape)
            want = [ref_render(c.parts) for c in f.coeffs]
            assert f.render() == want
            assert f.to_json_dict()["coeffs"] == want
            poly = Polynomial.from_coeffs(ctx, f.coeffs)
            assert poly.render() == [ref_render(c.parts) for c in poly.coeffs]


class TestTextForm:
    def test_canonical_examples(self):
        assert U5.coeff(Fraction(-3, 7)).render() == "-3/7"
        assert D3.coeff((2, Fraction(1, 3))).render() == "2 + 1/3*pi"
        assert D5.coeff((1, 0, -1, 0)).render() == "1 - pi^2"
        assert D3.zero().render() == "0"

    def test_parse_examples(self):
        assert parse_coefficient("-3/7", U5) == U5.coeff(Fraction(-3, 7))
        assert parse_coefficient("1/070", U5) == U5.coeff(Fraction(1, 70))
        assert parse_coefficient("2 + 1/3*pi", D3) == D3.coeff((2, Fraction(1, 3)))
        assert parse_coefficient("pi^3", D5) == D5.pi() ** 3
        # high powers fold through the Eisenstein relation
        assert parse_coefficient("pi^2", D3) == D3.coeff(-3)
        assert parse_coefficient("pi", U5) == U5.coeff(5)

    @pytest.mark.parametrize("ctx", [U5, D2, D3, D5], ids=["u5", "d2-e1", "d3-e2", "d5-e4"])
    def test_parse_against_pi_power_products(self, ctx):
        """c pi^k parses to the Coefficient product c * pi^k for every power
        to 3e + 1, in each text form of a term, and a sum of terms to the
        sum of the products; pi^e is p unramified and -p for Dwork."""
        pi = ctx.pi()
        values = [1, -1, 3, Fraction(-2, 7), Fraction(5, 3)]
        for k in range(3 * ctx.e + 2):
            for c in values:
                texts = [f"{c}*pi^{k}"] + [f"{c}*pi"] * (k == 1) + [str(c)] * (k == 0)
                if abs(c) == 1:
                    sign = "-" if c < 0 else ""
                    texts += [f"{sign}pi^{k}"] + [f"{sign}pi"] * (k == 1)
                for text in texts:
                    assert parse_coefficient(text, ctx) == c * pi**k, text
        rng = random.Random(f"parse/{ctx.prime}/{ctx.e}")
        for _ in range(40):
            count = rng.randrange(1, 5)
            terms = [(rng.choice(values), rng.randrange(3 * ctx.e + 2)) for _ in range(count)]
            text = "".join(f"{'-' if c < 0 else '+'} {abs(c)}*pi^{k} " for c, k in terms)
            want = sum((c * pi**k for c, k in terms), ctx.zero())
            assert parse_coefficient(text, ctx) == want, text

    def test_parse_rejects_garbage(self):
        for bad in ("", "1 +", "pi*pi", "2**pi", "a/b", "1/0", "2 + 3/00*pi"):
            with pytest.raises(BadParameters):
                parse_coefficient(bad, D3)

    @given(a=coefficients(D5))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_dwork(self, a):
        assert parse_coefficient(a.render(), D5) == a

    @given(a=coefficients(U5))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_unramified(self, a):
        assert parse_coefficient(a.render(), U5) == a


def test_hash_consistent_with_equality():
    a = D3.coeff((1, 2))
    b = D3.coeff((Fraction(2, 2), Fraction(4, 2)))
    assert a == b and hash(a) == hash(b)


class TestForeignOperands:
    @pytest.mark.parametrize("ctx", [U5, D3, D5], ids=lambda c: f"e{c.e}")
    def test_coefficient_times_series_commutes(self, ctx):
        f = TruncSeries.from_coeffs(ctx, [1, 2, Fraction(1, ctx.prime), 0, 7])
        for c in (ctx.pi(), ctx.coeff([Fraction(2, 3)] * ctx.e), ctx.zero()):
            assert c * f == f * c
            assert (c * f).coeffs == tuple(c * a for a in f.coeffs)

    def test_other_operands_are_not_coerced(self):
        c = D3.coeff((1, 2))
        for bad in ("3", (3,), 3.0, None):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(c, bad)
                with pytest.raises(TypeError):
                    op(bad, c)

    def test_ints_and_fractions_still_coerce(self):
        c = D3.coeff((1, 2))
        assert c * 2 == 2 * c == c + c
        assert Fraction(1, 2) - c == -(c - Fraction(1, 2))
        assert 1 / c == c.inverse() and c / 3 == c * Fraction(1, 3)
