"""TruncSeries and its integer row kernel, against the plain Coefficient loops
of tests/oracle.py."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartier import (
    BadParameters,
    IntegralityFailure,
    IntegralityReport,
    NegativeValuation,
    NotAUnit,
    PadicContext,
    Ramification,
    catalog,
    integrality_check,
    parse_coefficient,
)
from cartier.diffops import SeriesMatrix
from cartier.rational import Polynomial, canonical_lift
from cartier.rings import INF
from cartier.series import TruncSeries
from oracle import (
    KERNEL_CONTEXTS,
    SHAPES,
    geometric,
    random_coeff,
    ref_invert_unit,
    ref_mul,
    shaped_series,
)

U3 = PadicContext.unramified(3)
U5 = PadicContext.unramified(5)
D3 = PadicContext.dwork(3)


def series_strategy(ctx, order=12, max_num=30):
    body = st.lists(
        st.fractions(min_value=-max_num, max_value=max_num, max_denominator=8),
        min_size=order,
        max_size=order,
    )
    return st.builds(lambda cs: TruncSeries.from_coeffs(ctx, cs), body)


def unit_series(ctx, order=12):
    return series_strategy(ctx, order).map(
        lambda f: TruncSeries((ctx.one(),) + f.coeffs[1:], ctx)
    )


class TestBasics:
    def test_delta(self):
        f = TruncSeries.from_coeffs(U3, [1, 2, 3])
        assert f.delta() == TruncSeries.from_coeffs(U3, [0, 2, 6])
        assert TruncSeries.one(U3, 5).delta().is_zero()

    def test_d_dz_drops_order(self):
        f = TruncSeries.from_coeffs(U3, [7, 0, 1, 0])
        g = f.d_dz()
        assert g.order == 3
        assert g == TruncSeries.from_coeffs(U3, [0, 2, 0])
        assert geometric(U3, 6).d_dz() == TruncSeries.from_coeffs(U3, [1, 2, 3, 4, 5])

    def test_mul_truncates_to_common_order(self):
        f = geometric(U3, 8)
        g = TruncSeries.from_coeffs(U3, [1, -1])
        assert (f * g) == TruncSeries.from_coeffs(U3, [1, 0])

    def test_scalar_mul(self):
        f = geometric(U5, 4)
        assert (f * Fraction(1, 2))[3] == U5.coeff(Fraction(1, 2))
        assert (3 * f)[0] == U5.coeff(3)


class TestCartier:
    def test_read_off_definition(self):
        f = TruncSeries.from_coeffs(U3, [0, 0, 0, 1, 2, 0, 5])  # z^3+2z^4+5z^6
        assert f.cartier() == TruncSeries.from_coeffs(U3, [0, 1, 5])

    def test_geometric_fixed_point(self):
        f = geometric(U3, 27)
        assert f.cartier() == geometric(U3, 9)

    def test_order_shrinks_by_p(self):
        assert geometric(U5, 11).cartier().order == 3  # ceil(11/5)

    @given(f=series_strategy(U3, order=15))
    @settings(max_examples=60, deadline=None)
    def test_commutation_with_delta(self, f):
        # Lambda_p(delta f) = p * delta(Lambda_p f)
        lhs = f.delta().cartier()
        rhs = f.cartier().delta() * 3
        assert lhs == rhs

    @given(g=series_strategy(U3, order=18), h=series_strategy(U3, order=6))
    @settings(max_examples=40, deadline=None)
    def test_projection_formula(self, g, h):
        # Lambda_p(g * h(z^p)) = Lambda_p(g) * h
        lhs = (g * h.subst_zpk(1)).cartier()
        rhs = g.cartier() * h
        n = min(lhs.order, rhs.order)
        assert lhs.truncate(n) == rhs.truncate(n)

    @given(f=series_strategy(U5, order=9))
    @settings(max_examples=30, deadline=None)
    def test_section_property(self, f):
        assert f.subst_zpk(1).cartier() == f


class TestSubst:
    def test_simple(self):
        f = TruncSeries.from_coeffs(U5, [1, 1])
        g = f.subst_zpk(1)
        assert g.order == 10
        assert [c for c in g.coeffs] == [U5.coeff(v) for v in [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]]

    def test_identity_at_k_zero(self):
        f = geometric(U5, 7)
        assert f.subst_zpk(0) is f


class TestUnits:
    def test_invert_geometric(self):
        f = TruncSeries.from_coeffs(U3, [1, -1, 0, 0, 0])
        assert f.invert_unit() == geometric(U3, 5)

    def test_invert_requires_unit(self):
        with pytest.raises(NotAUnit):
            TruncSeries.from_coeffs(U3, [0, 1]).invert_unit()

    @given(f=unit_series(U3))
    @settings(max_examples=50, deadline=None)
    def test_invert_round_trip(self, f):
        assert f * f.invert_unit() == TruncSeries.one(U3, f.order)

    @given(f=unit_series(D3, order=8))
    @settings(max_examples=25, deadline=None)
    def test_invert_round_trip_ramified(self, f):
        assert f * f.invert_unit() == TruncSeries.one(D3, f.order)

    def test_log_derivative_of_geometric(self):
        # (1/(1-z))'/(1/(1-z)) = 1/(1-z)
        f = geometric(U3, 10)
        assert f.log_derivative() == geometric(U3, 9)

    @given(f=unit_series(U5, order=9), g=unit_series(U5, order=9))
    @settings(max_examples=40, deadline=None)
    def test_log_derivative_additivity(self, f, g):
        lhs = (f * g).log_derivative()
        rhs = f.log_derivative() + g.log_derivative()
        assert lhs == rhs


# The integer kernel against the plain Coefficient loops of the oracle, whose
# arithmetic is tested on its own.

def with_unit_constant(rng, f):
    c = random_coeff(rng, f.ctx)
    while c.is_zero():
        c = random_coeff(rng, f.ctx)
    return TruncSeries((c,) + f.coeffs[1:], f.ctx)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
@pytest.mark.parametrize("shape", SHAPES)
class TestKernelAgainstCoefficientLoops:
    ORDERS = (1, 2, 7, 13)

    def test_product(self, ctx, shape):
        rng = random.Random(f"mul/{ctx.e}/{shape}")
        for order in self.ORDERS:
            f = shaped_series(rng, ctx, order, shape)
            g = shaped_series(rng, ctx, order + rng.randrange(3), rng.choice(SHAPES))
            assert f * g == ref_mul(f, g)
            assert g * f == ref_mul(g, f)
            # f(z^p), nonzero only at multiples of p, on either side of a
            # product: the kernel walks the operand with fewer nonzero terms
            strided = f.subst_zpk(1)
            g = shaped_series(rng, ctx, strided.order, rng.choice(SHAPES))
            assert strided * g == ref_mul(strided, g)
            assert g * strided == ref_mul(g, strided)

    def test_invert_unit(self, ctx, shape):
        rng = random.Random(f"inv/{ctx.e}/{shape}")
        for order in self.ORDERS:
            f = with_unit_constant(rng, shaped_series(rng, ctx, order, shape))
            assert f.invert_unit() == ref_invert_unit(f)

    def test_invert_unit_with_empty_steps(self, ctx, shape):
        # 1 leaves nothing to solve after the constant term; 1 - z leaves
        # something at every step; f(z^p) only at multiples of p
        rng = random.Random(f"inv-sparse/{ctx.e}/{shape}")
        f = with_unit_constant(rng, shaped_series(rng, ctx, 48 // ctx.prime, shape))
        cases = [
            TruncSeries.one(ctx, 48),
            TruncSeries.from_coeffs(ctx, [1, -1] + [0] * 46),
            f.subst_zpk(1),
        ]
        for u in cases:
            assert u.invert_unit() == ref_invert_unit(u)
        assert cases[0].invert_unit() == cases[0]
        assert cases[1].invert_unit() == TruncSeries.from_coeffs(ctx, [1] * 48)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
class TestPowInt:
    def test_equals_repeated_products(self, ctx):
        rng = random.Random(f"pow/{ctx.e}")
        f = with_unit_constant(rng, shaped_series(rng, ctx, 9, "dense"))
        inv = ref_invert_unit(f)
        for n in range(-5, 9):
            want = TruncSeries.one(ctx, f.order)
            for _ in range(abs(n)):
                want = ref_mul(want, f if n > 0 else inv)
            assert f.pow_int(n) == want

    def test_squares_only_up_to_the_top_bit(self, ctx, monkeypatch):
        # n = 1 costs no product; otherwise one square per bit below the top
        # one and one product per set bit after the lowest
        products = [0]
        real_mul = TruncSeries.__mul__

        def mul(self, other):
            products[0] += 1
            return real_mul(self, other)

        f = with_unit_constant(random.Random(f"pow-count/{ctx.e}"), geometric(ctx, 6))
        monkeypatch.setattr(TruncSeries, "__mul__", mul)
        assert f.pow_int(1) is f
        for n in range(9):
            products[0] = 0
            f.pow_int(n)
            assert products[0] == max(0, n.bit_length() + bin(n).count("1") - 2)


class TestCongruence:
    def test_reflexive(self):
        f = geometric(U5, 6)
        assert f.first_discrepancy(f, 3, upto=6) is None

    def test_detects_p_multiples(self):
        one = TruncSeries.one(U5, 4)
        g = TruncSeries.from_coeffs(U5, [1, 5, 0, 0])
        h = TruncSeries.from_coeffs(U5, [1, 1, 0, 0])
        assert one.first_discrepancy(g, 1, upto=4) is None
        assert one.first_discrepancy(g, 2, upto=4) == 1
        assert one.first_discrepancy(h, 1, upto=4) == 1

    def test_window_must_be_reliable(self):
        f = geometric(U5, 6)
        with pytest.raises(ValueError):
            f.first_discrepancy(f.truncate(3), 1, upto=5)


def series_from_json(data):
    """The series that to_json_dict wrote, read back through its context and
    parse_coefficient."""
    ctx = PadicContext(data["p"], Ramification(data["ramification"]))
    assert len(data["coeffs"]) == data["N"]
    return TruncSeries(tuple(parse_coefficient(text, ctx) for text in data["coeffs"]), ctx)


class TestSerialization:
    def test_round_trip_unramified(self):
        f = TruncSeries.from_coeffs(U5, [1, Fraction(-2, 3), 0])
        assert series_from_json(f.to_json_dict()) == f

    def test_round_trip_dwork(self):
        pi = D3.pi()
        f = TruncSeries((D3.one(), pi, pi * pi * Fraction(1, 2)), D3)
        data = f.to_json_dict()
        assert data["ramification"] == "dwork"
        assert series_from_json(data) == f


# Row storage: every row operation against a plain Coefficient loop on the
# view, over series with p in their denominators, zero components, all-zero
# series, and orders 0, 1 and 13.

ROW_SHAPES = SHAPES + ("all-zero",)
ROW_ORDERS = (0, 1, 13)


def row_series(rng, ctx, order, shape):
    if shape == "all-zero":
        return TruncSeries(tuple(ctx.zero() for _ in range(order)), ctx)
    return shaped_series(rng, ctx, order, shape)


def assert_same(result, oracle):
    """Equal as values, equal views, and the rows in canonical form."""
    assert result == oracle
    assert result.coeffs == oracle.coeffs
    assert result.den > 0
    assert math.gcd(result.den, *(x for row in result.rows for x in row)) == 1
    assert len(result.rows) == result.ctx.e
    assert all(len(row) == result.order for row in result.rows)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
@pytest.mark.parametrize("shape", ROW_SHAPES)
class TestRowsAgainstCoefficientLoops:
    def pairs(self, ctx, shape, tag):
        rng = random.Random(f"{tag}/{ctx.e}/{shape}")
        for order in ROW_ORDERS:
            f = row_series(rng, ctx, order, shape)
            g = row_series(rng, ctx, order + rng.randrange(3), rng.choice(ROW_SHAPES))
            yield rng, f, g

    def test_add_sub_neg(self, ctx, shape):
        for _, f, g in self.pairs(ctx, shape, "add"):
            n = min(f.order, g.order)
            fc, gc = f.coeffs[:n], g.coeffs[:n]
            assert_same(f + g, TruncSeries(tuple(a + b for a, b in zip(fc, gc)), ctx))
            assert_same(f - g, TruncSeries(tuple(a - b for a, b in zip(fc, gc)), ctx))
            assert_same(-f, TruncSeries(tuple(-a for a in f.coeffs), ctx))
            assert (f - f).is_zero()

    def test_scalar_product(self, ctx, shape):
        for rng, f, _ in self.pairs(ctx, shape, "scale"):
            for c in (random_coeff(rng, ctx), Fraction(ctx.prime, 6), -3, 0, ctx.pi()):
                want = TruncSeries(tuple(ctx.coeff(c) * a for a in f.coeffs), ctx)
                assert_same(f * c, want)
                if isinstance(c, (int, Fraction)):
                    assert_same(c * f, want)

    def test_derivations_and_cartier(self, ctx, shape):
        for _, f, _ in self.pairs(ctx, shape, "delta"):
            scaled = tuple(c * j for j, c in enumerate(f.coeffs))
            assert_same(f.delta(), TruncSeries(scaled, ctx))
            assert_same(f.d_dz(), TruncSeries(scaled[1:], ctx))
            assert_same(f.cartier(), TruncSeries(f.coeffs[:: ctx.prime], ctx))

    def test_subst_and_truncate(self, ctx, shape):
        for _, f, _ in self.pairs(ctx, shape, "subst"):
            for k in (0, 1, 2):
                q = ctx.prime**k
                out = [ctx.zero()] * (f.order * q)
                out[::q] = f.coeffs
                assert_same(f.subst_zpk(k), TruncSeries(tuple(out), ctx))
            for upto in range(f.order + 1):
                assert_same(f.truncate(upto), TruncSeries(f.coeffs[:upto], ctx))

    def test_is_zero_and_first_nonzero(self, ctx, shape):
        for _, f, _ in self.pairs(ctx, shape, "zero"):
            assert f.is_zero() == all(c.is_zero() for c in f.coeffs)
            first = next((j for j, c in enumerate(f.coeffs) if not c.is_zero()), None)
            assert f.first_nonzero() == first

    def test_min_valuation(self, ctx, shape):
        for _, f, _ in self.pairs(ctx, shape, "val"):
            for upto in (None, 0, 1, f.order // 2):
                window = f.coeffs if upto is None else f.coeffs[:upto]
                want = min((c.valuation() for c in window), default=float("inf"))
                assert f.min_valuation(upto) == want
            for start in range(f.order + 1):
                want = min((c.valuation() for c in f.coeffs[start:]), default=float("inf"))
                assert f.min_valuation(None, start) == want

    def test_first_discrepancy(self, ctx, shape):
        for rng, f, g in self.pairs(ctx, shape, "disc"):
            # a second series that agrees with f to a random pi-adic depth
            bumps = [random_coeff(rng, ctx) * ctx.pi() ** rng.randrange(6) for _ in range(f.order)]
            near = f + TruncSeries(tuple(bumps), ctx)
            n = min(f.order, g.order)
            for other, upto in ((g, n), (near, f.order)):
                for m in (-1, 0, 1, 2, 5):
                    want = next(
                        (j for j in range(upto) if (f[j] - other[j]).valuation() < m), None
                    )
                    assert f.first_discrepancy(other, m, upto) == want


def integrality_series(ctx):
    """Series of order 1 to 12 whose coefficient components have
    denominators 1, 2, p or p^2, so that many are not integral."""
    part = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, ctx.prime, ctx.prime**2)))
    coeff = st.lists(part, min_size=ctx.e, max_size=ctx.e).map(ctx.coeff)
    return st.lists(coeff, min_size=1, max_size=12).map(lambda cs: TruncSeries(tuple(cs), ctx))


class TestIntegralityQueries:
    """integrality_check, catalog._require_integral and canonical_lift find
    the first non-integral coefficient on the rows; the reference loops over
    the Coefficient view."""

    @pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_agree_with_a_coefficient_loop(self, ctx, data):
        f = data.draw(integrality_series(ctx))
        level = data.draw(st.integers(1, 3))
        vals = [c.valuation() for c in f.coeffs]
        bad = next((j for j, v in enumerate(vals) if v < 0), None)
        if bad is None:
            catalog._require_integral(f)
            canonical_lift(f, 1)
        else:
            with pytest.raises(IntegralityFailure) as failure:
                catalog._require_integral(f)
            assert failure.value.index == bad
            assert str(failure.value) == f"coefficient {bad} has negative valuation"
            with pytest.raises(NegativeValuation) as negative:
                canonical_lift(f, 1)
            assert str(negative.value) == f"valuation {vals[bad]} < 0"

        # integrality_check needs f_0 = 1 and reads f_1 .. f_upto
        g = TruncSeries((ctx.one(),) + f.coeffs[1:], ctx)
        upto = min(ctx.prime**level, g.order) - 1
        min_val, first_failure = INF, None
        for j in range(1, upto + 1):
            min_val = min(min_val, vals[j])
            if vals[j] < 0:
                first_failure = j
                break
        checked = upto if first_failure is None else first_failure
        want = IntegralityReport(level, checked, min_val, first_failure)
        assert integrality_check(g, level) == want


class TestRowStorageIdentity:
    @pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
    def test_equal_values_are_equal_and_hash_equal(self, ctx):
        rng = random.Random(f"hash/{ctx.e}")
        f = shaped_series(rng, ctx, 9, "dense")
        # the same value from rows that are not in canonical form
        for scale in (1, 6, -ctx.prime, ctx.prime**3):
            rows = [[x * scale for x in row] for row in f.rows]
            g = TruncSeries.from_rows(ctx, f.den * scale, rows)
            assert g == f
            assert hash(g) == hash(f)
            assert (g.den, g.rows) == (f.den, f.rows)
            assert g.coeffs == f.coeffs
        # and from a sequence of values through from_coeffs
        h = TruncSeries.from_coeffs(ctx, f.coeffs)
        assert h == f and hash(h) == hash(f)

    def test_rational_values_by_any_constructor(self):
        values = [Fraction(3, 10), 0, -7, Fraction(25, 5)]
        a = TruncSeries.from_coeffs(U5, values)
        b = TruncSeries(tuple(U5.coeff(v) for v in values), U5)
        c = TruncSeries.from_rows(U5, 10, [[3, 0, -70, 50]])
        assert a == b == c
        assert len({hash(a), hash(b), hash(c)}) == 1

    @pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
    def test_zero_has_denominator_one(self, ctx):
        z = TruncSeries.from_rows(ctx, 7 * ctx.prime, [[0] * 4 for _ in range(ctx.e)])
        assert z == TruncSeries.zero(ctx, 4) and hash(z) == hash(TruncSeries.zero(ctx, 4))
        assert z.den == 1

    def test_different_values_differ(self):
        f = TruncSeries.from_coeffs(U5, [1, 2, 3])
        assert f != TruncSeries.from_coeffs(U5, [1, 2, 4])
        assert f != f.truncate(2)
        assert f != TruncSeries.from_coeffs(PadicContext.unramified(7), [1, 2, 3])

    def test_from_rows_rejects_a_bad_shape(self):
        with pytest.raises(BadParameters):
            TruncSeries.from_rows(D3, 1, [[1, 2]])
        with pytest.raises(BadParameters):
            TruncSeries.from_rows(D3, 1, [[1, 2], [3]])
        with pytest.raises(BadParameters):
            TruncSeries.from_rows(U5, 0, [[1]])

    def test_view_is_built_once(self):
        f = TruncSeries.from_coeffs(U5, [1, 2, 3]) * 2
        assert f.coeffs is f.coeffs
        assert f.coefficient(2) == U5.coeff(6)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
class TestSubstTruncated:
    def test_is_the_truncated_substitution(self, ctx):
        rng = random.Random(f"subst/{ctx.e}")
        for order in (1, 2, 5):
            for shape in SHAPES:
                f = shaped_series(rng, ctx, order, shape)
                for k in range(3):
                    full = f.subst_zpk(k)
                    for n in range(full.order + 1):
                        assert_same(f.subst_zpk_truncated(k, n), full.truncate(n))

    def test_a_huge_exponent_keeps_the_constant_term(self, ctx):
        f = shaped_series(random.Random(f"huge/{ctx.e}"), ctx, 4, "dense")
        for n in (0, 1, 30):
            want = f.truncate(1).subst_zpk(n.bit_length() + 1).truncate(n)
            assert_same(f.subst_zpk_truncated(10**9, n), want)

    def test_needs_the_coefficients_it_places(self, ctx):
        f = geometric(ctx, 3)
        with pytest.raises(ValueError):
            f.subst_zpk_truncated(1, 3 * ctx.prime + 1)
        with pytest.raises(ValueError):
            TruncSeries.zero(ctx, 0).subst_zpk_truncated(10**9, 1)
        with pytest.raises(BadParameters):
            f.subst_zpk_truncated(-1, 2)



@pytest.mark.parametrize(
    "cut",
    [
        lambda: geometric(U5, 4).truncate(-1),
        lambda: SeriesMatrix.identity(U5, 2, 4).truncate(-2),
        lambda: geometric(U5, 4).subst_zpk_truncated(1, -3),
        lambda: Polynomial.from_coeffs(U5, [1, 2, 3]).to_series(-1),
    ],
    ids=["series-truncate", "matrix-truncate", "subst-zpk-truncated", "polynomial-to-series"],
)
def test_a_negative_order_is_rejected(cut):
    """A negative order is an error, not a slice from the end."""
    with pytest.raises(ValueError, match="^negative order"):
        cut()
