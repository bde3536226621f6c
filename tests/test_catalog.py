"""The series catalog and its congruence checkers; the closed forms it is
checked against are in tests/oracle.py or below."""

import math
from fractions import Fraction

import pytest

from cartier import (
    BadContext,
    BadParameters,
    IntegralityFailure,
    OrderExhausted,
    PadicContext,
)
from cartier.catalog import (
    CatalogEntry,
    SeriesKind,
    SeriesSpec,
    build,
    dwork_congruence_check,
    p_lucas_check,
)
from cartier.series import TruncSeries
from oracle import apery_numbers, digit_sum

U3 = PadicContext.unramified(3)
U5 = PadicContext.unramified(5)
U7 = PadicContext.unramified(7)
D3 = PadicContext.dwork(3)


def hyper_spec(ctx, order, *alphas):
    return SeriesSpec(SeriesKind.HYPERGEOMETRIC, ctx, order, alphas=tuple(alphas))


class TestBuildSeries:
    def test_apery_numbers(self):
        entry = build(SeriesSpec(SeriesKind.APERY, U5, 6))
        assert [entry.series[j] for j in range(6)] == [1, 5, 73, 1445, 33001, 819005]
        # independent recomputation straight from the binomial sums
        assert [entry.series[j] for j in range(6)] == apery_numbers(6)

    def test_half_half_pochhammer_values(self):
        entry = build(hyper_spec(U5, 4, Fraction(1, 2), Fraction(1, 2)))
        assert [entry.series[j] for j in range(4)] == [
            1,
            Fraction(1, 4),
            Fraction(9, 64),
            Fraction(25, 256),
        ]

    def test_third_twothirds_pochhammer_values(self):
        entry = build(hyper_spec(U5, 3, Fraction(1, 3), Fraction(2, 3)))
        assert [entry.series[j] for j in range(3)] == [1, Fraction(2, 9), Fraction(10, 81)]

    def test_hadamard_factorization(self):
        half = build(hyper_spec(U7, 12, Fraction(1, 2))).series
        pair = build(hyper_spec(U7, 12, Fraction(1, 2), Fraction(1, 2))).series
        # the coefficientwise square of 2F1(1/2; z) is 2F1(1/2, 1/2; z)
        square = TruncSeries(tuple(a * a for a in half.coeffs), half.ctx)
        assert square == pair

    def test_bessel_series(self):
        entry = build(SeriesSpec(SeriesKind.BESSEL, D3, 10))
        f = entry.series
        # odd coefficients vanish; even ones are (-1)^n pi^(2n) / (4^n n!^2),
        # rational numbers since pi^2 = -3
        assert all(f[j].is_zero() for j in range(1, 10, 2))
        assert f[0] == 1
        assert f[2] == Fraction(3, 4)
        assert f[4] == Fraction(9, 64)
        for n in range(5):
            assert f[2 * n].valuation() == 2 * digit_sum(n, 3)

    def test_exponential_series(self):
        entry = build(SeriesSpec(SeriesKind.EXPONENTIAL, D3, 6))
        f = entry.series
        pi = D3.pi()
        assert f[1] == pi
        assert f[3] == pi * Fraction(-1, 2)  # pi^3/6 = -3 pi/6
        for j in range(6):
            assert f[j].valuation() == digit_sum(j, 3)

    def test_ffrak_series(self):
        entry = build(SeriesSpec(SeriesKind.FFRAK, U3, 4))
        assert entry.operator is None
        assert [entry.series[j] for j in range(4)] == [
            1,
            Fraction(-1, 8),
            Fraction(-9, 512),
            Fraction(-25, 4096),
        ]

    def test_order_is_respected(self):
        entry = build(SeriesSpec(SeriesKind.APERY, U5, 17))
        assert entry.series.order == 17


class TestBuildOperators:
    @pytest.mark.parametrize(
        "spec",
        [
            SeriesSpec(SeriesKind.APERY, U5, 40),
            SeriesSpec(SeriesKind.BESSEL, D3, 40),
            SeriesSpec(SeriesKind.EXPONENTIAL, D3, 40),
        ],
        ids=["apery", "bessel", "exponential"],
    )
    def test_operator_reproduces_series(self, spec):
        entry = build(spec)
        assert entry.operator.unit_solution(40) == entry.series

    def test_hypergeometric_operator_reproduces_series(self):
        entry = build(hyper_spec(U7, 40, Fraction(1, 2), Fraction(1, 2)))
        assert entry.operator.unit_solution(40) == entry.series
        assert entry.operator.order == 2
        assert entry.operator.is_mom

    def test_single_alpha_operator(self):
        entry = build(hyper_spec(U7, 30, Fraction(1, 2)))
        assert entry.operator.unit_solution(30) == entry.series


class TestAnnotationsAndValidation:
    def test_frobenius_periods(self):
        assert build(SeriesSpec(SeriesKind.APERY, U5, 4)).frobenius_period == 1
        assert build(SeriesSpec(SeriesKind.BESSEL, D3, 4)).frobenius_period == 1
        # d_alpha = 2: any odd prime is 1 mod 2
        assert build(hyper_spec(U5, 4, Fraction(1, 2))).frobenius_period == 1
        # d_alpha = 4 and 3^2 = 9 = 1 mod 4
        assert build(hyper_spec(U3, 4, Fraction(1, 4))).frobenius_period == 2
        # d_alpha = 3 and 5^2 = 25 = 1 mod 3
        assert (
            build(hyper_spec(U5, 4, Fraction(1, 3), Fraction(2, 3))).frobenius_period
            == 2
        )

    def test_p_dividing_denominator_lcm_warns(self):
        entry = build(hyper_spec(U3, 6, Fraction(1, 3)))
        assert entry.frobenius_period is None
        assert len(entry.warnings) == 1
        assert "d_alpha" in entry.warnings[0]
        # the series itself is still built
        assert entry.series[1] == Fraction(1, 3)

    def test_bessel_needs_dwork_context(self):
        with pytest.raises(BadContext):
            build(SeriesSpec(SeriesKind.BESSEL, U3, 8))

    def test_bessel_rejects_p_equal_2(self):
        with pytest.raises(BadParameters):
            build(SeriesSpec(SeriesKind.BESSEL, PadicContext.dwork(2), 8))

    def test_exponential_needs_dwork_context(self):
        with pytest.raises(BadContext):
            build(SeriesSpec(SeriesKind.EXPONENTIAL, U5, 8))

    def test_hypergeometric_needs_alphas(self):
        with pytest.raises(BadParameters):
            build(SeriesSpec(SeriesKind.HYPERGEOMETRIC, U5, 8))
        with pytest.raises(BadParameters):
            build(hyper_spec(U5, 8))

    def test_alphas_only_for_hypergeometric(self):
        with pytest.raises(BadParameters):
            build(SeriesSpec(SeriesKind.APERY, U5, 8, alphas=(Fraction(1, 2),)))


class TestPLucas:
    def test_apery_at_5(self):
        f = build(SeriesSpec(SeriesKind.APERY, U5, 125)).series
        report = p_lucas_check(f)
        assert report.passed
        assert report.first_failure is None
        assert report.checked_upto == 125

    def test_half_half_at_3(self):
        f = build(hyper_spec(U3, 60, Fraction(1, 2), Fraction(1, 2))).series
        assert p_lucas_check(f).passed

    def test_unramified_exponential_is_not_integral(self):
        f = TruncSeries.from_coeffs(
            U5, [Fraction(1, math.factorial(j)) for j in range(8)]
        )
        with pytest.raises(IntegralityFailure) as info:
            p_lucas_check(f)
        assert info.value.index == 5

    def test_perturbed_geometric_fails_at_the_perturbation(self):
        f = TruncSeries.from_coeffs(U5, [1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1])
        report = p_lucas_check(f)
        assert not report.passed
        assert report.first_failure == 5

    def test_report_json(self):
        f = TruncSeries.from_coeffs(U5, [1] * 10)
        assert p_lucas_check(f).to_json_dict() == {
            "kind": "p-lucas",
            "p": 5,
            "level": 1,
            "checked_upto": 10,
            "passed": True,
            "first_failure": None,
        }


class TestDworkCongruence:
    def test_half_half_s1(self):
        f = build(hyper_spec(U5, 30, Fraction(1, 2), Fraction(1, 2))).series
        report = dwork_congruence_check(f, 1)
        assert report.passed
        assert report.level == 1

    def test_half_half_s2(self):
        f = build(hyper_spec(U5, 45, Fraction(1, 2), Fraction(1, 2))).series
        report = dwork_congruence_check(f, 2)
        assert report.passed
        assert report.checked_upto == 45

    def test_s1_agrees_with_p_lucas(self):
        f = TruncSeries.from_coeffs(U5, [1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1])
        report = dwork_congruence_check(f, 1)
        assert not report.passed
        assert report.first_failure == 5

    def test_order_exhausted(self):
        f = build(hyper_spec(U5, 20, Fraction(1, 2), Fraction(1, 2))).series
        with pytest.raises(OrderExhausted):
            dwork_congruence_check(f, 2)

    def test_needs_unramified_context(self):
        f = build(SeriesSpec(SeriesKind.BESSEL, D3, 12)).series
        with pytest.raises(BadContext):
            dwork_congruence_check(f, 1)

    def test_integrality_precondition(self):
        f = TruncSeries.from_coeffs(U5, [1, Fraction(1, 5)] + [0] * 8)
        with pytest.raises(IntegralityFailure):
            dwork_congruence_check(f, 1)


class TestEntryShape:
    def test_entry_fields(self):
        spec = SeriesSpec(SeriesKind.APERY, U5, 8)
        entry = build(spec)
        assert isinstance(entry, CatalogEntry)
        assert entry.spec is spec
        assert entry.warnings == ()
        assert entry.operator is not None

    def test_operator_is_built_on_first_read_and_kept(self, monkeypatch):
        from cartier import catalog

        built = []
        real = catalog.monicize

        def monicize(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(catalog, "monicize", monicize)
        entry = build(SeriesSpec(SeriesKind.APERY, U5, 30))
        assert built == []
        op = entry.operator
        assert entry.operator is op
        assert len(built) == 1
        assert op.order == 3 and op.is_mom
        assert op.unit_solution(30) == entry.series
        assert build(SeriesSpec(SeriesKind.FFRAK, U5, 8)).operator is None
        assert len(built) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            SeriesSpec(SeriesKind.APERY, U5, 30),
            SeriesSpec(SeriesKind.BESSEL, D3, 12),
            SeriesSpec(SeriesKind.EXPONENTIAL, D3, 9),
            hyper_spec(U7, 20, Fraction(1, 2), Fraction(1, 2)),
            hyper_spec(U5, 1, Fraction(1, 3)),
            SeriesSpec(SeriesKind.FFRAK, U5, 8),
        ],
        ids=["apery", "bessel", "exponential", "hyp-half-half", "hyp-order-1", "ffrak"],
    )
    def test_operator_shape_is_the_operators(self, spec):
        entry = build(spec)
        shape = entry.operator_shape
        if entry.operator is None:
            assert shape is None
        else:
            assert shape == (entry.operator.order, entry.operator.is_mom)

    def test_operator_shape_inverts_the_lead_to_order_one(self, monkeypatch):
        from cartier import catalog

        orders = []
        real = catalog.monicize

        def monicize(terms, ctx, order):
            orders.append(order)
            return real(terms, ctx, order)

        monkeypatch.setattr(catalog, "monicize", monicize)
        assert build(SeriesSpec(SeriesKind.APERY, U5, 342)).operator_shape == (3, True)
        assert orders == [1]


# The builders' former Fraction and Coefficient loops, kept as oracles for
# the integer-row builders.

def hyper_oracle(ctx, order, alphas):
    coeffs = []
    term = Fraction(1)
    for j in range(order):
        if j:
            for a in alphas:
                term *= a + j - 1
            term /= Fraction(j) ** len(alphas)
        coeffs.append(term)
    return TruncSeries.from_coeffs(ctx, coeffs)


def bessel_oracle(ctx, order):
    pi2 = ctx.pi() ** 2
    coeffs = [ctx.zero()] * order
    c = ctx.one()
    for n in range((order + 1) // 2):
        if n:
            c = c * pi2 * Fraction(-1, 4 * n * n)
        coeffs[2 * n] = c
    return TruncSeries(tuple(coeffs), ctx)


def exponential_oracle(ctx, order):
    pi = ctx.pi()
    coeffs = [ctx.one()]
    for j in range(1, order):
        coeffs.append(coeffs[-1] * pi * Fraction(1, j))
    return TruncSeries(tuple(coeffs), ctx)


# contexts by ramification index e; for e = 1, Q_5 and the degenerate Dwork
# context at p = 2
RAMIFIED = {1: [U5, PadicContext.dwork(2)], 2: [D3], 4: [PadicContext.dwork(5)]}
ORDERS = [1, 2, 3, 20, 54]


class TestIntegerRowBuilders:
    @pytest.mark.parametrize("e", [1, 2, 4])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize(
        "alphas",
        [
            (Fraction(1, 2),),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 5), Fraction(3, 4), Fraction(-7, 2)),
            (Fraction(-2), Fraction(1, 2)),  # a terminating series
        ],
        ids=["half", "thirds", "mixed", "terminating"],
    )
    def test_hypergeometric(self, e, order, alphas):
        for ctx in RAMIFIED[e]:
            entry = build(hyper_spec(ctx, order, *alphas))
            assert entry.series == hyper_oracle(ctx, order, alphas)

    @pytest.mark.parametrize("e", [1, 2, 4])
    @pytest.mark.parametrize("order", ORDERS)
    def test_bessel(self, e, order):
        for ctx in RAMIFIED[e]:
            spec = SeriesSpec(SeriesKind.BESSEL, ctx, order)
            if ctx.ramification.value == "unramified":
                with pytest.raises(BadContext):
                    build(spec)
            elif ctx.prime == 2:
                with pytest.raises(BadParameters):
                    build(spec)
            else:
                assert build(spec).series == bessel_oracle(ctx, order)

    @pytest.mark.parametrize("e", [1, 2, 4])
    @pytest.mark.parametrize("order", ORDERS)
    def test_exponential(self, e, order):
        for ctx in RAMIFIED[e]:
            spec = SeriesSpec(SeriesKind.EXPONENTIAL, ctx, order)
            if ctx.ramification.value == "unramified":
                with pytest.raises(BadContext):
                    build(spec)
            else:
                assert build(spec).series == exponential_oracle(ctx, order)
