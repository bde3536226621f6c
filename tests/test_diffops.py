"""Series matrices and monic operators, against the matrix and recursion
references of tests/oracle.py."""

import math
import random
from fractions import Fraction

import pytest

from cartier import (
    BadParameters,
    LeadingNotUnit,
    NotAUnit,
    NotMOM,
    NotNilpotent,
    OrderExhausted,
    PadicContext,
)
from cartier import diffops
from cartier.diffops import (
    DiffOp,
    SeriesMatrix,
    monicize,
    raw_terms_from_json,
    uniform_part,
)
from cartier.rational import Polynomial, RationalFunction
from cartier.series import TruncSeries, _apply, _const_inverse, _const_map, _matmul_ints
from oracle import (
    KERNEL_CONTEXTS,
    SHAPES,
    apery_numbers,
    const_ints,
    const_product,
    gauss_coefficients,
    random_coeff,
    ref_apply,
    ref_companion,
    ref_invert_series,
    ref_matmul,
    ref_matmul_const,
    ref_solve,
    ref_uniform_part,
    ref_unit_solution_banded,
    ref_unit_solution_generic,
    shaped_series,
)

U5 = PadicContext.unramified(5)
U7 = PadicContext.unramified(7)
D3 = PadicContext.dwork(3)


# Independent oracles, straight from the defining formulas; apery_numbers and
# gauss_coefficients are the oracle's.

def apery_raw_terms(ctx):
    # delta^3 - z*(2 delta + 1)(17 delta^2 + 17 delta + 5) + z^2*(delta + 1)^3;
    # products expanded by an independent convolution over plain Fractions.
    # The z^2 sign is forced: it is the operator form of the three-term
    # recurrence (j^3 f_j = P(j-1) f_{j-1} - (j-1)^3 f_{j-2}) that the
    # binomial-sum numbers satisfy, and the minus variant fails at f_2.
    def polymul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    inner = polymul([1, 2], [5, 17, 17])
    cubed = polymul(polymul([1, 1], [1, 1]), [1, 1])
    return [
        (0, [0, 0, 0, 1]),
        (1, [-c for c in inner]),
        (2, cubed),
    ]


def gauss_half_half_terms():
    # delta^2 - z*(delta + 1/2)^2
    return [
        (0, [0, 0, 1]),
        (1, [Fraction(-1, 4), -1, -1]),
    ]


class TestMonicize:
    def test_apery_shape(self):
        L = monicize(apery_raw_terms(U5), U5, 12)
        assert L.order == 3
        assert L.is_mom
        # hand-expanded inner product is 34 d^3 + 51 d^2 + 27 d + 5
        assert apery_raw_terms(U5)[1][1] == [-5, -27, -51, -34]
        # a_3 = (z^2 - 5z) / (z^2 - 34z + 1), the z^2 - 34z + 1 from the
        # delta^3 terms and the numerator from the delta^0 terms
        a3 = RationalFunction(
            Polynomial.from_coeffs(U5, [0, -5, 1]), Polynomial.from_coeffs(U5, [1, -34, 1])
        )
        assert L.coeffs[2] == a3.to_series(12)

    def test_gauss_rational_forms(self):
        L = monicize(gauss_half_half_terms(), U5, 10)
        den = Polynomial.from_coeffs(U5, [1, -1])
        a1 = RationalFunction(Polynomial.from_coeffs(U5, [0, -1]), den)
        a2 = RationalFunction(Polynomial.from_coeffs(U5, [0, Fraction(-1, 4)]), den)
        assert L.coeffs == (a1.to_series(10), a2.to_series(10))

    def test_exponential_already_monic(self):
        L = monicize([(0, [0, 1]), (1, [-D3.pi()])], D3, 8)
        assert L.order == 1
        assert L.is_mom
        assert L.coeffs[0] == TruncSeries.from_coeffs(D3, [0, -D3.pi()] + [0] * 6)

    def test_leading_must_be_unit_at_zero(self):
        with pytest.raises(LeadingNotUnit):
            monicize([(1, [0, 0, 1]), (0, [1])], U5, 8)

    def test_cancelling_terms_leave_no_delta_order(self):
        # delta - z, with a z^2 delta^2 term and its negative
        terms = [(0, [0, 1]), (1, [-1]), (2, [0, 0, 1]), (2, [0, 0, -1])]
        L = monicize(terms, U5, 8)
        assert L.order == 1
        assert L.raw_terms == ((0, (U5.zero(), U5.one())), (1, (-U5.one(),)))
        data = {"terms": [{"zdeg": z, "deltapoly": poly} for z, poly in terms]}
        assert raw_terms_from_json(data, U5) == [(z, [U5.coeff(c) for c in poly]) for z, poly in terms]
        assert monicize(raw_terms_from_json(data, U5), U5, 8).raw_terms == L.raw_terms
        assert L.coeffs[0] == TruncSeries.from_coeffs(U5, [0, -1] + [0] * 6)
        with pytest.raises(BadParameters, match="empty operator"):
            monicize([(1, [0, 1]), (1, [0, -1])], U5, 8)

    def test_mom_flag_false_for_shifted_operator(self):
        assert not monicize([(0, [-1, 1])], U5, 8).is_mom

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one(self, order):
        with pytest.raises(BadParameters, match="order must be at least 1"):
            monicize([(0, [0, 0, 1]), (1, [1, 1])], U5, order)

    @pytest.mark.parametrize("ctx", [U5, D3, PadicContext.dwork(5)], ids=["e1", "e2", "e4"])
    @pytest.mark.parametrize("far", [12, 10**6])
    def test_terms_at_or_above_the_order_build_nothing(self, ctx, far, monkeypatch):
        """A term at z-degree >= order changes nothing mod z^order, so the
        polynomial form read for it has no row longer than the order; one at
        order - 1 does change the operator."""
        order = 12
        gauss = [(0, [0, 0, 1]), (1, ["-1/4", -1, -1])]
        term = [1, "1/3", 2]
        read = diffops._raw_form
        lengths = []

        def bounded_read(raw, ctx, upto):
            form = read(raw, ctx, upto)
            lengths.extend(len(row) for rows in form for row in rows)
            return form

        monkeypatch.setattr(diffops, "_raw_form", bounded_read)
        plain = monicize(gauss, ctx, order)
        padded = monicize(gauss + [(far, term)], ctx, order)
        assert padded.coeffs == plain.coeffs
        assert padded.raw_terms[-1][0] == far
        assert padded.unit_solution(order) == plain.unit_solution(order)
        assert lengths and max(lengths) <= order
        near = monicize(gauss + [(order - 1, term)], ctx, order)
        assert near.coeffs != plain.coeffs
        assert near.unit_solution(order) != plain.unit_solution(order)


class TestCompanion:
    def test_order_one(self):
        L = monicize([(0, [0, 1]), (1, [-1])], U5, 6)
        A = L.companion()
        assert A.size == 1
        assert A.entry(0, 0) == TruncSeries.from_coeffs(U5, [0, 1, 0, 0, 0, 0])

    def test_order_two_layout(self):
        L = monicize(gauss_half_half_terms(), U5, 8)
        A = L.companion()
        assert A.entry(0, 0).is_zero()
        assert A.entry(0, 1) == TruncSeries.one(U5, 8)
        assert A.entry(1, 0) == -L.coeffs[1]
        assert A.entry(1, 1) == -L.coeffs[0]

    def test_solution_vector_satisfies_system(self):
        L = monicize(apery_raw_terms(U5), U5, 16)
        A = L.companion()
        f = L.unit_solution(16)
        v = [f, f.delta(), f.delta().delta()]
        for i in range(3):
            rhs = TruncSeries.zero(U5, 16)
            for j in range(3):
                rhs = rhs + A.entry(i, j) * v[j]
            assert v[i].delta() == rhs


class TestUnitSolution:
    def test_apery_matches_binomial_oracle(self):
        L = monicize(apery_raw_terms(U5), U5, 20)
        f = L.unit_solution(20)
        oracle = apery_numbers(20)
        assert oracle[:5] == [1, 5, 73, 1445, 33001]
        assert f == TruncSeries.from_coeffs(U5, oracle)

    def test_gauss_matches_pochhammer_oracle(self):
        L = monicize(gauss_half_half_terms(), U5, 14)
        f = L.unit_solution(14)
        oracle = gauss_coefficients(14)
        assert oracle[:3] == [1, Fraction(1, 4), Fraction(9, 64)]
        assert f == TruncSeries.from_coeffs(U5, oracle)

    def test_exponential_series(self):
        L = monicize([(0, [0, 1]), (1, [-D3.pi()])], D3, 9)
        f = L.unit_solution(9)
        pi = D3.pi()
        fact = 1
        for j in range(9):
            if j:
                fact *= j
            assert f[j] == pi**j * Fraction(1, fact)
        # digit-sum valuations: v(pi^j/j!) = s_3(j)
        assert [f[j].valuation() for j in range(9)] == [0, 1, 2, 1, 2, 3, 2, 3, 4]

    def test_generic_recursion_agrees_with_banded(self):
        L = monicize(apery_raw_terms(U5), U5, 15)
        stripped = DiffOp(L.coeffs, L.ctx)  # no raw terms: generic path
        assert stripped.unit_solution(15) == L.unit_solution(15)

    def test_annihilation(self):
        for terms, ctx, order in [
            (apery_raw_terms(U5), U5, 18),
            (gauss_half_half_terms(), U7, 18),
        ]:
            L = monicize(terms, ctx, order)
            assert L.apply(L.unit_solution(order)).is_zero()

    def test_not_mom_rejected(self):
        L = monicize([(0, [-1, 1])], U5, 8)
        with pytest.raises(NotMOM):
            L.unit_solution(8)

    def test_generic_path_needs_coefficient_order(self):
        L = monicize(gauss_half_half_terms(), U5, 6)
        stripped = DiffOp(L.coeffs, L.ctx)
        with pytest.raises(OrderExhausted):
            stripped.unit_solution(10)


class TestSeriesMatrix:
    def test_identity_and_product(self):
        I2 = SeriesMatrix.identity(U5, 2, 5)
        m = SeriesMatrix.from_rows(
            [
                [TruncSeries.from_coeffs(U5, [1, 2, 0, 0, 0]), TruncSeries.zero(U5, 5)],
                [TruncSeries.one(U5, 5), TruncSeries.from_coeffs(U5, [0, 1, 0, 0, 0])],
            ]
        )
        assert I2.matmul(m) == m
        assert m.matmul(I2) == m

    def test_invert_series_round_trip(self):
        m = SeriesMatrix.from_rows(
            [
                [TruncSeries.from_coeffs(U5, [1, 3, 1, 0]), TruncSeries.from_coeffs(U5, [0, 1, 0, 0])],
                [TruncSeries.from_coeffs(U5, [2, 0, 0, 5]), TruncSeries.from_coeffs(U5, [1, 1, 1, 1])],
            ]
        )
        inv = m.invert_series()
        assert m.matmul(inv) == SeriesMatrix.identity(U5, 2, 4)
        assert inv.matmul(m) == SeriesMatrix.identity(U5, 2, 4)

    def test_cartier_and_subst_entrywise(self):
        m = SeriesMatrix.from_rows([[TruncSeries.from_coeffs(U5, [1] * 10)]])
        assert m.cartier().entry(0, 0).order == 2
        assert m.subst_zpk(1).entry(0, 0).order == 50

    def test_mismatched_sizes_are_bad_parameters(self):
        a, b = SeriesMatrix.identity(U5, 2, 4), SeriesMatrix.identity(U5, 1, 4)
        for op in (lambda: a + b, lambda: a - b, lambda: b.matmul(a), lambda: a.matmul(b)):
            with pytest.raises(BadParameters, match="different sizes"):
                op()
        with pytest.raises(BadParameters, match="mixed contexts"):
            a + SeriesMatrix.identity(U7, 2, 4)
        with pytest.raises(BadParameters, match="mixed contexts"):
            SeriesMatrix.from_rows([[TruncSeries.one(U5, 2), TruncSeries.one(D3, 2)]] * 2)
        with pytest.raises(TypeError):
            b + TruncSeries.one(U5, 4)

    def test_rows_are_the_flat_layout_over_one_denominator(self):
        f = TruncSeries.from_coeffs(D3, [Fraction(1, 2), 3, 0])
        g = TruncSeries((D3.pi(), D3.zero(), Fraction(1, 3)), D3)
        m = SeriesMatrix.from_rows([[f, g], [-g, f * 5]])
        assert (m.size, m.order, m.den) == (2, 3, 6)
        # entry (i, j) is rows (2 i + j) e .. (2 i + j + 1) e - 1, e = 2
        for (i, j), want in {(0, 0): f, (0, 1): g, (1, 0): -g, (1, 1): f * 5}.items():
            at = (2 * i + j) * 2
            assert TruncSeries.from_rows(D3, m.den, m.rows[at : at + 2]) == want
            assert m.entry(i, j) == want
        # column 0 of the rows is the value at 0, which constant_ints reduces
        d, vec = m.constant_ints()
        assert d == 2
        assert [Fraction(v, d) for v in vec] == [Fraction(row[0], m.den) for row in m.rows]

    def test_a_matrix_has_no_coefficient_view(self):
        m = SeriesMatrix.identity(D3, 2, 3)
        with pytest.raises(BadParameters, match="entry"):
            m.coeffs
        with pytest.raises(BadParameters, match="entry"):
            m._inverse_of(0)
        assert m.entry(1, 1).coeffs == (D3.one(), D3.zero(), D3.zero())


class TestUniformPart:
    def test_zero_matrix_gives_identity(self):
        from cartier.diffops import uniform_part

        A = SeriesMatrix.zero(U5, 2, 6)
        assert uniform_part(A, 6) == SeriesMatrix.identity(U5, 2, 6)

    def test_scalar_case_is_exponential(self):
        from cartier.diffops import uniform_part

        pi = D3.pi()
        A = SeriesMatrix.from_rows([[TruncSeries.from_coeffs(D3, [0, pi] + [0] * 6)]])
        Y = uniform_part(A, 8)
        expected = monicize([(0, [0, 1]), (1, [-pi])], D3, 8).unit_solution(8)
        assert Y.entry(0, 0) == expected

    def test_first_column_is_solution_jet(self):
        from cartier.diffops import uniform_part

        L = monicize(apery_raw_terms(U5), U5, 14)
        Y = uniform_part(L.companion(), 14)
        f = L.unit_solution(14)
        assert Y.entry(0, 0) == f
        assert Y.entry(1, 0) == f.delta()
        assert Y.entry(2, 0) == f.delta().delta()

    def test_defining_equation(self):
        from cartier.diffops import uniform_part

        L = monicize(gauss_half_half_terms(), U7, 12)
        A = L.companion()
        Y = uniform_part(A, 12)
        residual = Y.delta() - A.matmul(Y) + ref_matmul_const(Y, A.constant_matrix())
        assert residual.is_zero()
        assert Y.constant_matrix() == SeriesMatrix.identity(U7, 2, 1).constant_matrix()

    def test_non_nilpotent_rejected(self):
        from cartier.diffops import uniform_part

        A = SeriesMatrix.from_rows([[TruncSeries.one(U5, 4)]])
        with pytest.raises(NotNilpotent, match="constant term of the system matrix is not nilpotent"):
            uniform_part(A, 4)
        # A0 = [[0, pi], [pi, 0]] squares to pi^2 I, so no power vanishes
        pi = D3.pi()
        A = SeriesMatrix.from_rows(
            [[TruncSeries((D3.zero(), pi), D3), TruncSeries((pi, D3.one()), D3)],
             [TruncSeries((pi, D3.zero()), D3), TruncSeries((D3.zero(), pi), D3)]]
        )
        with pytest.raises(NotNilpotent, match="constant term of the system matrix is not nilpotent"):
            uniform_part(A, 2)


# The matrix operations on the integer kernel against the oracle's plain
# Coefficient loops, and uniform_part against its dense Sylvester solve.

def shaped_matrix(rng, ctx, n, order, const=None):
    """Entries of the given shapes; const(i, j), when given, sets the
    constant term matrix."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            f = shaped_series(rng, ctx, order, rng.choice(SHAPES))
            if const is not None:
                f = TruncSeries((const(i, j),) + f.coeffs[1:], ctx)
            row.append(f)
        rows.append(row)
    return SeriesMatrix.from_rows(rows)


def nonzero_coeff(rng, ctx):
    c = random_coeff(rng, ctx)
    while c.is_zero():
        c = random_coeff(rng, ctx)
    return c


def dense_nilpotent_jordan(rng, ctx, n):
    """P J P^-1 for the n x n Jordan block J with eigenvalue 0 and a random
    P = L U, L and U unitriangular: a nilpotent matrix of index n whose
    entries are in general all nonzero."""
    lower = [[ctx.one() if i == j else random_coeff(rng, ctx) if i > j else ctx.zero()
              for j in range(n)] for i in range(n)]
    upper = [[ctx.one() if i == j else random_coeff(rng, ctx) if i < j else ctx.zero()
              for j in range(n)] for i in range(n)]
    p = const_product(lower, upper, ctx)
    unit = lambda j: [ctx.coeff(int(i == j)) for i in range(n)]
    cols = [ref_solve(p, unit(j)) for j in range(n)]
    p_inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    jordan = [[ctx.coeff(int(j == i + 1)) for j in range(n)] for i in range(n)]
    return const_product(const_product(p, jordan, ctx), p_inv, ctx)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
class TestMatrixKernelAgainstCoefficientLoops:
    CASES = ((1, 1), (1, 6), (2, 1), (2, 7), (3, 5))  # (size, order)

    def test_matmul(self, ctx):
        rng = random.Random(f"matmul/{ctx.e}")
        for n, order in self.CASES:
            a = shaped_matrix(rng, ctx, n, order)
            b = shaped_matrix(rng, ctx, n, order + rng.randrange(2))
            assert a.matmul(b) == ref_matmul(a, b)
            c = [[random_coeff(rng, ctx) for _ in range(n)] for _ in range(n)]
            # times a constant matrix, as the antecedent step forms C A(0)
            d, vec = const_ints(c, ctx)
            rows = _matmul_ints(a.rows, [[v] for v in vec], ctx, order)
            assert SeriesMatrix._of(ctx, a.den * d, rows) == ref_matmul_const(a, c)
            # a substituted matrix B(z^p) on either side, as in the
            # antecedent step's products
            strided = shaped_matrix(rng, ctx, n, order).subst_zpk(1)
            b = shaped_matrix(rng, ctx, n, strided.order)
            assert strided.matmul(b) == ref_matmul(strided, b)
            assert b.matmul(strided) == ref_matmul(b, strided)

    def test_row_operations_are_entrywise(self, ctx):
        rng = random.Random(f"entrywise/{ctx.e}")
        for n, order in self.CASES:
            a = shaped_matrix(rng, ctx, n, order)
            b = shaped_matrix(rng, ctx, n, order + rng.randrange(2))
            c = random_coeff(rng, ctx)
            entries = lambda m: [[m.entry(i, j) for j in range(n)] for i in range(n)]
            cases = [
                (a + b, lambda i, j: a.entry(i, j) + b.entry(i, j)),
                (a - b, lambda i, j: a.entry(i, j) - b.entry(i, j)),
                (-a, lambda i, j: -a.entry(i, j)),
                (a.scale(c), lambda i, j: a.entry(i, j) * c),
                (a.delta(), lambda i, j: a.entry(i, j).delta()),
                (a.d_dz(), lambda i, j: a.entry(i, j).d_dz()),
                (a.cartier(), lambda i, j: a.entry(i, j).cartier()),
                (a.subst_zpk(1), lambda i, j: a.entry(i, j).subst_zpk(1)),
                (a.truncate(order - 1), lambda i, j: a.entry(i, j).truncate(order - 1)),
            ]
            for got, want in cases:
                assert entries(got) == [[want(i, j) for j in range(n)] for i in range(n)]
            flat = [a.entry(i, j) for i in range(n) for j in range(n)]
            assert a.min_valuation() == min(f.min_valuation() for f in flat)
            hits = [f.first_nonzero() for f in flat]
            assert a.first_nonzero() == min((h for h in hits if h is not None), default=None)
            assert a.is_zero() == all(f.is_zero() for f in flat)

    def test_invert_series(self, ctx):
        rng = random.Random(f"invert/{ctx.e}")
        for n, order in self.CASES:
            # triangular constant term with a nonzero diagonal: invertible
            const = lambda i, j: nonzero_coeff(rng, ctx) if i == j else (
                random_coeff(rng, ctx) if i < j else ctx.zero())
            m = shaped_matrix(rng, ctx, n, order, const)
            assert m.invert_series() == ref_invert_series(m)

    @pytest.mark.parametrize(
        "a0", ["zero", "shift", "strict-upper", "strict-lower", "dense-jordan"]
    )
    def test_uniform_part(self, ctx, a0):
        rng = random.Random(f"uniform/{ctx.e}/{a0}")
        consts = {
            "zero": lambda i, j: ctx.zero(),
            "shift": lambda i, j: ctx.one() if j == i + 1 else ctx.zero(),
            "strict-upper": lambda i, j: nonzero_coeff(rng, ctx) if i < j else ctx.zero(),
            "strict-lower": lambda i, j: nonzero_coeff(rng, ctx) if i > j else ctx.zero(),
        }
        # a single Jordan block (shift, dense-jordan) makes ad nilpotent of
        # index 2n - 1, so the Neumann sum runs to its longest: 2n - 2
        # powers of -ad, 6 of them at n = 4
        for n, order in self.CASES + ((4, 6),):
            if a0 == "dense-jordan":
                m = dense_nilpotent_jordan(rng, ctx, n)
                const = lambda i, j: m[i][j]
            else:
                const = consts[a0]
            A = shaped_matrix(rng, ctx, n, order, const)
            assert uniform_part(A, order) == ref_uniform_part(A, order)


def random_mom_operator(rng, ctx, n, order):
    """monicize of lead delta^n + sum_(zdeg = 1..3) z^zdeg Q_zdeg(delta) with
    random coefficients (p among their denominators): raw terms for the
    banded recursion, series coefficients for the generic one."""
    terms = [(0, [0] * n + [nonzero_coeff(rng, ctx)])]
    for zdeg in range(1, 4):
        if rng.random() < 0.8:
            terms.append((zdeg, [random_coeff(rng, ctx) for _ in range(rng.randrange(1, n + 2))]))
    return monicize(terms, ctx, order)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
class TestOperatorRowsAgainstCoefficientLoops:
    ORDERS = (0, 1, 13)

    def test_unit_solution_banded(self, ctx):
        rng = random.Random(f"banded/{ctx.e}")
        for n in (1, 2, 3):
            L = random_mom_operator(rng, ctx, n, 14)
            for order in self.ORDERS:
                want = ref_unit_solution_banded(L.raw_terms, ctx, n, order)
                assert L.unit_solution(order) == want

    def test_unit_solution_generic(self, ctx):
        rng = random.Random(f"generic/{ctx.e}")
        for n in (1, 2, 3):
            for shape in SHAPES:
                # a_i with zero constant terms: MOM
                coeffs = tuple(
                    TruncSeries((ctx.zero(),) + shaped_series(rng, ctx, 13, shape).coeffs[1:], ctx)
                    for _ in range(n)
                )
                L = DiffOp(coeffs, ctx)
                for order in self.ORDERS:
                    assert L.unit_solution(order) == ref_unit_solution_generic(L, order)

    def test_companion(self, ctx):
        """The companion built on rows equals the one built entry by entry,
        for operators with raw terms and for derived ones (coefficients of
        every shape, over denominators)."""
        rng = random.Random(f"companion/{ctx.e}")
        for n in (1, 2, 3):
            L = random_mom_operator(rng, ctx, n, 13)
            assert L.companion() == ref_companion(L)
            for shape in SHAPES:
                coeffs = tuple(shaped_series(rng, ctx, 11 + i, shape) for i in range(n))
                derived = DiffOp(coeffs, ctx)
                assert derived.companion() == ref_companion(derived)

    def test_unit_solution_of_delta_power_is_one(self, ctx):
        L = DiffOp((TruncSeries.zero(ctx, 13),) * 2, ctx)
        assert L.unit_solution(13) == TruncSeries.one(ctx, 13)

    def test_apply(self, ctx):
        rng = random.Random(f"apply/{ctx.e}")
        for n in (1, 2, 3):
            L = random_mom_operator(rng, ctx, n, 13)
            for order in self.ORDERS:
                for shape in SHAPES:
                    f = shaped_series(rng, ctx, order, shape)
                    assert L.apply(f) == ref_apply(L, f)
            # the banded and generic solutions are annihilated
            assert L.apply(L.unit_solution(13)).is_zero()
            assert L.apply(DiffOp(L.coeffs, ctx).unit_solution(13)).is_zero()


class TestJsonInput:
    def test_round_trip_terms(self):
        data = {
            "terms": [
                {"zdeg": 0, "deltapoly": ["0", "0", "1"]},
                {"zdeg": 1, "deltapoly": ["-1/4", "-1", "-1"]},
            ]
        }
        terms = raw_terms_from_json(data, U5)
        L = monicize(terms, U5, 10)
        M = monicize(gauss_half_half_terms(), U5, 10)
        assert L.coeffs == M.coeffs

    def test_dwork_coefficients_parse(self):
        data = {"terms": [{"zdeg": 0, "deltapoly": ["0", "1"]}, {"zdeg": 1, "deltapoly": ["-pi"]}]}
        terms = raw_terms_from_json(data, D3)
        L = monicize(terms, D3, 6)
        assert L.coeffs[0][1] == -D3.pi()


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
def test_const_map_against_coefficient_products(ctx):
    """The compiled map E -> L E - E R, and E -> L E, against Coefficient
    matrix products; L and R go in over one common denominator."""
    rng = random.Random(f"const-map/{ctx.e}")
    for n in (1, 2, 3):
        l, r, x = ([[random_coeff(rng, ctx) for _ in range(n)] for _ in range(n)] for _ in range(3))
        (dl, lv), (dr, rv), (dx, xv) = (const_ints(m, ctx) for m in (l, r, x))
        d = math.lcm(dl, dr)
        lv, rv = [v * (d // dl) for v in lv], [v * (d // dr) for v in rv]
        lx, xr = const_product(l, x, ctx), const_product(x, r, ctx)
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(lx, xr)]
        for triples, want in ((_const_map(ctx, lv, rv), diff), (_const_map(ctx, lv), lx)):
            image = _apply(triples, xv)
            g = math.gcd(d * dx, *image)
            assert ((d * dx) // g, [v // g for v in image]) == const_ints(want, ctx)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
class TestInvertConst:
    """The constant-matrix inverse runs fraction-free Gauss-Jordan on integer
    rows; the reference is Gauss-Jordan on Coefficients."""

    def invert(self, a, ctx):
        n, e = len(a), ctx.e
        d, x = _const_inverse(*const_ints(a, ctx), ctx)
        parts = [[Fraction(v, d) for v in x[at : at + e]] for at in range(0, len(x), e)]
        return [[ctx.coeff(parts[i * n + k]) for k in range(n)] for i in range(n)]

    def test_against_coefficient_gauss_jordan(self, ctx):
        rng = random.Random(f"invert-const/{ctx.e}")
        inverted = 0
        for n in (1, 2, 3, 3, 3, 4):
            a = [[random_coeff(rng, ctx) for _ in range(n)] for _ in range(n)]
            if n > 1:
                # a zero in the first pivot position forces a row swap
                a[0][0] = ctx.zero()
            unit = lambda j: [ctx.coeff(int(i == j)) for i in range(n)]
            try:
                cols = [ref_solve(a, unit(j)) for j in range(n)]
            except StopIteration:  # no pivot: singular
                with pytest.raises(NotAUnit):
                    self.invert(a, ctx)
                continue
            assert self.invert(a, ctx) == [[cols[j][i] for j in range(n)] for i in range(n)]
            inverted += 1
        assert inverted

    def test_singular_matrix_is_not_a_unit(self, ctx):
        pi = ctx.pi()
        # the second row is pi times the first
        a = [[ctx.one(), pi, ctx.coeff(3)], [pi, pi * pi, pi * 3], [ctx.zero(), ctx.one(), pi]]
        with pytest.raises(NotAUnit, match="constant term matrix is singular"):
            self.invert(a, ctx)
        with pytest.raises(NotAUnit):
            self.invert([[ctx.zero()]], ctx)
