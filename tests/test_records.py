"""The record contract of the package's immutable value classes (rings.record).

Each class is built from one value per field, in field order; the values are
placeholders wherever a class does not check its fields. Coefficient writes
its own __init__, __eq__, __hash__ and __repr__, so only the checks that
hold for every record run on it.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from cartier import (
    AntecedentLevel,
    BadParameters,
    CatalogEntry,
    Certificate,
    Coefficient,
    CongruenceReport,
    DependenceReport,
    DiffOp,
    Finding,
    IntegralityReport,
    PadicContext,
    SeriesKind,
    SeriesSpec,
)
from cartier.rational import RationalFunction
from cartier.rings import Ramification, record

U5 = PadicContext.unramified(5)

# class -> its fields in order, with one value each
RECORDS = {
    PadicContext: {"prime": 5, "ramification": Ramification.DWORK},
    Coefficient: {"parts": (Fraction(1, 3),), "ctx": U5},
    RationalFunction: {"num": "num", "den": "den"},
    DiffOp: {"coeffs": ("a1", "a2"), "ctx": U5, "raw_terms": ((0, (1,)),)},
    AntecedentLevel: {
        "level": 1,
        "operator": "L",
        "companion": "C",
        "passage": "P",
        "residual": "R",
        "checked_order": 20,
        "passage_min_valuation": 0,
    },
    IntegralityReport: {"level": 2, "checked_upto": 24, "min_valuation": 0, "first_failure": None},
    Certificate: {
        "kind": "ratio",
        "level": 1,
        "rational": "R",
        "verified_order": 40,
        "min_residual_valuation": 3,
    },
    Finding: {"exponents": (1, -2), "product": "cert", "screen": "screen"},
    DependenceReport: {
        "series_names": ("apery", "exp"),
        "exp_bound": 2,
        "level": 1,
        "deg_bound": 4,
        "derivative_orders": None,
        "findings": (),
        "stats": (("rays", 4),),
    },
    SeriesSpec: {"kind": SeriesKind.APERY, "ctx": U5, "order": 30, "alphas": (Fraction(1, 2),)},
    CatalogEntry: {
        "spec": "spec",
        "series": "f",
        "operator_terms": None,
        "frobenius_period": 1,
        "warnings": (),
    },
    CongruenceReport: {
        "kind": "p-lucas",
        "prime": 5,
        "level": 1,
        "checked_upto": 30,
        "first_failure": None,
    },
}
GENERATED = [cls for cls in RECORDS if cls is not Coefficient]
DEFAULTS = {DiffOp: {"raw_terms": None}, SeriesSpec: {"alphas": None}}


def build(cls):
    return cls(*RECORDS[cls].values())


def changed(cls):
    """An instance that differs from build(cls) in its first field only."""
    fields = dict(RECORDS[cls])
    first = next(iter(fields))
    fields[first] = {PadicContext: 7}.get(cls, "other")
    return cls(**fields)


def test_every_record_of_the_package_is_listed():
    package = Path(__file__).resolve().parents[1] / "src" / "cartier"
    decorated = {
        node.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)
    }
    assert decorated == {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_fields_are_read_back_in_order(self, cls):
        r = build(cls)
        assert [getattr(r, name) for name in RECORDS[cls]] == list(RECORDS[cls].values())

    def test_keyword_construction(self, cls):
        assert cls(**RECORDS[cls]) == build(cls)
        reordered = dict(reversed(list(RECORDS[cls].items())))
        assert cls(**reordered) == build(cls)

    def test_assignment_and_deletion_raise(self, cls):
        r = build(cls)
        field = next(iter(RECORDS[cls]))
        with pytest.raises(AttributeError):
            setattr(r, field, RECORDS[cls][field])
        with pytest.raises(AttributeError):
            r.not_a_field = 1
        with pytest.raises(AttributeError):
            delattr(r, field)
        assert getattr(r, field) == RECORDS[cls][field]

    def test_wrong_argument_lists_are_type_errors(self, cls):
        values = list(RECORDS[cls].values())
        first = next(iter(RECORDS[cls]))
        with pytest.raises(TypeError):
            cls(*values, "extra")
        with pytest.raises(TypeError):
            cls(*values[:1])
        with pytest.raises(TypeError):
            cls(*values, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("cls", GENERATED, ids=lambda c: c.__name__)
class TestGeneratedMethods:
    def test_equal_values_are_equal_with_one_hash(self, cls):
        a, b = build(cls), build(cls)
        assert a is not b
        assert a == b and not a != b
        assert a == a
        assert hash(a) == hash(b) == hash(tuple(RECORDS[cls].values()))

    def test_a_different_field_is_unequal(self, cls):
        assert build(cls) != changed(cls)

    def test_equality_is_only_within_the_class(self, cls):
        class Sub(cls):
            pass

        values = tuple(RECORDS[cls].values())
        assert build(cls) != Sub(*values)
        assert build(cls) != values
        assert build(cls).__eq__(values) is NotImplemented

    def test_repr_lists_the_fields(self, cls):
        body = ", ".join(f"{name}={value!r}" for name, value in RECORDS[cls].items())
        assert repr(build(cls)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_defaults_fill_omitted_fields(cls):
    given = {k: v for k, v in RECORDS[cls].items() if k not in DEFAULTS[cls]}
    expected = {**given, **DEFAULTS[cls]}
    assert cls(*given.values()) == cls(**given) == cls(**expected)
    for name, value in DEFAULTS[cls].items():
        assert getattr(cls(*given.values()), name) == value


def test_padic_context_checks_its_prime_and_keeps_e_out_of_the_fields():
    with pytest.raises(BadParameters, match="not prime"):
        PadicContext(4, Ramification.DWORK)
    with pytest.raises(BadParameters, match="not prime"):
        PadicContext(prime=1, ramification=Ramification.UNRAMIFIED)
    ctx = PadicContext(5, Ramification.DWORK)
    assert ctx.e == 4 and PadicContext.unramified(5).e == 1
    assert repr(ctx) == f"PadicContext(prime=5, ramification={Ramification.DWORK!r})"
    other = PadicContext(5, Ramification.DWORK)
    object.__setattr__(other, "e", 99)
    assert other == ctx and hash(other) == hash(ctx) == hash((5, Ramification.DWORK))
    with pytest.raises(TypeError):
        PadicContext(5, Ramification.DWORK, 4)
    with pytest.raises(TypeError):
        PadicContext(5, Ramification.DWORK, e=4)
    with pytest.raises(AttributeError):
        ctx.e = 1


def test_coefficient_checks_its_component_count():
    with pytest.raises(BadParameters, match="component count"):
        Coefficient((Fraction(1), Fraction(0)), U5)
    with pytest.raises(BadParameters, match="component count"):
        Coefficient(parts=(Fraction(1),) * 3, ctx=PadicContext.dwork(5))
    assert Coefficient(parts=(Fraction(1),), ctx=U5) == 1


def test_a_method_the_class_defines_is_kept():
    @record
    class Pair:
        left: int
        right: int = 0

        def __repr__(self):
            return "pair"

    assert repr(Pair(1)) == "pair"
    assert Pair(1) == Pair(1, 0) == Pair(left=1)



def test_a_one_field_record_hashes_its_one_tuple():
    @record
    class One:
        value: int

    assert One(3) == One(value=3) != One(4)
    assert hash(One(3)) == hash((3,))
    assert repr(One(3)) == f"{One.__qualname__}(value=3)"
