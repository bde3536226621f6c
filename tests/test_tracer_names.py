"""Every name that bench/tracer.py wraps resolves where the tracer looks for
it: a function is an attribute of its module, and a method is in its own
class's __dict__. The tracer replaces cls.__dict__[attr], so a method that
moves to a base class would break the benchmark's trace; this check fails in
the unit tests instead. The tracer module is only read, never installed.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_tables() -> dict:
    """The tracer module's globals, from its source (no bytecode is cached
    beside it)."""
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def unresolved_functions(table) -> list:
    """The (module, attribute) pairs of table that name no function."""
    return [
        (modname, attr)
        for targets in table.values()
        for modname, attr in targets
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]


def unresolved_methods(table) -> list:
    """The (module, class, attribute) triples of table whose class does not
    define the attribute itself."""
    return [
        (modname, clsname, attr)
        for targets in table.values()
        for modname, clsname, attr in targets
        if attr not in vars(getattr(importlib.import_module(modname), clsname))
    ]


def test_the_check_sees_a_missing_or_inherited_name():
    functions = {"x": [("cartier.series", "_align"), ("cartier.series", "_no_such")]}
    # TruncSeries inherits __add__ from IntegerRows
    methods = {"y": [("cartier.series", "TruncSeries", "__mul__"),
                     ("cartier.series", "TruncSeries", "__add__")]}
    assert unresolved_functions(functions) == [("cartier.series", "_no_such")]
    assert unresolved_methods(methods) == [("cartier.series", "TruncSeries", "__add__")]


def test_every_wrapped_function_is_a_module_attribute():
    tracer = tracer_tables()
    # install() also wraps rational.pade_pairs by name
    table = dict(tracer["SPAN_FUNCTIONS"], pade=[("cartier.rational", "pade_pairs")])
    assert unresolved_functions(table) == []


def test_every_wrapped_method_is_defined_on_its_own_class():
    tracer = tracer_tables()
    assert unresolved_methods(tracer["SPAN_METHODS"]) == []
    assert unresolved_methods(tracer["COUNTED_METHODS"]) == []
