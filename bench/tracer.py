"""Outside-in tracer for the cartier library.

The library carries no instrumentation of its own, so this module wraps its
public functions from the outside: every module attribute that is bound to a
traced function is replaced (so `cartier.dependence.reconstruct_rational`
and `cartier.frobenius.reconstruct_rational` are both covered), and class
attributes such as `TruncSeries.__mul__` are replaced on the class.

Coarse boundaries record spans; hot coefficient arithmetic records counts
only, since a span per `Coefficient.__mul__` would cost more than the multiply.
Spans are kept in memory and folded into per-name totals between passes,
outside the timed region. A span's self time is its duration minus the
durations of its child spans (one thread, so children never overlap).
"""

import sys
import time
from collections import defaultdict

perf = time.perf_counter

# span name -> (module, attribute) pairs naming the original function
SPAN_FUNCTIONS = {
    "catalog.build": [("cartier.catalog", "build")],
    "catalog.check": [
        ("cartier.catalog", "p_lucas_check"),
        ("cartier.catalog", "dwork_congruence_check"),
    ],
    "dependence.scan": [("cartier.dependence", "kolchin_scan")],
    "dependence.product_power": [("cartier.dependence", "product_power")],
    "rational.reconstruct": [("cartier.rational", "reconstruct_rational")],
    "rational.raw_verify": [("cartier.rational", "raw_congruence_check")],
    "rational.verify": [
        ("cartier.rational", "congruence_outcome"),
        ("cartier.rational", "product_congruence_outcome"),
    ],
    "diffops.uniform_part": [("cartier.diffops", "uniform_part")],
    "frobenius.chain": [("cartier.frobenius", "antecedent_chain")],
    "frobenius.antecedent_step": [("cartier.frobenius", "antecedent_step")],
    "frobenius.certificate": [
        ("cartier.frobenius", name)
        for name in (
            "ratio_certificate",
            "period_ratio_certificate",
            "frobenius_ratio_certificate",
            "successive_frobenius_quotient",
            "logderiv_certificate",
            "logderiv_from_frobenius",
        )
    ],
}

# span name -> (module, class, attribute)
SPAN_METHODS = {
    "rational.make": [("cartier.rational", "RationalFunction", "make")],
    "series.mul": [("cartier.series", "TruncSeries", "__mul__")],
    "series.invert_unit": [("cartier.series", "TruncSeries", "invert_unit")],
    "diffops.matmul": [("cartier.diffops", "SeriesMatrix", "matmul")],
    "diffops.invert_series": [("cartier.diffops", "SeriesMatrix", "invert_series")],
    "diffops.unit_solution": [("cartier.diffops", "DiffOp", "unit_solution")],
}

# counter name -> (module, class, attribute); counted, never timed
COUNTED_METHODS = {
    "rings.mul.calls": [
        ("cartier.rings", "Coefficient", "__mul__"),
        ("cartier.rings", "Coefficient", "__rmul__"),
    ],
    "rings.inverse.calls": [("cartier.rings", "Coefficient", "inverse")],
    "series.pow_int.calls": [("cartier.series", "TruncSeries", "pow_int")],
}


class Tracer:
    """Spans and counters for one traced run; install() / uninstall() per pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._undo = []

    # -- recording -----------------------------------------------------------

    def open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[name + ".calls"] += 1
        rec[1] = perf()
        return rec

    def close(self, rec):
        rec[2] = perf()
        self.stack.pop()

    def fold(self):
        """Move the recorded spans into per-name self and total times."""
        if self.stack:
            raise RuntimeError("fold() inside an open span")
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered
        self.spans.clear()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _pade(self, fn):
        """pade_pairs wrapper: time inside next() is the span, pairs are counted."""
        tracer = self
        counts = self.counts

        def pade_pairs(f, window):
            counts["rational.pade.windows"] += 1
            gen = fn(f, window)
            try:
                while True:
                    rec = tracer.open("rational.pade")
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(rec)
                    counts["rational.pade.pairs"] += 1
                    yield item
            finally:
                gen.close()

        pade_pairs.__wrapped__ = fn
        return pade_pairs

    def _on_raw(self, passed):
        if not passed:
            self.counts["rational.raw_verify.rejects"] += 1

    def _on_certificate(self, _):
        self.counts["rational.certificates"] += 1

    def _on_scan(self, report):
        for key, value in report.stats.items():
            self.counts["dependence." + key] += value

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every cartier module attribute that holds `original`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cartier" or modname.startswith("cartier.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_attr(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "rational.raw_verify": self._on_raw,
            "rational.reconstruct": self._on_certificate,
            "dependence.scan": self._on_scan,
        }
        for name, targets in SPAN_FUNCTIONS.items():
            for modname, attr in targets:
                original = getattr(sys.modules[modname], attr)
                self._replace_everywhere(original, self._span(name, original, hooks.get(name)))
        rational = sys.modules["cartier.rational"]
        self._replace_everywhere(rational.pade_pairs, self._pade(rational.pade_pairs))
        for name, targets in SPAN_METHODS.items():
            for modname, clsname, attr in targets:
                cls = getattr(sys.modules[modname], clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._replace_attr(cls, attr, classmethod(self._span(name, raw.__func__)))
                else:
                    self._replace_attr(cls, attr, self._span(name, raw))
        for name, targets in COUNTED_METHODS.items():
            for modname, clsname, attr in targets:
                cls = getattr(sys.modules[modname], clsname)
                self._replace_attr(cls, attr, self._counted(name, cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
