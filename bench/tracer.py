"""Per-layer tracing by wrapping public functions from outside.

The layers are the package's modules.  Each traced operation names the
functions it covers; ``install`` replaces every binding of those function
objects -- class attributes and every ``supersphere`` module namespace that
imported the name, such as ``cli.chern_number`` -- with a wrapper, and
``uninstall`` puts the originals back.  No file under ``src/`` changes.

A wrapper records calls, inclusive time and self time.  Its own bookkeeping
is measured and removed from the caller's spans, so a parent's self time does
not absorb the wrappers of its many children.  Inclusive time is counted only
at the outermost frame of a recursive operation.  Times are raw seconds here;
the runner scales each job's spans by that job's normalisation factor.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# operation -> the functions it covers, as "module:qualified.name"
OPS = {
    "scalars.mul": ["supersphere.scalars:Scalar.__mul__"],
    "scalars.add": ["supersphere.scalars:Scalar.__add__"],
    "algebra.mul": ["supersphere.algebra:Element.__mul__"],
    "algebra.reduce": ["supersphere.algebra:RewriteSystem.reduce"],
    "algebra.substitute": ["supersphere.algebra:Element.substitute"],
    "algebra.diamond": ["supersphere.algebra:Element.diamond"],
    "matrices.matmul": ["supersphere.matrices:SuperMatrix.__matmul__"],
    "matrices.dagger": ["supersphere.matrices:SuperMatrix.dagger"],
    "forms.wedge": ["supersphere.forms:SuperForm.__mul__"],
    "forms.d": ["supersphere.forms:d"],
    "forms.ideal_reduce": ["supersphere.forms:DifferentialIdeal.reduce"],
    "forms.substitute": ["supersphere.forms:SuperForm.substitute"],
    "trig.phase_mul": ["supersphere.trig:PhaseHalfAngle.__mul__"],
    "trig.to_trigpoly": ["supersphere.trig:PhaseHalfAngle.to_trigpoly"],
    "trig.trigpoly_mul": ["supersphere.trig:TrigPoly.__mul__"],
    "trig.wallis": ["supersphere.trig:wallis_integrate"],
    "monopole.str_p_dp_dp": ["supersphere.monopole:supertrace_p_dp_dp"],
    "monopole.localizer": ["supersphere.monopole:LocalizedModel.project"],
    "monopole.element_to_base": ["supersphere.monopole:element_to_base"],
    "monopole.projector": ["supersphere.monopole:projector"],
    "berezin.chart_pullback": ["supersphere.berezin:chart_pullback"],
    "berezin.chern_number": ["supersphere.berezin:chern_number"],
    "linear.expand": ["supersphere.linear:expand_in_basis"],
    "cli.main": ["supersphere.cli:main"],
    # serialising the CLI's result: to_obj of the emitted object and json.dumps
    "cli.emit": ["supersphere.matrices:SuperMatrix.to_obj",
                 "supersphere.forms:SuperForm.to_obj", "json:dumps"],
}

# per-layer metrics the tracer produces: (name, unit, better)
METRICS = [
    ("scalars.mul.calls", "count", "lower"),
    ("scalars.mul.self_s", "s", "lower"),
    ("scalars.add.calls", "count", "lower"),
    ("scalars.add.self_s", "s", "lower"),
    ("scalars.mul.multi_ratio", "ratio", "lower"),
    ("scalars.den_bits_max", "bits", "lower"),
    ("algebra.mul.calls", "count", "lower"),
    ("algebra.mul.self_s", "s", "lower"),
    ("algebra.reduce.calls", "count", "lower"),
    ("algebra.reduce.self_s", "s", "lower"),
    ("algebra.substitute.self_s", "s", "lower"),
    ("algebra.terms_out", "count", "lower"),
    ("algebra.diamond.self_s", "s", "lower"),
    ("matrices.matmul.calls", "count", "lower"),
    ("matrices.matmul.incl_s", "s", "lower"),
    ("matrices.dagger.incl_s", "s", "lower"),
    ("forms.wedge.calls", "count", "lower"),
    ("forms.wedge.self_s", "s", "lower"),
    ("forms.d.calls", "count", "lower"),
    ("forms.ideal_reduce.calls", "count", "lower"),
    ("forms.ideal_reduce.incl_s", "s", "lower"),
    ("forms.substitute.incl_s", "s", "lower"),
    ("trig.phase_mul.calls", "count", "lower"),
    ("trig.phase_mul.self_s", "s", "lower"),
    ("trig.to_trigpoly.incl_s", "s", "lower"),
    ("trig.trigpoly_mul.self_s", "s", "lower"),
    ("trig.wallis.incl_s", "s", "lower"),
    ("monopole.str_p_dp_dp.incl_s", "s", "lower"),
    ("monopole.localizer.calls", "count", "lower"),
    ("monopole.localizer.incl_s", "s", "lower"),
    ("monopole.element_to_base.incl_s", "s", "lower"),
    ("monopole.projector.incl_s", "s", "lower"),
    ("monopole.terms_out", "count", "lower"),
    ("berezin.chart_pullback.incl_s", "s", "lower"),
    ("berezin.chart_pullback.self_s", "s", "lower"),
    ("berezin.chern_number.incl_s", "s", "lower"),
    ("linear.expand.incl_s", "s", "lower"),
    ("cli.main.incl_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
]


class Stat:
    """Totals of one operation: calls, times and what its observer counts."""

    __slots__ = ("calls", "incl", "self", "depth", "multi", "den_bits", "terms")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.depth = 0
        self.multi = 0
        self.den_bits = 0
        self.terms = 0


def _observe_scalar_mul(st: Stat, args, result) -> None:
    left, right = args
    if not left.is_simple or not getattr(right, "is_simple", True):
        st.multi += 1
    for _rad, _pi, re, im in getattr(result, "components", list)():
        st.den_bits = max(st.den_bits, re.denominator.bit_length(), im.denominator.bit_length())


def _observe_terms(st: Stat, args, result) -> None:
    st.terms += len(getattr(result, "terms", ()))


def _observe_projector(st: Stat, args, result) -> None:
    st.terms += sum(len(e.terms) for row in result.matrix.entries for e in row)


OBSERVERS = {
    "scalars.mul": _observe_scalar_mul,
    "algebra.mul": _observe_terms,
    "monopole.element_to_base": _observe_terms,
    "monopole.projector": _observe_projector,
}


def _resolve(spec: str):
    """(owner module, original function) for "module:qual.name"."""
    mod_name, qual = spec.split(":")
    module = importlib.import_module(mod_name)
    obj = module
    for part in qual.split("."):
        obj = vars(obj)[part]
    return module, obj


def _namespaces(owner):
    """The owner module plus every loaded supersphere module and its classes."""
    mods = [owner] + [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "supersphere" or name.startswith("supersphere."))]
    seen = set()
    for m in mods:
        for container in [m] + [v for v in vars(m).values()
                                if isinstance(v, type) and v.__module__.startswith("supersphere")]:
            if id(container) not in seen:
                seen.add(id(container))
                yield container


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        for op, specs in OPS.items():
            for spec in specs:
                owner, fn = _resolve(spec)
                wrapper = self._wrap(op, fn, OBSERVERS.get(op))
                found = False
                for container in _namespaces(owner):
                    for name, value in list(vars(container).items()):
                        if value is fn:
                            self.patches.append((container, name, fn))
                            setattr(container, name, wrapper)
                            found = True
                if not found:
                    raise RuntimeError("no binding found for %s" % spec)

    def uninstall(self) -> None:
        while self.patches:
            container, name, original = self.patches.pop()
            setattr(container, name, original)

    def take(self) -> dict[str, Stat]:
        """The totals since the last take, resetting them."""
        if self._stack:
            raise RuntimeError("take() inside a traced call")
        out = dict(self.stats)
        self.stats.clear()
        return out

    def _wrap(self, op: str, fn, observe):
        stack = self._stack
        stats = self.stats
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tp = perf()
            st = stats.get(op)
            if st is None:
                st = stats[op] = Stat()
            frame = [0.0, 0.0]  # children's whole spans, bookkeeping inside
            stack.append(frame)
            st.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                st.depth -= 1
            raw = t1 - t0
            incl = raw - frame[1]
            st.calls += 1
            st.self += raw - frame[0]
            if not st.depth:
                st.incl += incl
            if observe is not None:
                observe(st, args, result)
            if stack:
                parent = stack[-1]
                span = perf() - tp
                parent[0] += span
                parent[1] += span - incl
            return result
        return wrapper


def merge(total: dict[str, Stat], job: dict[str, Stat], factor: float) -> None:
    """Add one job's totals into ``total``, scaling its times by ``factor``."""
    for op, st in job.items():
        acc = total.get(op)
        if acc is None:
            acc = total[op] = Stat()
        acc.calls += st.calls
        acc.incl += st.incl * factor
        acc.self += st.self * factor
        acc.multi += st.multi
        acc.den_bits = max(acc.den_bits, st.den_bits)
        acc.terms += st.terms


def layer_values(passes: list[dict[str, Stat]]) -> dict[str, float]:
    """Tracer metrics for one pass: counts from the first, times as medians.

    ``passes`` holds per-pass totals whose times are already normalised.
    """
    def value(stats: dict[str, Stat], metric: str) -> float:
        if metric == "scalars.den_bits_max":
            return stats["scalars.mul"].den_bits if "scalars.mul" in stats else 0
        if metric == "algebra.terms_out":
            return stats["algebra.mul"].terms if "algebra.mul" in stats else 0
        if metric == "monopole.terms_out":
            return sum(stats[op].terms for op in ("monopole.projector", "monopole.element_to_base")
                       if op in stats)
        op, _, field = metric.rpartition(".")
        st = stats.get(op)
        if st is None:
            return 0
        if field == "calls":
            return st.calls
        if field == "self_s":
            return st.self
        if field == "incl_s":
            return st.incl
        if field == "multi_ratio":
            return st.multi / st.calls if st.calls else 0.0
        raise KeyError(metric)

    out = {}
    for name, unit, _better in METRICS:
        values = [value(p, name) for p in passes]
        out[name] = statistics.median(values) if unit == "s" else values[0]
    return out
