"""Benchmark-side layer tracing for confalg.

``Tracer.install`` replaces chosen public functions and methods of the
``confalg`` modules with timing wrappers.  A function imported by value
(``from .solve import solve_system``) or aliased in a class body
(``__rmul__ = __mul__``) is bound in several places, so the wrappers are
installed by identity: every module dict and every confalg class dict that
holds an original gets its wrapper.  ``unwrapped_bindings`` proves that no
binding was missed.

A wrapper keeps, per span name, the number of calls, the inclusive time of
outermost calls and the self time (duration minus the time covered by child
spans).  Spans are aggregated in memory rather than stored one by one,
because the polynomial kernel makes millions of calls per run.  The self
times of all spans below a root add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, span name).  Several originals may share a span.
SPANS = (
    ("confalg.cli", "main", "cli.main"),
    ("confalg.presets", "instantiate", "presets.instantiate"),
    ("confalg.presets", "named_module", "presets.named_module"),
    ("confalg.presets", "rank1_module", "presets.rank1_module"),
    ("confalg.presets", "gamma_carrier", "presets.gamma_carrier"),
    ("confalg.presets", "zero_module", "presets.zero_module"),
    ("confalg.poly", "Poly.__mul__", "poly.mul"),
    ("confalg.poly", "Poly.__rmul__", "poly.mul"),
    ("confalg.poly", "Poly.__pow__", "poly.mul"),
    ("confalg.poly", "Poly.__add__", "poly.add"),
    ("confalg.poly", "Poly.__radd__", "poly.add"),
    ("confalg.poly", "Poly.__sub__", "poly.add"),
    ("confalg.poly", "Poly.__rsub__", "poly.add"),
    ("confalg.poly", "Poly.__neg__", "poly.add"),
    ("confalg.poly", "Poly.subs", "poly.subs"),
    ("confalg.poly", "Poly.substitute", "poly.subs"),
    ("confalg.poly", "Poly.coeff_of", "poly.coeff_of"),
    ("confalg.poly", "group_coefficients", "poly.group_coefficients"),
    ("confalg.poly", "monic_div_rem", "poly.monic_div_rem"),
    ("confalg.poly", "parse_poly", "poly.parse_poly"),
    ("confalg.solve", "solve_system", "solve.solve_system"),
    ("confalg.solve", "rational_roots", "solve.rational_roots"),
    ("confalg.algebra", "ConformalAlgebra.check_skew", "algebra.check_skew"),
    ("confalg.algebra", "ConformalAlgebra.check_jacobi", "algebra.check_jacobi"),
    ("confalg.algebra", "ConformalAlgebra.specialize", "algebra.specialize"),
    ("confalg.algebra", "parse_algebra", "algebra.parse_algebra"),
    ("confalg.annihilation", "ann_bracket", "annihilation.ann_bracket"),
    ("confalg.annihilation", "partial_action", "annihilation.partial_action"),
    ("confalg.annihilation", "labels_through", "annihilation.labels_through"),
    ("confalg.annihilation", "compare_closed_form", "annihilation.compare_closed_form"),
    ("confalg.annihilation", "filtration_check", "annihilation.filtration_check"),
    ("confalg.annihilation", "truncated_quotient", "annihilation.truncated_quotient"),
    ("confalg.annihilation", "FiniteLie.check_jacobi", "annihilation.FiniteLie.check_jacobi"),
    ("confalg.annihilation", "FiniteLie.derived_series",
     "annihilation.FiniteLie.derived_series"),
    ("confalg.annihilation", "FiniteLie.lower_central_series",
     "annihilation.FiniteLie.lower_central_series"),
    ("confalg.annihilation", "FiniteLie.bracket_vectors",
     "annihilation.FiniteLie.bracket_vectors"),
    ("confalg.annihilation", "FiniteLie.is_solvable", "annihilation.FiniteLie.is_solvable"),
    ("confalg.annihilation", "FiniteLie.is_nilpotent", "annihilation.FiniteLie.is_nilpotent"),
    ("confalg.modules", "check_module", "modules.check_module"),
    ("confalg.modules", "vir_completeness", "modules.vir_completeness"),
    ("confalg.modules", "rank1_classify", "modules.rank1_classify"),
    ("confalg.modules", "induced_action", "modules.induced_action"),
    ("confalg.modules", "submodule_scan", "modules.submodule_scan"),
    ("confalg.modules", "irreducibility_verdict", "modules.irreducibility_verdict"),
    ("confalg.report", "build_report", "report.build_report"),
    ("confalg.report", "attach_tex", "report.attach_tex"),
    ("confalg.report", "render_text", "report.render_text"),
    ("confalg.report", "render_json", "report.render_json"),
    ("confalg.report", "render_tex", "report.render_tex"),
    ("confalg.report", "family_verdict", "report.family_verdict"),
    ("confalg.report", "poly_to_latex", "report.poly_to_latex"),
    ("confalg.report", "ann_to_latex", "report.ann_to_latex"),
)


class SpanStat:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    """Aggregated spans plus a few counters (and one maximum) read from
    arguments and results."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.counters = {"solve.solve_system.eqs": 0, "solve.solve_system.unknowns": 0,
                         "solve.solve_system.families": 0, "modules.families": 0,
                         "annihilation.truncation_dim.max": 0}
        self.registries: list = []  # registries of algebras built in the current job
        self._stack = [0.0]
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # ---- wrappers -----------------------------------------------------------

    def _wrap(self, fn, stat: SpanStat, after=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dt - child
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += dt
                stack[-1] += dt
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after_hooks(self):
        counters = self.counters

        def solve_system(args, result):
            counters["solve.solve_system.eqs"] += len(args[0])
            counters["solve.solve_system.unknowns"] += len(args[1])
            counters["solve.solve_system.families"] += len(result)

        def rank1_classify(args, result):
            counters["modules.families"] += len(result)

        def truncated_quotient(args, result):
            key = "annihilation.truncation_dim.max"
            counters[key] = max(counters[key], result.dim)

        def instantiate(args, result):
            self.registries.append(result.registry)

        return {"solve.solve_system": solve_system, "modules.rank1_classify": rank1_classify,
                "annihilation.truncated_quotient": truncated_quotient,
                "presets.instantiate": instantiate}

    # ---- installation -------------------------------------------------------

    @staticmethod
    def _confalg_modules():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "confalg" or name.startswith("confalg."))]

    @classmethod
    def _namespaces(cls):
        """Every module dict and confalg class dict, each once."""
        seen: set[int] = set()
        out = []
        for mod in cls._confalg_modules():
            out.append(mod)
            for value in list(vars(mod).values()):
                if (isinstance(value, type) and value.__module__.startswith("confalg")
                        and id(value) not in seen):
                    seen.add(id(value))
                    out.append(value)
        return out

    def install(self) -> None:
        hooks = self._after_hooks()
        wrappers: dict[int, object] = {}
        names: dict[int, str] = {}
        for modname, path, span in SPANS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = vars(owner)[attr]
            if id(fn) in wrappers:
                if names[id(fn)] != span:
                    raise RuntimeError(f"{modname}.{path} is already traced as {names[id(fn)]}")
                continue
            stat = self.stats.setdefault(span, SpanStat())
            wrappers[id(fn)] = self._wrap(fn, stat, hooks.get(span))
            names[id(fn)] = span
            self._originals[id(fn)] = fn
        for space in self._namespaces():
            for attr, value in list(vars(space).items()):
                if self._is_original(value):
                    setattr(space, attr, wrappers[id(value)])
                    self._patched.append((space, attr, value))

    def _is_original(self, value) -> bool:
        return id(value) in self._originals and self._originals[id(value)] is value

    def uninstall(self) -> None:
        for space, attr, original in reversed(self._patched):
            setattr(space, attr, original)
        self._patched.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Names in confalg module or class dicts still bound to an original."""
        out = []
        for space in self._namespaces():
            prefix = (f"{space.__module__}.{space.__qualname__}" if isinstance(space, type)
                      else space.__name__)
            for attr, value in vars(space).items():
                if self._is_original(value):
                    out.append(f"{prefix}.{attr}")
        return out

    def patched_count(self) -> int:
        return len(self._patched)

    # ---- reading ------------------------------------------------------------

    def total_self(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())
