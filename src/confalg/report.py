"""Dossier assembly for an algebra, with text, JSON and LaTeX renderers.

A dossier gathers, for one (bound or parameter-free) algebra: the bracket
table, axiom verdicts, locality orders, a closed-form check and sample
brackets of the coefficient algebra, a truncation with its solvability
analysis, the rank-one module families, and irreducibility samples.  All
content is deterministic, so renderings are stable byte for byte.

Terms are rendered in one place, :mod:`confalg.poly` (``render_terms``
behind ``Poly.render``, ``scaled``, ``signed_sum``); this module only
supplies the LaTeX spelling ``LATEX`` (\\partial, \\lambda, ``\\tfrac``
coefficients, braced powers).
It also holds the layout that the dossier and the CLI subcommands share:
the line join of a document, count plurals, grid-point headings, the
``align*`` block and its ``g &\\mapsto p`` rows, the JSON writer, and the
families block of ``build_report`` and ``confalg classify --format json``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_string
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .algebra import ConformalAlgebra, format_params, jth_product_of, locality_order_of
from .errors import DefinitionError
from .annihilation import (AnnBasis, ann_bracket, compare_closed_form, labels_through,
                           render_sums, truncated_quotient)
from .modules import irreducibility_verdict, rank1_classify
from .poly import Poly, Spelling
from .presets import gamma_carrier, named_module

_LATEX_NAMES = {
    "d": r"\partial",
    "x": r"\lambda",
    "y": r"\mu",
    "z": r"\nu",
    "alpha": r"\alpha",
    "beta": r"\beta",
    "gamma": r"\gamma",
}


def _latex_var(name: str) -> str:
    if name in _LATEX_NAMES:
        return _LATEX_NAMES[name]
    if name.startswith("gamma_"):
        return r"\gamma_{" + name[len("gamma_"):] + "}"
    if len(name) == 1:
        return name
    return r"\mathit{" + name + "}"


def _latex_coeff(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\tfrac{{{abs(value.numerator)}}}{{{value.denominator}}}"


LATEX = Spelling(var=_latex_var, power="{}^{{{}}}".format, times=" ", coeff=_latex_coeff)
_LATEX_GROUP = r"\left({}\right) {}"


def document(lines: Iterable[str]) -> str:
    """Lines joined into one document, each ending in a newline."""
    return "".join(f"{line}\n" for line in lines)


def plural(count: int, noun: str) -> str:
    return f"{count} {noun}" + ("" if count == 1 else "s")


def grid_heading(point: Mapping[str, object], fmt: str) -> str:
    """The heading of one grid point: ``at a = 1, b = 0:``, or in TeX a
    ``\\paragraph`` of the bindings."""
    items = sorted(point.items())
    if fmt == "tex":
        return r"\paragraph{" + ", ".join(f"${k} = {v}$" for k, v in items) + "}"
    return "at " + ", ".join(f"{k} = {v}" for k, v in items) + ":"


def align(rows: Iterable[str]) -> list[str]:
    """An ``align*`` block around already terminated rows."""
    return [r"\begin{align*}", *rows, r"\end{align*}"]


def mapsto_row(actions: Mapping[str, str]) -> str:
    """One align row ``g &\\mapsto p \\quad ...`` of LaTeX actions."""
    return " \\quad ".join(f"{g} &\\mapsto {p}" for g, p in actions.items()) + r" \\"


def poly_to_latex(p: Poly) -> str:
    """Canonical-order LaTeX for a polynomial (d becomes \\partial, x, y, z
    become lambda, mu, nu)."""
    return p.render(LATEX)


def _latex_element(elem) -> str:
    return " + ".join(elem.rendered_terms(LATEX, group=_LATEX_GROUP)) or "0"


def ann_symbol_to_latex(gen_name: str, label) -> str:
    return f"{gen_name}_{{{label}}}"


def ann_to_latex(registry, sums) -> str:
    """LaTeX for a coefficient-algebra bracket given as ``expanded_sums``
    lists it, labels in braced subscripts."""
    return render_sums(registry, sums, LATEX,
                       lambda s: ann_symbol_to_latex(s.gen.name, s.label), _LATEX_GROUP)


_REPORT_LABEL_BOUND = 6
_REPORT_DEPTH = 4
_REPORT_DEGREE = 2
_REPORT_SCAN = 3


def family_verdict(fam) -> str:
    """One-line irreducibility statement for a classified family."""
    if fam.is_zero():
        return "trivial (all actions zero)"
    extra = sorted(n for n in fam.free_params() if n.startswith("gamma"))
    if extra:
        return "irreducible iff alpha != 0 or " + " or ".join(f"{n} != 0" for n in extra)
    return "irreducible iff alpha != 0"


def families_json(families) -> list[dict]:
    """Rank-one families as their actions and irreducibility verdicts."""
    return [{"actions": {g: str(p) for g, p in fam.items()},
             "verdict": family_verdict(fam)} for fam in families]


def build_report(alg: ConformalAlgebra, depth: int = _REPORT_DEPTH) -> dict:
    """Assemble the dossier as plain nested data (strings, lists, dicts)."""
    skew = alg.check_skew()
    jacobi = alg.check_jacobi()
    # A generator pair's bracket is its table entry.
    locality, products, table = [], [], []
    for a, b in alg.upper_pairs():
        entry = alg.entry(a, b)
        table.append({"pair": [a, b], "value": entry.render()})
        order = locality_order_of(entry)
        locality.append({"pair": [a, b], "order": order})
        products += [{"pair": [a, b], "j": j, "value": jth_product_of(entry, j).render()}
                     for j in range(order)]
    data: dict = {
        "algebra": alg.name,
        "params": format_params(alg.param_values),
        "free_params": sorted(v.name for v in alg.params),
        "generators": [{"name": g.name, "offset": str(g.label_offset),
                        "shift": str(g.filtration_shift)} for g in alg.generators],
        "table": table,
        "axioms": {
            "skew": skew.passed,
            "jacobi": jacobi.passed,
            "skew_checks": len(skew.entries),
            "jacobi_checks": len(jacobi.entries),
            "failures": [list(e.key) for e in skew.failures() + jacobi.failures()],
        },
        "locality": locality,
        "jth_products": products,
    }

    ann: dict = {"max_label": _REPORT_LABEL_BOUND}
    if alg.closed_ann_form is not None:
        mismatches = compare_closed_form(alg, _REPORT_LABEL_BOUND)
        ann["closed_form"] = "pass" if not mismatches else "fail"
        ann["mismatches"] = mismatches[:5]
    else:
        ann["closed_form"] = "unavailable"
    samples = []
    for gname, hname in alg.ordered_pairs():
        g, h = alg.gen(gname), alg.gen(hname)
        m = labels_through(g, 1)[-1]
        n = labels_through(h, 0)[-1]
        value = ann_bracket(alg, AnnBasis(g, m), AnnBasis(h, n))
        samples.append({"left": f"{gname}_{m}", "right": f"{hname}_{n}",
                        "value": value.render()})
    ann["samples"] = samples
    data["annihilation"] = ann

    if not alg.params:
        finite = truncated_quotient(alg, depth)
        series = finite.derived_series()
        solvable = series[-1] == 0
        data["truncation"] = {
            "depth": depth,
            "dim": finite.dim,
            "derived_series": series,
            "solvable": solvable,
            "derived_length": len(series) - 1 if solvable else None,
        }

        families = rank1_classify(alg, _REPORT_DEGREE)
        carrier = gamma_carrier(alg)
        pattern = "irreducible iff alpha != 0"
        if carrier is not None:
            pattern = "irreducible iff alpha != 0 or gamma != 0"
        sample_names = ["M_0_2", "M_1_2"]
        if carrier is not None:
            sample_names.append("M_0_2_1")
        verdicts = []
        for spec in sample_names:
            action = named_module(alg, spec)
            verdict = irreducibility_verdict(alg, action, _REPORT_SCAN)
            verdicts.append({
                "module": spec,
                "status": verdict.status,
                "certificate": verdict.certificate,
                "reason": verdict.reason,
                "witnesses": [str(w.generator) for w in verdict.witnesses],
            })
        data["modules"] = {
            "degree": _REPORT_DEGREE,
            "families": families_json(families),
            "pattern": pattern,
            "verdicts": verdicts,
        }
    return data


def render_text(data: dict) -> str:
    lines = [f"algebra {data['algebra']}"]
    if data["params"]:
        lines.append("params: " + ", ".join(f"{k} = {v}" for k, v in data["params"].items()))
    if data["free_params"]:
        lines.append("free params: " + ", ".join(data["free_params"]))
    lines.append("generators: " + ", ".join(
        f"{g['name']} (offset {g['offset']}, shift {g['shift']})"
        for g in data["generators"]))
    lines.append("table:")
    for row in data["table"]:
        a, b = row["pair"]
        lines.append(f"  [{a},{b}] = {row['value']}")
    ax = data["axioms"]
    lines.append(f"axioms: skew {'pass' if ax['skew'] else 'FAIL'} "
                 f"({plural(ax['skew_checks'], 'check')}), jacobi "
                 f"{'pass' if ax['jacobi'] else 'FAIL'} ({plural(ax['jacobi_checks'], 'check')})")
    for key in ax["failures"]:
        lines.append("  failing: (" + ", ".join(key) + ")")
    lines.append("locality orders: " + ", ".join(
        f"({row['pair'][0]},{row['pair'][1]}) = {row['order']}" for row in data["locality"]))
    lines.append("nonzero j-th products:")
    for row in data["jth_products"]:
        a, b = row["pair"]
        lines.append(f"  {a} ({row['j']}) {b} = {row['value']}")
    ann = data["annihilation"]
    lines.append(f"coefficient algebra through label {ann['max_label']}: "
                 f"closed form {ann['closed_form']}")
    for mism in ann.get("mismatches", []):
        lines.append(f"  mismatch: {mism}")
    lines.append("sample brackets:")
    for s in ann["samples"]:
        lines.append(f"  [{s['left']}, {s['right']}] = {s['value']}")
    if "truncation" in data:
        tr = data["truncation"]
        length = tr["derived_length"]
        lines.append(
            f"truncation depth {tr['depth']}: dim {tr['dim']}, derived series "
            f"{tr['derived_series']}, "
            + (f"solvable of length {length}" if tr["solvable"] else "not solvable"))
    if "modules" in data:
        mo = data["modules"]
        lines.append(f"rank-one families (degree bound {mo['degree']}):")
        for fam in mo["families"]:
            lines.append("  " + "; ".join(f"{g} -> {p}" for g, p in fam["actions"].items()))
            lines.append(f"    {fam['verdict']}")
        lines.append(f"irreducibility pattern: {mo['pattern']}")
        for v in mo["verdicts"]:
            extra = ""
            if v["witnesses"]:
                extra = " (witness " + ", ".join(v["witnesses"]) + ")"
            elif v["certificate"] == "bounded":
                extra = " (up to the scan bound)"
            lines.append(f"  {v['module']}: {v['status']}{extra}")
    return document(lines)


def _json_key(key) -> str:
    """A dict key as ``json`` turns it into a string before quoting it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return json.dumps(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(out: list, value, newline: str) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` spells
    it, with ``newline`` the line break and indent before the value's
    closing bracket.  Types are tried in ``json``'s order; a value of any
    other type (a float, or one ``json`` rejects) is left to ``json.dumps``.
    An item of a list or dict whose type is exactly ``str`` or ``int`` is
    written in place, without a call; a subclass, ``bool`` among them, goes
    through the call like any other item."""
    if isinstance(value, str):
        out.append(_encode_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            if type(item) is str:
                out.append(_encode_string(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write_json(out, item, inner)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, item in value.items():
            out += (inner, _encode_string(_json_key(key)), ": ")
            if type(item) is str:
                out.append(_encode_string(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write_json(out, item, inner)
            out.append(",")
        out[-1] = newline + "}"
    else:
        out.append(json.dumps(value))


def render_json(data) -> str:
    """``json.dumps(data, indent=2)`` and a newline, byte for byte, written
    in one pass: ``json`` falls back to its pure-Python encoder whenever an
    indent is given, and strings here go through its C quoting function."""
    out: list = []
    _write_json(out, data, "\n")
    out.append("\n")
    return "".join(out)


def render_tex(data: dict) -> str:
    if any("tex" not in row for row in data["table"]):
        raise DefinitionError("call attach_tex on the report before render_tex")
    lines = [r"\section*{Algebra " + data["algebra"] + "}"]
    lines += align(f"[{row['pair'][0]}_\\lambda {row['pair'][1]}] &= {row['tex']} \\\\"
                   for row in data["table"])
    ax = data["axioms"]
    lines.append(r"Axioms: skew " + ("pass" if ax["skew"] else "fail")
                 + ", Jacobi " + ("pass" if ax["jacobi"] else "fail") + r".")
    if "modules" in data:
        lines += align(map(mapsto_row, data["modules"]["families_tex"]))
    return document(lines)


def attach_tex(alg: ConformalAlgebra, data: dict) -> dict:
    """Add LaTeX renderings for the table and module families in place."""
    for row in data["table"]:
        a, b = row["pair"]
        row["tex"] = _latex_element(alg.entry(a, b))
    if "modules" in data:
        families = rank1_classify(alg, data["modules"]["degree"], cross_check=False)
        data["modules"]["families_tex"] = [
            {g: poly_to_latex(p) for g, p in fam.items()} for fam in families]
    return data
