"""Command-line front end.

Subcommands: verify, ann, truncate, classify, submodules, report.  Algebras
are given by preset name (vir, w, wb, tsv, tsvc) or by a table file ending
in .alg.  Parameters bind with --param a=2 b=1; classify also takes
--param-grid a=0..2 or a=0,1/2,1 and runs the cartesian product.  Output
formats: text (default), json, tex.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 bad input, 3 the request is outside what the
solver handles.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .algebra import ConformalAlgebra, format_params, parse_algebra
from .annihilation import (AnnBasis, ann_bracket, compare_closed_form,
                           labels_through, truncated_quotient)
from .errors import (BindingError, DiscrepancyError, DivisibilityError, ParseError,
                     UnsupportedError, WorkbenchError)
from .modules import irreducibility_verdict, rank1_classify, submodule_scan
from .presets import PRESET_NAMES, instantiate, named_module
from .poly import scaled, signed_sum
from .report import (LATEX, ann_symbol_to_latex, ann_to_latex, attach_tex, build_report,
                     families_json, family_verdict, poly_to_latex, render_tex, render_text)

PASS = 0
CHECK_FAILED = 1
BAD_INPUT = 2
UNSUPPORTED = 3


class _InputError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _InputError(f"not a rational number: {text!r}")


def _parse_bindings(pairs: list[str] | None) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for pair in pairs or []:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise _InputError(f"expected name=value, got {pair!r}")
        if name in out:
            raise _InputError(f"parameter {name} bound twice")
        out[name] = _parse_fraction(value)
    return out


def _parse_grid(specs: list[str] | None) -> dict[str, list[Fraction]]:
    """Grid axes: a=0..2 (integer range) or a=0,1/2,1 (explicit list)."""
    out: dict[str, list[Fraction]] = {}
    for spec in specs or []:
        name, eq, values = spec.partition("=")
        if not eq or not name:
            raise _InputError(f"expected name=range, got {spec!r}")
        if name in out:
            raise _InputError(f"grid parameter {name} given twice")
        if ".." in values:
            lo_text, _, hi_text = values.partition("..")
            lo, hi = _parse_fraction(lo_text), _parse_fraction(hi_text)
            if lo.denominator != 1 or hi.denominator != 1 or hi < lo:
                raise _InputError(f"range must be nondecreasing integers: {spec!r}")
            out[name] = [Fraction(v) for v in range(int(lo), int(hi) + 1)]
        else:
            out[name] = [_parse_fraction(v) for v in values.split(",")]
    return out


def _load_algebra(ref: str, bindings: dict[str, Fraction]) -> ConformalAlgebra:
    if ref in PRESET_NAMES:
        return instantiate(ref, bindings or None)
    if ref.endswith(".alg"):
        try:
            with open(ref, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise _InputError(f"cannot read {ref}: {exc}")
        alg = parse_algebra(text, source=ref)
        if bindings:
            alg = alg.specialize(bindings)
        return alg
    raise _InputError(
        f"unknown algebra {ref!r}: expected one of {', '.join(PRESET_NAMES)} or a .alg file")


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(data) -> None:
    _emit(json.dumps(data, indent=2) + "\n")


# ---- subcommands ------------------------------------------------------------------


def _grid_points(base: ConformalAlgebra, bindings: dict[str, Fraction],
                 grid: dict[str, list[Fraction]]) -> list[dict[str, Fraction]]:
    """Expand --param/--param-grid into a list of binding points."""
    declared = {v.name for v in base.params}
    if grid and not declared:
        sys.stderr.write(f"warning: {base.name} has no parameters; ignoring --param-grid\n")
        grid = {}
    for name in grid:
        if name not in declared:
            raise _InputError(f"grid parameter {name} is not a parameter of {base.name}")
        if name in bindings:
            raise _InputError(f"parameter {name} given both in --param and --param-grid")
    if not grid:
        return [bindings]
    axes = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[name] for name in axes)):
        point = dict(bindings)
        point.update(dict(zip(axes, combo)))
        points.append(point)
    return points


def _cmd_verify(args) -> int:
    bindings = _parse_bindings(args.param)
    grid = _parse_grid(args.param_grid)
    base = _load_algebra(args.algebra, {})
    points = _grid_points(base, bindings, grid)

    results = []
    ok = True
    for point in points:
        alg = _load_algebra(args.algebra, point)
        skew, jacobi = alg.check_skew(), alg.check_jacobi()
        results.append((alg, skew, jacobi))
        ok = ok and skew.passed and jacobi.passed

    if args.format == "json":
        blocks = []
        for alg, skew, jacobi in results:
            blocks.append({
                "algebra": alg.name,
                "params": format_params(alg.param_values),
                "skew": {"passed": skew.passed, "checks": len(skew.entries),
                         "failures": [{"pair": list(e.key), "residual": e.residual}
                                      for e in skew.failures()]},
                "jacobi": {"passed": jacobi.passed, "checks": len(jacobi.entries),
                           "failures": [{"triple": list(e.key), "residual": e.residual}
                                        for e in jacobi.failures()]},
            })
        _emit_json(blocks[0] if len(blocks) == 1 else blocks)
    elif args.format == "tex":
        lines = [r"\section*{Axioms for " + base.name + "}"]
        for alg, skew, jacobi in results:
            point = format_params(alg.param_values)
            if point and len(results) > 1:
                lines.append(r"\paragraph{" + ", ".join(
                    f"${k} = {v}$" for k, v in point.items()) + "}")
            lines.append("Skew symmetry: " + ("pass" if skew.passed else "fail") + r" \\")
            for e in skew.failures():
                lines.append(rf"\quad $({', '.join(e.key)})$: "
                             rf"residual \texttt{{{e.residual}}} \\")
            lines.append("Jacobi identity: " + ("pass" if jacobi.passed else "fail"))
            for e in jacobi.failures():
                lines.append(rf" \\ \quad $({', '.join(e.key)})$: "
                             rf"residual \texttt{{{e.residual}}}")
        _emit("\n".join(lines) + "\n")
    else:
        for alg, skew, jacobi in results:
            prefix = ""
            if len(results) > 1:
                point = format_params(alg.param_values)
                _emit("at " + ", ".join(f"{k} = {v}" for k, v in point.items()) + ":\n")
                prefix = "  "
            npairs, ntriples = len(skew.entries), len(jacobi.entries)
            _emit(f"{prefix}skew symmetry: {'pass' if skew.passed else 'FAIL'} "
                  f"({npairs} pair{'s' if npairs != 1 else ''})\n")
            for e in skew.failures():
                _emit(f"{prefix}  ({', '.join(e.key)}): residual {e.residual}\n")
            _emit(f"{prefix}jacobi identity: {'pass' if jacobi.passed else 'FAIL'} "
                  f"({ntriples} triple{'s' if ntriples != 1 else ''})\n")
            for e in jacobi.failures():
                _emit(f"{prefix}  ({', '.join(e.key)}): residual {e.residual}\n")
    return PASS if ok else CHECK_FAILED


def _cmd_ann(args) -> int:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    bound = Fraction(args.degree)
    rows = []
    for gname, hname in alg.ordered_pairs():
        g, h = alg.gen(gname), alg.gen(hname)
        for m in labels_through(g, bound):
            for n in labels_through(h, bound):
                value = ann_bracket(alg, AnnBasis(g, m), AnnBasis(h, n))
                rows.append((gname, m, hname, n, value))
    mismatches: list[str] | None = None
    if alg.closed_ann_form is not None:
        mismatches = compare_closed_form(alg, bound)
    if args.format == "json":
        _emit_json({
            "algebra": alg.name,
            "params": format_params(alg.param_values),
            "max_label": str(bound),
            "brackets": [{"left": f"{a}_{m}", "right": f"{b}_{n}", "value": v.render()}
                         for a, m, b, n, v in rows],
            "closed_form": ("unavailable" if mismatches is None
                            else "pass" if not mismatches else "fail"),
            "mismatches": mismatches or [],
        })
    elif args.format == "tex":
        lines = [r"\begin{align*}"]
        for a, m, b, n, v in rows:
            left = ann_symbol_to_latex(a, m)
            right = ann_symbol_to_latex(b, n)
            lines.append(f"[{left}, {right}] &= {ann_to_latex(v)} \\\\")
        lines.append(r"\end{align*}")
        _emit("\n".join(lines) + "\n")
    else:
        for a, m, b, n, v in rows:
            _emit(f"[{a}_{m}, {b}_{n}] = {v.render()}\n")
        if mismatches is None:
            _emit("closed form: unavailable\n")
        elif mismatches:
            _emit(f"closed form: FAIL ({len(mismatches)} mismatches)\n")
            for m in mismatches[:10]:
                _emit(f"  {m}\n")
        else:
            _emit("closed form: pass\n")
    return CHECK_FAILED if mismatches else PASS


def _cmd_truncate(args) -> int:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    finite = truncated_quotient(alg, args.truncate)
    series = finite.derived_series()
    lower = finite.lower_central_series()
    solvable, length = finite.is_solvable()
    nilpotent = finite.is_nilpotent()
    if args.format == "json":
        data = finite.to_json()
        data.update({
            "derived_series": series,
            "lower_central_series": lower,
            "solvable": solvable,
            "derived_length": length,
            "nilpotent": nilpotent,
        })
        _emit_json(data)
    elif args.format == "tex":
        def tex_symbol(index):
            name, label = finite.basis[index]
            return ann_symbol_to_latex(name, label)
        lines = [r"\begin{align*}"]
        for (i, j), terms in finite.nonzero_brackets():
            rhs = signed_sum(scaled(c, tex_symbol(k), LATEX) for k, c in terms)
            lines.append(f"[{tex_symbol(i)}, {tex_symbol(j)}] &= {rhs} \\\\")
        lines.append(r"\end{align*}")
        _emit("\n".join(lines) + "\n")
    else:
        _emit(f"dimension {finite.dim}\n")
        _emit("basis: " + ", ".join(finite.symbol(i) for i in range(finite.dim)) + "\n")
        for (i, j), terms in finite.nonzero_brackets():
            rhs = " + ".join(scaled(c, finite.symbol(k)) for k, c in terms)
            _emit(f"[{finite.symbol(i)}, {finite.symbol(j)}] = {rhs}\n")
        _emit(f"derived series dims: {series}\n")
        _emit(f"lower central series dims: {lower}\n")
        if solvable:
            _emit(f"solvable: yes (derived length {length})\n")
        else:
            _emit("solvable: no\n")
        _emit(f"nilpotent: {'yes' if nilpotent else 'no'}\n")
    return PASS


def _cmd_classify(args) -> int:
    bindings = _parse_bindings(args.param)
    grid = _parse_grid(args.param_grid)
    base = _load_algebra(args.algebra, {})
    points = _grid_points(base, bindings, grid)
    gridded = len(points) > 1 or bool(grid)

    results = []
    for point in points:
        alg = _load_algebra(args.algebra, point)
        families = rank1_classify(alg, args.degree)
        results.append((point, families))

    if args.format == "json":
        if gridded:
            _emit_json({
                "algebra": base.name,
                "degree": args.degree,
                "grid": [{"params": format_params(p), "families": families_json(f)}
                         for p, f in results],
            })
        else:
            point, families = results[0]
            _emit_json({
                "algebra": base.name,
                "params": format_params(point),
                "degree": args.degree,
                "families": families_json(families),
            })
    elif args.format == "tex":
        lines = []
        for point, families in results:
            if point:
                lines.append(r"\paragraph{" + ", ".join(
                    f"${k} = {v}$" for k, v in sorted(point.items())) + "}")
            lines.append(r"\begin{align*}")
            for fam in families:
                lines.append(" \\quad ".join(
                    f"{g} &\\mapsto {poly_to_latex(p)}" for g, p in fam.items()) + r" \\")
            lines.append(r"\end{align*}")
        _emit("\n".join(lines) + "\n")
    else:
        for point, families in results:
            if gridded:
                _emit("at " + ", ".join(f"{k} = {v}" for k, v in sorted(point.items())) + ":\n")
            indent = "  " if gridded else ""
            for fam in families:
                _emit(indent + fam.render() + "\n")
                _emit(indent + "  " + family_verdict(fam) + "\n")
    return PASS


def _cmd_submodules(args) -> int:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    action = named_module(alg, args.module)
    witnesses = submodule_scan(alg, action, args.degree)
    verdict = irreducibility_verdict(alg, action, args.degree)
    if args.format == "json":
        _emit_json({
            "algebra": alg.name,
            "params": format_params(alg.param_values),
            "module": args.module,
            "action": {g: str(p) for g, p in action.items()},
            "witnesses": [{"generator": str(w.generator),
                           "induced": {g: str(p) for g, p in w.induced.items()}}
                          for w in witnesses],
            "verdict": {"status": verdict.status, "certificate": verdict.certificate,
                        "reason": verdict.reason},
        })
    elif args.format == "tex":
        lines = [f"Module {args.module}: {verdict.status}."]
        for w in witnesses:
            lines.append(r"Proper submodule generated by $" + poly_to_latex(w.generator)
                         + r"$ acting by $" + ", ".join(
                             f"{g} \\mapsto {poly_to_latex(p)}" for g, p in w.induced.items())
                         + "$.")
        _emit("\n".join(lines) + "\n")
    else:
        _emit(f"module {args.module}: {action.render()}\n")
        if witnesses:
            for w in witnesses:
                _emit(f"submodule generator: {w.generator}\n")
                _emit(f"  induced action: {w.induced.render()}\n")
        else:
            _emit(f"no proper submodules up to generator degree {args.degree}\n")
        _emit(f"verdict: {verdict.status} ({verdict.reason})\n")
    return PASS


def _cmd_report(args) -> int:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    data = build_report(alg, depth=args.truncate)
    if args.format == "json":
        _emit_json(data)
    elif args.format == "tex":
        attach_tex(alg, data)
        _emit(render_tex(data))
    else:
        _emit(render_text(data))
    ax = data["axioms"]
    closed = data["annihilation"]["closed_form"]
    ok = ax["skew"] and ax["jacobi"] and closed in ("pass", "unavailable")
    return PASS if ok else CHECK_FAILED


# ---- argument wiring --------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confalg",
        description="Exact workbench for finite Lie conformal algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_default=None, degree_help="", degree_type=int):
        p.add_argument("algebra",
                       help="preset name (vir, w, wb, tsv, tsvc) or a .alg table file")
        p.add_argument("--param", action="extend", nargs="+", default=[],
                       metavar="NAME=VALUE", help="bind structure parameters")
        p.add_argument("--format", choices=("text", "json", "tex"), default="text")
        if degree_default is not None:
            p.add_argument("--degree", type=degree_type, default=degree_default,
                           metavar="N", help=degree_help)

    p = sub.add_parser("verify", help="check skew symmetry and the Jacobi identity")
    common(p)
    p.add_argument("--param-grid", action="extend", nargs="+", default=[],
                   metavar="NAME=LO..HI",
                   help="check at every point of a parameter grid")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ann", help="expand coefficient-algebra brackets")
    common(p, degree_default=3, degree_help="largest label to expand (default 3)")
    p.set_defaults(func=_cmd_ann)

    p = sub.add_parser("truncate", help="finite solvability analysis of a truncation")
    common(p)
    p.add_argument("--truncate", type=_positive_int, required=True, metavar="N",
                   help="truncation depth (quotient by filtration degree N)")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("classify", help="classify rank-one module actions")
    common(p, degree_default=4, degree_help="degree bound for the ansatz (default 4)",
           degree_type=_positive_int)
    p.add_argument("--param-grid", action="extend", nargs="+", default=[],
                   metavar="NAME=LO..HI",
                   help="sweep a parameter over a range (a=0..2) or list (a=0,1/2,1)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("submodules", help="scan a rank-one module for submodules")
    common(p, degree_default=3, degree_help="degree bound for generators (default 3)",
           degree_type=_positive_int)
    p.add_argument("module", help="module name such as M_1_2 or M_0_2_1 or zero")
    p.set_defaults(func=_cmd_submodules)

    p = sub.add_parser("report", help="full dossier for one algebra")
    common(p)
    p.add_argument("--truncate", type=_positive_int, default=4, metavar="N",
                   help="truncation depth for the solvability section (default 4)")
    p.set_defaults(func=_cmd_report)
    return parser


def _split_bindings(argv: list[str]) -> list[str]:
    """Attach each NAME=VALUE after --param or --param-grid to its own flag.

    Both flags take one or more values, so argparse would swallow a
    positional written after them (``submodules tsv --param a=0 b=1 M_0_2``);
    spelled ``--param=a=0 --param=b=1`` they take exactly their value and
    the first word without '=' is left to the positionals.
    """
    out: list[str] = []
    flag = None
    for word in argv:
        if flag and "=" in word and not word.startswith("-"):
            if out[-1] == flag:
                out.pop()
            out.append(f"{flag}={word}")
        else:
            flag = word if word in ("--param", "--param-grid") else None
            out.append(word)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_split_bindings(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return BAD_INPUT if exc.code else PASS
    try:
        return args.func(args)
    except (_InputError, ParseError, BindingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BAD_INPUT
    except UnsupportedError as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return UNSUPPORTED
    except (DiscrepancyError, DivisibilityError) as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return CHECK_FAILED
    except WorkbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
