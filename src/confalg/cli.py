"""Command-line front end.

Subcommands: verify, ann, truncate, classify, submodules, report.  Algebras
are given by preset name (vir, w, wb, tsv, tsvc) or by a table file ending
in .alg.  Parameters bind with --param a=2 b=1; verify and classify also
take --param-grid a=0..2 or a=0,1/2,1 and run the cartesian product.  Output
formats: text (default), json, tex.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 bad input, 3 the request is outside what the
solver handles.

Each subcommand computes its results, renders only the requested format
with the layout pieces of :mod:`confalg.report`, and returns whether all
checks passed together with one document; ``main`` prints that document
once.  An error exit prints nothing on stdout, only a message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from fractions import Fraction

from .algebra import ConformalAlgebra, format_params, parse_algebra
from .annihilation import compare_closed_form, expanded_sums, render_sums, truncated_quotient
from .errors import DiscrepancyError, DivisibilityError, UnsupportedError, WorkbenchError
from .modules import irreducibility_verdict, rank1_classify, submodule_scan
from .presets import PRESET_NAMES, instantiate, named_module
from .poly import parse_rational, scaled, signed_sum
from .report import (LATEX, align, ann_symbol_to_latex, ann_to_latex, attach_tex, build_report,
                     document, families_json, family_verdict, grid_heading, mapsto_row,
                     plural, poly_to_latex, render_json, render_tex, render_text)

PASS = 0
CHECK_FAILED = 1
BAD_INPUT = 2
UNSUPPORTED = 3


class _InputError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise _InputError(f"not a rational number: {text!r}") from None


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
    """Grid axes: a=0..2 (integer range) or a=0,1/2,1 (explicit list); an
    axis may not repeat a value."""
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
            for i, v in enumerate(out[name]):
                if v in out[name][:i]:
                    raise _InputError(f"grid parameter {name} repeats the value {v}")
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
        alg = parse_algebra(text)
        if bindings:
            alg = alg.specialize(bindings)
        return alg
    raise _InputError(
        f"unknown algebra {ref!r}: expected one of {', '.join(PRESET_NAMES)} or a .alg file")


def _load_grid(args) -> tuple[ConformalAlgebra, list[tuple[dict, ConformalAlgebra]], bool]:
    """The algebra bound at every point of --param times --param-grid.

    Returns the unbound algebra, the (point, bound algebra) pairs and
    whether a grid was applied; a grid on a parameterless algebra is
    dropped with a warning.  The first point is bound from the unbound
    algebra; every later point is loaded afresh, since classifying at one
    point grows its algebra's registry.
    """
    bindings = _parse_bindings(args.param)
    grid = _parse_grid(args.param_grid)
    base = _load_algebra(args.algebra, {})
    declared = {v.name for v in base.params}
    if grid and not declared:
        sys.stderr.write(f"warning: {base.name} has no parameters; ignoring --param-grid\n")
        grid = {}
    for name in grid:
        if name not in declared:
            raise _InputError(f"grid parameter {name} is not a parameter of {base.name}")
        if name in bindings:
            raise _InputError(f"parameter {name} given both in --param and --param-grid")
    axes = sorted(grid)
    points = [{**bindings, **dict(zip(axes, combo))}
              for combo in itertools.product(*(grid[name] for name in axes))]
    first, *rest = points
    pairs = [(first, base.specialize(first) if first else base)]
    pairs += [(point, _load_algebra(args.algebra, point)) for point in rest]
    return base, pairs, bool(grid)


# ---- subcommands: each returns (all checks passed, the document for stdout) -------


def _cmd_verify(args) -> tuple[bool, str]:
    base, pairs, _ = _load_grid(args)
    results = [(alg, alg.check_skew(), alg.check_jacobi()) for _, alg in pairs]
    ok = all(skew.passed and jacobi.passed for _, skew, jacobi in results)
    headed = len(results) > 1
    if args.format == "json":
        def axiom(report, key):
            return {"passed": report.passed, "checks": len(report.entries),
                    "failures": [{key: list(e.key), "residual": e.residual}
                                 for e in report.failures()]}
        blocks = [{"algebra": alg.name, "params": format_params(alg.param_values),
                   "skew": axiom(skew, "pair"), "jacobi": axiom(jacobi, "triple")}
                  for alg, skew, jacobi in results]
        return ok, render_json(blocks[0] if len(blocks) == 1 else blocks)
    if args.format == "tex":
        lines = [r"\section*{Axioms for " + base.name + "}"]
        for alg, skew, jacobi in results:
            if headed:
                lines.append(grid_heading(alg.param_values, "tex"))
            lines.append("Skew symmetry: " + ("pass" if skew.passed else "fail") + r" \\")
            for e in skew.failures():
                lines.append(rf"\quad $({', '.join(e.key)})$: "
                             rf"residual \texttt{{{e.residual}}} \\")
            lines.append("Jacobi identity: " + ("pass" if jacobi.passed else "fail"))
            for e in jacobi.failures():
                lines.append(rf" \\ \quad $({', '.join(e.key)})$: "
                             rf"residual \texttt{{{e.residual}}}")
        return ok, document(lines)
    lines = []
    prefix = "  " if headed else ""
    for alg, skew, jacobi in results:
        if headed:
            lines.append(grid_heading(alg.param_values, "text"))
        for title, report, noun in (("skew symmetry", skew, "pair"),
                                    ("jacobi identity", jacobi, "triple")):
            lines.append(f"{prefix}{title}: {'pass' if report.passed else 'FAIL'} "
                         f"({plural(len(report.entries), noun)})")
            lines += [f"{prefix}  ({', '.join(e.key)}): residual {e.residual}"
                      for e in report.failures()]
    return ok, document(lines)


def _cmd_ann(args) -> tuple[bool, str]:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    reg = alg.registry
    bound = Fraction(args.degree)
    rows = list(expanded_sums(alg, bound))
    mismatches: list[str] | None = None
    if alg.closed_ann_form is not None:
        mismatches = compare_closed_form(alg, bound)
    ok = not mismatches
    closed = "unavailable" if mismatches is None else "fail" if mismatches else "pass"
    if args.format == "tex":
        return ok, document(align(
            f"[{ann_symbol_to_latex(g.name, m)}, {ann_symbol_to_latex(h.name, n)}] "
            f"&= {ann_to_latex(reg, sums)} \\\\" for g, m, h, n, sums in rows))
    values = [(f"{g.name}_{m}", f"{h.name}_{n}", render_sums(reg, sums))
              for g, m, h, n, sums in rows]
    if args.format == "json":
        return ok, render_json({
            "algebra": alg.name,
            "params": format_params(alg.param_values),
            "max_label": str(bound),
            "brackets": [{"left": left, "right": right, "value": value}
                         for left, right, value in values],
            "closed_form": closed,
            "mismatches": mismatches or [],
        })
    lines = [f"[{left}, {right}] = {value}" for left, right, value in values]
    if mismatches:
        lines.append(f"closed form: FAIL ({len(mismatches)} mismatches)")
        lines += [f"  {m}" for m in mismatches[:10]]
    else:
        lines.append(f"closed form: {closed}")
    return ok, document(lines)


def _cmd_truncate(args) -> tuple[bool, str]:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    finite = truncated_quotient(alg, args.truncate)
    if args.format == "tex":
        tex = [ann_symbol_to_latex(*symbol) for symbol in finite.basis]
        return True, document(align(
            f"[{tex[i]}, {tex[j]}] &= "
            f"{signed_sum(scaled(c, tex[k], LATEX) for k, c in terms)} \\\\"
            for (i, j), terms in finite.nonzero_brackets()))
    series = finite.derived_series()
    lower = finite.lower_central_series()
    solvable, length = finite.is_solvable()
    nilpotent = lower[-1] == 0
    if args.format == "json":
        data = finite.to_json()
        data.update({
            "derived_series": series,
            "lower_central_series": lower,
            "solvable": solvable,
            "derived_length": length,
            "nilpotent": nilpotent,
        })
        return True, render_json(data)
    symbols = [finite.symbol(i) for i in range(finite.dim)]
    lines = [f"dimension {finite.dim}", "basis: " + ", ".join(symbols)]
    for (i, j), terms in finite.nonzero_brackets():
        rhs = " + ".join(scaled(c, symbols[k]) for k, c in terms)
        lines.append(f"[{symbols[i]}, {symbols[j]}] = {rhs}")
    lines += [f"derived series dims: {series}",
              f"lower central series dims: {lower}",
              f"solvable: yes (derived length {length})" if solvable else "solvable: no",
              f"nilpotent: {'yes' if nilpotent else 'no'}"]
    return True, document(lines)


def _cmd_classify(args) -> tuple[bool, str]:
    base, pairs, gridded = _load_grid(args)
    results = [(point, rank1_classify(alg, args.degree)) for point, alg in pairs]
    if args.format == "json":
        if gridded:
            return True, render_json({
                "algebra": base.name,
                "degree": args.degree,
                "grid": [{"params": format_params(p), "families": families_json(f)}
                         for p, f in results],
            })
        point, families = results[0]
        return True, render_json({
            "algebra": base.name,
            "params": format_params(point),
            "degree": args.degree,
            "families": families_json(families),
        })
    lines = []
    if args.format == "tex":
        for point, families in results:
            if point:
                lines.append(grid_heading(point, "tex"))
            lines += align(mapsto_row({g: poly_to_latex(p) for g, p in fam.items()})
                           for fam in families)
        return True, document(lines)
    indent = "  " if gridded else ""
    for point, families in results:
        if gridded:
            lines.append(grid_heading(point, "text"))
        for fam in families:
            lines += [indent + fam.render(), indent + "  " + family_verdict(fam)]
    return True, document(lines)


def _cmd_submodules(args) -> tuple[bool, str]:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    action = named_module(alg, args.module)
    witnesses = submodule_scan(alg, action, args.degree)
    verdict = irreducibility_verdict(alg, action, args.degree)
    name = args.module.strip()  # as named_module reads it
    if args.format == "json":
        return True, render_json({
            "algebra": alg.name,
            "params": format_params(alg.param_values),
            "module": name,
            "action": {g: str(p) for g, p in action.items()},
            "witnesses": [{"generator": str(w.generator),
                           "induced": {g: str(p) for g, p in w.induced.items()}}
                          for w in witnesses],
            "verdict": {"status": verdict.status, "certificate": verdict.certificate,
                        "reason": verdict.reason},
        })
    if args.format == "tex":
        lines = [f"Module {name}: {verdict.status}."]
        for w in witnesses:
            lines.append(r"Proper submodule generated by $" + poly_to_latex(w.generator)
                         + r"$ acting by $" + ", ".join(
                             f"{g} \\mapsto {poly_to_latex(p)}" for g, p in w.induced.items())
                         + "$.")
        return True, document(lines)
    lines = [f"module {name}: {action.render()}"]
    for w in witnesses:
        lines += [f"submodule generator: {w.generator}",
                  f"  induced action: {w.induced.render()}"]
    if not witnesses:
        lines.append(f"no proper submodules up to generator degree {args.degree}")
    lines.append(f"verdict: {verdict.status} ({verdict.reason})")
    return True, document(lines)


def _cmd_report(args) -> tuple[bool, str]:
    alg = _load_algebra(args.algebra, _parse_bindings(args.param))
    data = build_report(alg, depth=args.truncate)
    ax = data["axioms"]
    closed = data["annihilation"]["closed_form"]
    ok = ax["skew"] and ax["jacobi"] and closed in ("pass", "unavailable")
    if args.format == "json":
        return ok, render_json(data)
    if args.format == "tex":
        return ok, render_tex(attach_tex(alg, data))
    return ok, render_text(data)


# ---- argument wiring --------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call; parsing leaves it and its defaults unchanged."""
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
        ok, document = args.func(args)
    except UnsupportedError as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return UNSUPPORTED
    except (DiscrepancyError, DivisibilityError) as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return CHECK_FAILED
    except (_InputError, WorkbenchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BAD_INPUT
    sys.stdout.write(document)
    return PASS if ok else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
