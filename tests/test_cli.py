"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg import presets, solve
from confalg.cli import main

BROKEN = "algebra broken\ngen L offset=1\n[L,L] = (d + 3*x) L\n"
MALFORMED = "algebra bad\ngen L offset=1\n[L] = x\n"
GOLDEN = Path(__file__).resolve().parent / "golden"
VIR = "gen L offset=1\n[L,L] = (d + 2*x) L\n"
HEISENBERG = ("algebra heis\ngen A\ngen B\n"
              "[A,A] = 0\n[A,B] = 0\n[B,B] = 0\n")


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "vir"])
        assert code == 0
        assert out == ("skew symmetry: pass (1 pair)\n"
                       "jacobi identity: pass (1 triple)\n")

    def test_failure_reports_residual(self, capsys, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text(BROKEN)
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 1
        assert "skew symmetry: FAIL (1 pair)" in out
        assert "(L, L): residual (-d) L" in out
        assert "(L, L, L): residual (-d*x - 3*x^2 - 3*x*y) L" in out

    def test_file_without_brackets_is_abelian(self, capsys, tmp_path):
        path = tmp_path / "heis.alg"
        path.write_text(HEISENBERG)
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0

    def test_symbolic_parameters_by_default(self, capsys):
        code, out, _ = run(capsys, ["verify", "w"])
        assert code == 0
        assert "at a" not in out

    def test_grid_sweep(self, capsys):
        code, out, _ = run(capsys, ["verify", "w", "--param-grid",
                                    "a=0..1", "b=0,1"])
        assert code == 0
        headers = [line for line in out.splitlines() if line.startswith("at ")]
        assert headers == ["at a = 0, b = 0:", "at a = 0, b = 1:",
                           "at a = 1, b = 0:", "at a = 1, b = 1:"]

    def test_grid_on_parameterless_algebra_warns(self, capsys):
        code, out, err = run(capsys, ["verify", "vir", "--param-grid", "a=0..1"])
        assert code == 0
        assert err == "warning: vir has no parameters; ignoring --param-grid\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, ["verify", "vir", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["skew"] == {"passed": True, "checks": 1, "failures": []}
        assert data["jacobi"]["passed"] is True

    def test_tex_output(self, capsys):
        code, out, _ = run(capsys, ["verify", "tsvc", "--format", "tex"])
        assert code == 0
        assert "\\section*{Axioms for tsvc}" in out
        assert "Skew symmetry: pass" in out

    def test_disagreeing_orders_fail_skew_symmetry(self, capsys, tmp_path):
        path = tmp_path / "both.alg"
        path.write_text("algebra both\ngen L offset=1\ngen W\n[L,L] = (d + 2*x) L\n"
                        "[L,W] = (d + x) W\n[W,L] = (d + x) W\n[W,W] = 0\n")
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 1
        assert "skew symmetry: FAIL (4 pairs)\n  (L, W): residual (d) W\n" \
               "  (W, L): residual (d) W\n" in out

    def test_tex_failure_includes_residual(self, capsys, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text(BROKEN)
        code, out, _ = run(capsys, ["verify", str(path), "--format", "tex"])
        assert code == 1
        assert "residual \\texttt{(-d) L}" in out


class TestBadInput:
    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text(MALFORMED)
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert err.startswith("error:")

    def test_nonlinear_bracket_value_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "nonlinear.alg"
        path.write_text("algebra nl\ngen L offset=1\ngen W\n[L,L] = L*W\n"
                        "[L,W] = 0\n[W,W] = 0\n")
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert out == ""
        assert "line 4" in err

    @pytest.mark.parametrize("header, message", [
        ("algebra p params 1a", "invalid variable name '1a'"),
        ("algebra p params a a", "duplicate parameter 'a'"),
    ])
    def test_bad_header_parameter_names_line_one(self, capsys, tmp_path, header, message):
        path = tmp_path / "params.alg"
        path.write_text(f"{header}\ngen L offset=1\n[L,L] = (d + 2*x) L\n")
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert out == ""
        assert "line 1" in err
        assert message in err

    def test_generator_name_must_be_an_identifier(self, capsys, tmp_path):
        path = tmp_path / "gen.alg"
        path.write_text("algebra g\ngen 1L offset=1\n[1L,1L] = 1L\n")
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert out == ""
        assert "line 2" in err
        assert "'1L' is not an identifier" in err

    @pytest.mark.parametrize("text, message", [
        ("algebra p\nalgebra q\n" + VIR, "line 2: duplicate algebra header"),
        ("algebra\n" + VIR, "line 1: algebra header needs a name"),
        ("algebra p a b\n" + VIR, "line 1: expected 'params' after the algebra name"),
        ("algebra p params x\n" + VIR, "line 1: x is a reserved formal variable"),
        (VIR + "algebra p\n", "line 1: the file must start with an 'algebra' header"),
        ("algebras mine\n" + VIR, "line 1: the file must start with an 'algebra' header"),
        ("algebra p params a\ngen a\n[a,a] = 0\n",
         "line 2: generator name 'a' clashes with a variable"),
        ("algebra p\n" + VIR + "gen L\n", "line 4: duplicate generator 'L'"),
        ("algebra p\ngen L offset\n[L,L] = 0\n", "line 2: malformed generator option 'offset'"),
        ("algebra p\ngen L weight=1\n[L,L] = 0\n", "line 2: unknown generator option 'weight'"),
        ("algebra p\ngen L offset=2\n[L,L] = 0\n",
         "line 2: generator L: label offset must be 0, 1/2, or 1"),
        ("algebra p\ngen L offset=1\n[L,L] (d + 2*x) L\n", "line 3: bracket line needs '='"),
        ("algebra p\ngen L offset=1\n[L,L] L = (d + 2*x) L\n",
         "line 3: bracket line must start with [A,B]"),
        ("algebra p\n" + VIR + "[L,L] = (d + 2*x) L\n", "line 4: duplicate bracket [L,L]"),
        ("algebra p\n" + VIR + "hello world\n", "line 4: unrecognized line 'hello world'"),
        ("algebra p\ngen\n" + VIR, "line 2: generator line needs a name"),
        ("algebra p\ngen # L\n" + VIR, "line 2: generator line needs a name"),
        ("algebra p\ngens L\n" + VIR, "line 2: unrecognized line 'gens L'"),
        ("", "line 1: empty algebra definition"),
    ])
    def test_malformed_file_names_its_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, out, err = run(capsys, ["verify", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_generator_lines_split_on_any_whitespace(self, capsys, tmp_path):
        """A line is a generator line when its first word is exactly gen,
        as a header is one when its first word is exactly algebra."""
        outputs = []
        for sep in (" ", "\t", " \t "):
            path = tmp_path / "vir.alg"
            path.write_text(f"algebra{sep}p\ngen{sep}L{sep}offset=1\n[L,L] = (d + 2*x) L\n")
            outputs.append(run(capsys, ["verify", str(path)]))
        assert outputs[0][0] == 0
        assert outputs[1:] == outputs[:1] * 2

    @pytest.mark.parametrize("axes, message", [
        (["a"], "expected name=range, got 'a'"),
        (["a=1", "a=2"], "grid parameter a given twice"),
        (["a=2..1"], "range must be nondecreasing integers: 'a=2..1'"),
    ])
    def test_malformed_grid(self, capsys, axes, message):
        code, out, err = run(capsys, ["verify", "w", "--param-grid", *axes, "b=0"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["verify", "/nonexistent/file.alg"])
        assert code == 2

    def test_unknown_algebra(self, capsys):
        code, _, err = run(capsys, ["verify", "nothere"])
        assert code == 2
        assert "expected one of vir, w, wb, tsv, tsvc" in err

    def test_partial_binding(self, capsys):
        code, _, err = run(capsys, ["verify", "w", "--param", "a=0"])
        assert code == 2
        assert "needs binding(s) for ['b']" in err

    def test_bad_fraction(self, capsys):
        code, _, err = run(capsys, ["classify", "w", "--param", "a=nope", "b=0"])
        assert code == 2
        assert "not a rational number" in err

    @pytest.mark.parametrize("args, value", [
        (["classify", "w", "--param", "a=\u0661", "b=0"], "'\u0661'"),
        (["classify", "w", "--param", "a=1", "b=1 0"], "'1 0'"),
        (["verify", "w", "--param", "b=0", "--param-grid", "a=0,\u0661"], "'\u0661'"),
        (["verify", "w", "--param", "b=0", "--param-grid", "a=0, 1"], "' 1'"),
    ])
    def test_fraction_must_be_ascii_without_whitespace(self, capsys, args, value):
        code, out, err = run(capsys, args)
        assert code == 2
        assert out == ""
        assert f"not a rational number: {value}" in err

    @pytest.mark.parametrize("name, component", [
        ("M_\u0661_2", "'\u0661' for alpha"),
        ("M_1_ 2", "' 2' for beta"),
        ("M_1\t_2", "'1\\t' for alpha"),
        ("M_0_0_\u0661", "'\u0661' for gamma"),
    ])
    def test_module_component_must_be_ascii_without_whitespace(self, capsys, name, component):
        code, out, err = run(capsys, ["submodules", "vir", name])
        assert code == 2
        assert out == ""
        assert f"bad value {component} in {name!r}" in err

    def test_duplicate_binding(self, capsys):
        code, _, err = run(capsys, ["verify", "w", "--param", "a=0", "a=1", "b=0"])
        assert code == 2

    def test_undeclared_grid_parameter(self, capsys):
        code, _, err = run(capsys, ["verify", "w", "--param-grid", "q=0..1"])
        assert code == 2
        assert "q is not a parameter of w" in err

    @pytest.mark.parametrize("axis, value", [("a=1,1", "1"), ("a=1,2/2", "1"),
                                             ("a=0,1/2,2/4", "1/2")])
    def test_grid_axis_repeating_a_value(self, capsys, axis, value):
        code, out, err = run(capsys, ["verify", "w", "--param-grid", axis, "b=0"])
        assert code == 2
        assert out == ""
        assert f"grid parameter a repeats the value {value}" in err

    def test_parameter_in_binding_and_grid(self, capsys):
        code, _, err = run(capsys, ["verify", "w", "--param", "a=0", "b=0",
                                    "--param-grid", "a=0..1"])
        assert code == 2
        assert "both in --param and --param-grid" in err

    def test_gamma_without_carrier(self, capsys):
        code, _, err = run(capsys, ["submodules", "w", "M_0_0_1",
                                    "--param", "a=2", "b=0"])
        assert code == 2
        assert "admits no constant carrier" in err

    def test_usage_error(self, capsys):
        assert main(["truncate", "vir"]) == 2
        capsys.readouterr()

    def test_truncation_depth_must_be_positive(self, capsys):
        assert main(["truncate", "vir", "--truncate", "0"]) == 2
        assert main(["report", "vir", "--truncate", "-1"]) == 2
        capsys.readouterr()

    def test_degree_bound_must_be_positive(self, capsys):
        assert main(["submodules", "vir", "M_0_2", "--degree", "0"]) == 2
        assert main(["classify", "vir", "--degree", "0"]) == 2
        capsys.readouterr()


class TestAnn:
    def test_rows_and_closed_form(self, capsys):
        code, out, _ = run(capsys, ["ann", "vir", "--degree", "1"])
        assert code == 0
        assert "[L_-1, L_1] = -2*L_0" in out
        assert "closed form: pass" in out

    def test_each_bracket_expanded_once(self, capsys, monkeypatch):
        # The rows expand each generator pair once, the closed-form identity
        # once more, and neither calls ann_bracket.
        import confalg.annihilation as annihilation
        calls = []
        expand = annihilation._pair_terms

        def counting(alg, gname, hname):
            calls.append((gname, hname))
            return expand(alg, gname, hname)

        def no_bracket(*args):
            raise AssertionError("ann called ann_bracket")

        monkeypatch.setattr(annihilation, "_pair_terms", counting)
        monkeypatch.setattr(annihilation, "ann_bracket", no_bracket)
        code, out, _ = run(capsys, ["ann", "w", "--degree", "2"])
        assert code == 0
        assert "closed form: pass" in out
        assert out.count(" = ") == 49
        pairs = [("L", "L"), ("L", "W"), ("W", "L"), ("W", "W")]
        assert calls == pairs + pairs

    @pytest.mark.parametrize("bindings", [[], ["--param", "a=1", "b=-1/2"]])
    def test_rows_build_no_elements_and_no_polynomials(self, bindings, capsys, monkeypatch):
        """A work count: past loading the algebra, ``ann`` writes its rows and
        checks its closed form with no ``Poly`` (so no product) and no
        ``AnnElement``, in every format, and prints the same bytes."""
        from confalg import cli, instantiate
        from confalg.annihilation import AnnElement
        from confalg.poly import Poly
        argv = ["ann", "tsv", *bindings, "--degree", "6", "--format"]
        want = {fmt: run(capsys, argv + [fmt]) for fmt in ("text", "json", "tex")}
        alg = instantiate("tsv", cli._parse_bindings(bindings[1:]) or None)
        work = []

        def refuse(name):
            def record(*args, **kwargs):
                work.append(name)
                raise AssertionError(f"{name} called")
            return record

        monkeypatch.setattr(cli, "instantiate", lambda *args: alg)
        monkeypatch.setattr(Poly, "__mul__", refuse("Poly.__mul__"))
        monkeypatch.setattr(Poly, "__rmul__", refuse("Poly.__rmul__"))
        monkeypatch.setattr(Poly, "__init__", refuse("Poly"))
        monkeypatch.setattr(AnnElement, "__init__", refuse("AnnElement"))
        for fmt, expected in want.items():
            assert run(capsys, argv + [fmt]) == expected
        assert work == []
        assert "closed form: pass" in want["text"][1]
        # L, Y and M have 8, 7 and 7 labels up to 6
        assert want["text"][1].count(" = ") == (8 + 7 + 7) ** 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["ann", "tsv", "--param", "a=0", "b=0",
                                    "--degree", "1", "--format", "json"])
        data = json.loads(out)
        assert data["closed_form"] == "pass"
        assert data["mismatches"] == []
        rows = {(r["left"], r["right"]): r["value"] for r in data["brackets"]}
        assert rows[("L_0", "Y_1/2")] == "-2*Y_1/2"

    def test_symbolic_parameters(self, capsys):
        code, out, _ = run(capsys, ["ann", "w", "--degree", "1"])
        assert code == 0
        assert "(a - 1)*W_0 + (b)*W_1" in out


class TestTruncate:
    def test_depth_one(self, capsys):
        code, out, _ = run(capsys, ["truncate", "w", "--param", "a=2", "b=1",
                                    "--truncate", "1"])
        assert code == 0
        assert out == ("dimension 2\n"
                       "basis: L_0, W_0\n"
                       "[L_0, W_0] = W_0\n"
                       "derived series dims: [2, 1, 0]\n"
                       "lower central series dims: [2, 1, 1]\n"
                       "solvable: yes (derived length 2)\n"
                       "nilpotent: no\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["truncate", "vir", "--truncate", "2",
                                    "--format", "json"])
        data = json.loads(out)
        assert data["solvable"] is True
        assert data["derived_series"] == [2, 1, 0]
        assert len(data["basis"]) == 2

    def test_each_series_computed_once(self, capsys, monkeypatch):
        # The nilpotency verdict is read off the printed lower central
        # series; a bound report reads solvability off its derived series.
        from confalg.annihilation import FiniteLie
        calls = []
        for method in ("derived_series", "lower_central_series"):
            def counting(self, _method=getattr(FiniteLie, method), _name=method):
                calls.append(_name)
                return _method(self)
            monkeypatch.setattr(FiniteLie, method, counting)
        code, out, _ = run(capsys, ["truncate", "w", "--param", "a=2", "b=1",
                                    "--truncate", "3"])
        assert code == 0
        assert "nilpotent: no\n" in out
        assert calls.count("lower_central_series") == 1
        calls.clear()
        code, out, _ = run(capsys, ["report", "w", "--param", "a=2", "b=1",
                                    "--truncate", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["truncation"]["derived_length"] == 3
        assert calls == ["derived_series"]

    @pytest.mark.parametrize("point,fmt,counts", [
        ("a=0 b=0", "text", {"_cancel": 0, "_primitive": 250, "symbol": 36}),
        ("a=0 b=0", "json", {"_cancel": 0, "_primitive": 250, "_write_json": 709}),
        ("a=0 b=0", "tex", {"ann_symbol_to_latex": 36}),
        ("a=1 b=1", "text", {"_cancel": 860, "_primitive": 844, "symbol": 36}),
        ("a=1 b=1", "json", {"_cancel": 860, "_primitive": 844, "_write_json": 841}),
    ])
    def test_work_counts_at_depth_twelve(self, point, fmt, counts, capsys, monkeypatch):
        # Dropping spanned unit rows before scaling them, clearing unit
        # pivots by deletion, writing scalar JSON items in place and naming
        # each basis symbol once took these jobs down from 1,285 _primitive
        # calls, 0 and 2,048 _cancel calls, 1,679 and 2,075 _write_json
        # calls, 702 and 834 symbol calls in text and 666 in TeX.
        from confalg import cli, report
        from confalg.annihilation import FiniteLie
        calls = dict.fromkeys(counts, 0)

        def count(owner, name):
            real = getattr(owner, name)

            def counting(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counting)

        for owner, name in ((solve, "_cancel"), (solve, "_primitive"), (report, "_write_json"),
                            (FiniteLie, "symbol"), (cli, "ann_symbol_to_latex")):
            if name in counts:
                count(owner, name)
        code, out, _ = run(capsys, ["truncate", "tsv", "--param", *point.split(),
                                    "--truncate", "12", "--format", fmt])
        assert code == 0 and out
        assert calls == counts

    def test_depth_twenty(self, capsys):
        code, out, _ = run(capsys, ["truncate", "tsv", "--param", "a=0", "b=0",
                                    "--truncate", "20"])
        assert code == 0
        assert out.startswith("dimension 60\n")
        assert "derived series dims: [60, 59, 55, 45, 24, 0]\n" in out
        assert "lower central series dims: [60, 59, 59]\n" in out

    def test_tex_integer_coefficients(self, capsys, monkeypatch):
        # TeX prints only the brackets, so no series is computed for it.
        from confalg.annihilation import FiniteLie
        calls = []
        for method in ("derived_series", "lower_central_series", "is_solvable",
                       "is_nilpotent"):
            monkeypatch.setattr(FiniteLie, method,
                                lambda self, _name=method: calls.append(_name))
        code, out, _ = run(capsys, ["truncate", "vir", "--truncate", "3",
                                    "--format", "tex"])
        assert (code, calls) == (0, [])
        assert out == ("\\begin{align*}\n"
                       "[L_{0}, L_{1}] &= -L_{1} \\\\\n"
                       "[L_{0}, L_{2}] &= -2 L_{2} \\\\\n"
                       "\\end{align*}\n")

    def test_tex_fractional_coefficients(self, capsys):
        code, out, _ = run(capsys, ["truncate", "wb", "--param", "b=1/2",
                                    "--truncate", "2", "--format", "tex"])
        assert code == 0
        assert out == ("\\begin{align*}\n"
                       "[L_{0}, L_{1}] &= -L_{1} \\\\\n"
                       "[L_{0}, W_{0}] &= -\\tfrac{1}{2} W_{0} \\\\\n"
                       "[L_{0}, W_{1}] &= -\\tfrac{3}{2} W_{1} \\\\\n"
                       "[L_{1}, W_{0}] &= -W_{1} \\\\\n"
                       "\\end{align*}\n")

    def test_tex_signed_join(self, capsys):
        code, out, _ = run(capsys, ["truncate", "tsv", "--param", "a=1", "b=-1/2",
                                    "--truncate", "2", "--format", "tex"])
        assert code == 0
        assert "[L_{0}, Y_{1/2}] &= -Y_{1/2} - \\tfrac{1}{2} Y_{3/2} \\\\\n" in out

    def test_text_keeps_plus_join(self, capsys):
        code, out, _ = run(capsys, ["truncate", "tsv", "--param", "a=1", "b=-1/2",
                                    "--truncate", "2"])
        assert code == 0
        assert "[L_0, Y_1/2] = -Y_1/2 + -1/2*Y_3/2\n" in out

    def test_requires_depth(self, capsys):
        assert main(["truncate", "vir"]) == 2
        capsys.readouterr()

    def test_negative_degree_term_names_the_pair(self, capsys, tmp_path):
        # [W_0, V_0] = L_-1 has degree -1: the table is not graded for the
        # filtration, so the truncation is refused with the offending term.
        path = tmp_path / "negative.alg"
        path.write_text("algebra neg\ngen L offset=1\ngen W\ngen V\n"
                        "[L,L] = (d + 2*x) L\n[L,W] = (d + x) W\n[L,V] = (d + x) V\n"
                        "[W,W] = 0\n[V,V] = 0\n[W,V] = L\n")
        code, out, err = run(capsys, ["truncate", str(path), "--truncate", "3"])
        assert code == 2
        assert out == ""
        assert err == "error: [W_0, V_0] has term L_-1 of negative degree -1\n"

    def test_broken_table_names_its_first_jacobi_failures(self, capsys):
        code, out, err = run(capsys, ["truncate", str(GOLDEN / "broken.alg"),
                                      "--truncate", "6"])
        assert (code, out) == (2, "")
        assert err == ("error: truncation broke the Jacobi identity at "
                       "['(L_0, L_1, L_2)', '(L_0, L_1, L_4)', '(L_0, L_2, L_3)']\n")

    def test_unfiltered_table_truncates_above_its_offending_pair(self, capsys):
        # [W_x W] = (d + 2x) L lowers the filtration, but at depth 1 the
        # offending [W_0, W_1] is not in the quotient.
        code, out, err = run(capsys, ["truncate", str(GOLDEN / "wl.alg"), "--truncate", "1"])
        assert (code, err) == (0, "")
        assert out == ("dimension 2\n"
                       "basis: L_0, W_0\n"
                       "[L_0, W_0] = W_0\n"
                       "derived series dims: [2, 1, 0]\n"
                       "lower central series dims: [2, 1, 1]\n"
                       "solvable: yes (derived length 2)\n"
                       "nilpotent: no\n")
        code, out, err = run(capsys, ["truncate", str(GOLDEN / "wl.alg"), "--truncate", "2"])
        assert (code, out) == (2, "")
        assert err == "error: [W_0, W_1] has term L_-1 of negative degree -1\n"


class TestClassify:
    def test_families_with_verdicts(self, capsys):
        code, out, _ = run(capsys, ["classify", "tsvc", "--param", "c=1"])
        assert code == 0
        assert out == ("L -> 0; Y -> 0; M -> 0\n"
                       "  trivial (all actions zero)\n"
                       "L -> x*alpha + d + beta; Y -> 0; M -> 0\n"
                       "  irreducible iff alpha != 0\n")

    def test_tex(self, capsys):
        code, out, _ = run(capsys, ["classify", "vir", "--degree", "1", "--format", "tex"])
        assert code == 0
        assert out == ("\\begin{align*}\n"
                       "L &\\mapsto 0 \\\\\n"
                       "L &\\mapsto \\lambda \\alpha + \\partial + \\beta \\\\\n"
                       "\\end{align*}\n")

    def test_tex_grid(self, capsys):
        code, out, _ = run(capsys, ["classify", "w", "--degree", "1", "--format", "tex",
                                    "--param-grid", "a=1", "b=0,1/2"])
        assert code == 0
        assert out == ("\\paragraph{$a = 1$, $b = 0$}\n"
                       "\\begin{align*}\n"
                       "L &\\mapsto 0 \\quad W &\\mapsto 0 \\\\\n"
                       "L &\\mapsto \\lambda \\alpha + \\partial + \\beta \\quad "
                       "W &\\mapsto \\gamma \\\\\n"
                       "\\end{align*}\n"
                       "\\paragraph{$a = 1$, $b = 1/2$}\n"
                       "\\begin{align*}\n"
                       "L &\\mapsto 0 \\quad W &\\mapsto 0 \\\\\n"
                       "L &\\mapsto \\lambda \\alpha + \\partial + \\beta \\quad "
                       "W &\\mapsto 0 \\\\\n"
                       "\\end{align*}\n")

    def test_grid(self, capsys):
        code, out, _ = run(capsys, ["classify", "w", "--param-grid",
                                    "a=1,2", "b=0,1"])
        assert code == 0
        assert "at a = 1, b = 0:" in out
        assert "irreducible iff alpha != 0 or gamma != 0" in out

    def test_grid_on_parameterless_algebra_is_dropped(self, capsys):
        for fmt in ("text", "json", "tex"):
            plain = run(capsys, ["classify", "vir", "--degree", "1", "--format", fmt])
            code, out, err = run(capsys, ["classify", "vir", "--param-grid", "a=0..1",
                                          "--degree", "1", "--format", fmt])
            assert (code, out) == plain[:2]
            assert err == "warning: vir has no parameters; ignoring --param-grid\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["classify", "vir", "--format", "json"])
        data = json.loads(out)
        assert [f["actions"]["L"] for f in data["families"]] == \
            ["0", "x*alpha + d + beta"]

    def test_several_free_constants(self, capsys):
        """Two currents of weight 1 each get their own free constant."""
        two = str(GOLDEN / "two.alg")
        code, out, _ = run(capsys, ["classify", two, "--degree", "1"])
        assert code == 0
        assert out == ("L -> 0; V -> 0; W -> 0\n"
                       "  trivial (all actions zero)\n"
                       "L -> x*alpha + d + beta; V -> gamma_V; W -> gamma_W\n"
                       "  irreducible iff alpha != 0 or gamma_V != 0 or gamma_W != 0\n")
        code, out, _ = run(capsys, ["classify", two, "--degree", "1", "--format", "json"])
        assert json.loads(out)["families"][1]["actions"] == \
            {"L": "x*alpha + d + beta", "V": "gamma_V", "W": "gamma_W"}
        code, out, _ = run(capsys, ["classify", two, "--degree", "1", "--format", "tex"])
        assert "V &\\mapsto \\gamma_{V} \\quad W &\\mapsto \\gamma_{W} \\\\\n" in out


    def test_solver_limit_is_unsupported(self, capsys, monkeypatch):
        monkeypatch.setattr(solve, "_MAX_BRANCH_DEPTH", 0)
        # Stage one is affine and needs no depth; stage two of wl.alg branches.
        code, out, err = run(capsys, ["classify", str(GOLDEN / "wl.alg"), "--degree", "1"])
        assert code == 3
        assert out == ""
        assert err.startswith("unsupported: branch depth exhausted")


class TestSubmodules:
    def test_reducible_module(self, capsys):
        code, out, _ = run(capsys, ["submodules", "vir", "M_0_2"])
        assert code == 0
        assert out == ("module M_0_2: L -> d + 2\n"
                       "submodule generator: d + 2\n"
                       "  induced action: L -> d + x + 2\n"
                       "verdict: reducible (monic submodule generators exist "
                       "(scanned through degree 3))\n")

    def test_bounded_verdict(self, capsys):
        code, out, _ = run(capsys, ["submodules", "vir", "M_1_2"])
        assert code == 0
        assert "no proper submodules up to generator degree 3" in out
        assert "verdict: irreducible" in out

    def test_module_before_or_after_param_values(self, capsys):
        first = run(capsys, ["submodules", "tsv", "M_0_2", "--param", "a=0", "b=1"])
        last = run(capsys, ["submodules", "tsv", "--param", "a=0", "b=1", "M_0_2"])
        assert first[0] == 0
        assert last == first

    def test_missing_module_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["submodules", "tsv", "--param", "a=0", "b=1"])
        assert code == 2
        assert out == ""
        assert "usage: confalg submodules" in err
        assert "required: module" in err

    def test_huge_rational_root(self, capsys):
        # G = d + 10^20: the linear factor is solved exactly, with no search
        # over the divisors of 10^20
        code, out, _ = run(capsys, ["submodules", "vir", "M_0_100000000000000000000",
                                    "--degree", "1"])
        assert code == 0
        assert "submodule generator: d + 100000000000000000000\n" in out

    @pytest.mark.parametrize("name, canonical", [
        ("M_1.5_0", "M_3/2_0"), ("M_1e3_0", "M_1000_0"), (" M_1_2 ", "M_1_2")])
    def test_module_spellings_that_name_a_rational(self, capsys, name, canonical):
        code, out, _ = run(capsys, ["submodules", "vir", name])
        assert code == 0
        assert out.split("\n")[1:] == run(capsys, ["submodules", "vir", canonical])[1].split("\n")[1:]

    @pytest.mark.parametrize("fmt", ["text", "json", "tex"])
    def test_module_name_is_echoed_as_read(self, capsys, fmt):
        """The outer spaces ``named_module`` strips are not echoed either."""
        padded = run(capsys, ["submodules", "vir", " M_1_2 ", "--format", fmt])
        assert padded[0] == 0
        assert padded == run(capsys, ["submodules", "vir", "M_1_2", "--format", fmt])

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, ["submodules", "w", "M_0_0_1",
                                    "--param", "a=1", "b=0", "--format", "json"])
        data = json.loads(out)
        assert data["verdict"]["status"] == "irreducible"
        assert data["verdict"]["certificate"] == "unconditional"
        assert data["witnesses"] == []


class TestReport:
    def test_sections(self, capsys):
        code, out, _ = run(capsys, ["report", "vir"])
        assert code == 0
        for heading in ("algebra vir", "axioms:", "locality orders:",
                        "nonzero j-th products:", "coefficient algebra through label",
                        "truncation depth 4:", "rank-one families",
                        "irreducibility pattern:"):
            assert heading in out

    def test_parametric_report_skips_truncation(self, capsys):
        code, out, _ = run(capsys, ["report", "w"])
        assert code == 0
        assert "truncation" not in out

    def test_truncate_depth_flag(self, capsys):
        code, out, _ = run(capsys, ["report", "w", "--param", "a=2", "b=1",
                                    "--truncate", "3", "--format", "json"])
        data = json.loads(out)
        assert data["truncation"]["depth"] == 3
        assert data["truncation"]["derived_series"] == [6, 5, 2, 0]

    def test_tex(self, capsys):
        code, out, _ = run(capsys, ["report", "tsvc", "--param", "c=1",
                                    "--format", "tex"])
        assert code == 0
        assert "\\partial" in out

    def test_several_carriers_need_a_named_module(self, capsys):
        code, out, err = run(capsys, ["report", str(GOLDEN / "two.alg")])
        assert (code, out) == (3, "")
        assert err == ("unsupported: two admits several constant carriers; "
                       "name the intended module explicitly\n")


class TestParser:
    JOBS = [["verify", "w", "--param", "a=1", "b=0"],
            ["verify", "vir"],
            ["verify", "w", "--param-grid", "a=0..1", "b=0"],
            ["classify", "wb", "--param", "b=0", "--degree", "1"],
            ["verify", "w", "--param", "a"],
            ["truncate", "vir"],
            ["--help"],
            ["submodules", "tsv", "--param", "a=0", "b=1", "M_0_2"],
            ["verify", "w"]]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        """``main`` builds its parser once, and every call through the shared
        parser prints and exits as it does through a fresh one."""
        from confalg import cli
        build = cli._build_parser.__wrapped__
        monkeypatch.setattr(cli, "_build_parser", build)
        fresh = [run(capsys, argv) for argv in self.JOBS]
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 2, 0, 0, 0]
        builds = []

        def counting():
            builds.append(True)
            return build()

        monkeypatch.setattr(cli, "_build_parser", functools.cache(counting))
        assert [run(capsys, argv) for argv in self.JOBS * 2] == fresh * 2
        assert len(builds) == 1
        defaults = cli._build_parser().parse_args(["verify", "vir"])
        assert defaults.param == defaults.param_grid == []


def _grid_blocks(out: str) -> dict[str, str]:
    """A grid run's text output as {heading: block}, each block unindented
    to read as the single-point run does."""
    blocks: dict[str, list[str]] = {}
    for line in out.splitlines():
        if line.startswith("at "):
            block = blocks[line] = []
        else:
            block.append(line.removeprefix("  "))
    return {heading: "".join(line + "\n" for line in lines) for heading, lines in blocks.items()}


class TestLoading:
    """A bound preset is built once: the grid binds its first point from
    the algebra it checks the grid against, and loads every later point
    afresh, so no point sees another point's registry."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # ``instantiate`` calls a row's table once per build
        calls = []
        for name, (generators, params, table, rules) in presets._PRESETS.items():
            def counting(*polys, _name=name, _table=table):
                calls.append(_name)
                return _table(*polys)
            monkeypatch.setitem(presets._PRESETS, name, (generators, params, counting, rules))
        return calls

    @pytest.mark.parametrize("args, want", [
        (["submodules", "w", "M_0_1", "--param", "a=1", "b=0", "--degree", "1"], ["w"]),
        (["classify", "tsv", "--degree", "1", "--param", "a=1", "b=0"], ["tsv"]),
        (["classify", "vir", "--degree", "1"], ["vir"]),
        (["verify", "tsvc", "--param", "c=1"], ["tsvc"]),
        (["verify", "w", "--param-grid", "a=0..2", "b=0"], ["w"] * 3),
    ])
    def test_each_point_builds_its_preset_once(self, capsys, builds, args, want):
        assert run(capsys, args)[0] == 0
        assert builds == want

    @pytest.mark.parametrize("command, axes", [
        (["classify", "w", "--degree", "2"], [["a=1,2", "b=0,1"], ["a=2,1", "b=1,0"]]),
        (["verify", "w"], [["a=0..1", "b=0"], ["a=1,0", "b=0"]]),
    ])
    def test_grid_blocks_match_single_point_runs(self, capsys, command, axes):
        blocks = []
        for grid in axes:
            code, out, _ = run(capsys, [*command, "--param-grid", *grid])
            assert code == 0
            blocks.append(_grid_blocks(out))
        forward, backward = blocks
        assert list(backward) == list(reversed(forward))
        assert backward == forward
        for heading, block in forward.items():
            point = heading.removeprefix("at ").removesuffix(":").replace(" = ", "=").split(", ")
            assert run(capsys, [*command, "--param", *point])[1] == block


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["report", "vir"],
        ["report", "w", "--param", "a=1", "b=0", "--format", "json"],
        ["classify", "tsv", "--param", "a=1", "b=0"],
        ["ann", "tsvc", "--param", "c=1", "--degree", "2"],
    ])
    def test_reruns_are_byte_identical(self, capsys, args):
        code1, out1, _ = run(capsys, args)
        code2, out2, _ = run(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2


# Module names over the characters a name can hold, with rational components
# mixed in so that some names scan.  Components stay small:
# ``M_0_<c>`` makes the scan find the rational roots of d + c by trial
# division, which is hopeless for a huge c.  A leading '-'
# is left out, since argparse reads it as an option before any name is read.
_NAME_CHARS = st.one_of(st.sampled_from("M_/-. "), st.characters(categories=("Nd", "L")))
_COMPONENTS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
    st.decimals(min_value=-9, max_value=9, places=1).map(str),
    st.text(_NAME_CHARS, max_size=3))
_MODULE_NAMES = st.one_of(
    st.lists(_COMPONENTS, min_size=2, max_size=4)
    .map(lambda parts: "M" + "".join("_" + part for part in parts)),
    st.text(_NAME_CHARS, max_size=7),
).filter(lambda name: not name.startswith("-"))
_SCANNED = [["vir"], ["w", "--param", "a=1", "b=0"]]


@settings(max_examples=200, deadline=None)
@given(_MODULE_NAMES)
@example("M_1.5_0")
@example("M_1e3_0")
@example("M_1_ 2")
@example("M_\u0661_\u0662")
@example("M_0_1/0")
@example("M_0_0_1")
@example("zero")
@example("M_alpha_beta")
def test_fuzzed_module_name_scans_or_is_rejected(name):
    """Every module name either scans or exits 2 with an ``error:`` line.  The
    zero module and formal components are the only names that exit 3."""
    for algebra, *params in _SCANNED:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["submodules", algebra, name, "--degree", "1", *params])
        if code == 3:
            assert err.getvalue().startswith("unsupported: "), err.getvalue()
            assert name.strip() in ("zero", "trivial") or "alpha" in name or "beta" in name \
                or "gamma" in name
        else:
            assert code in (0, 2), (code, err.getvalue())
            assert err.getvalue().startswith("error: ") if code else not err.getvalue()
            assert bool(out.getvalue()) == (code == 0)
