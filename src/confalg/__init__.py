"""Exact symbolic workbench for finite Lie conformal algebras over Q.

The package builds lambda-bracket tables with polynomial coefficients,
checks the conformal algebra axioms, expands coefficient-algebra brackets
and finite truncations, and classifies rank-one conformal modules.
Everything runs in exact rational arithmetic.
"""

from .algebra import (AxiomReport, ConformalAlgebra, Generator, LambdaElement,
                      ReportEntry, parse_algebra)
from .annihilation import (AnnBasis, AnnElement, FiniteLie, ann_bracket,
                           compare_closed_form, filtration_check, labels_through,
                           partial_action, truncated_quotient)
from .errors import (BindingError, DefinitionError, DiscrepancyError,
                     DivisibilityError, LabelError, NonMonicDivisorError, ParseError,
                     RegistryError, UnsupportedError, UnsupportedSystemError,
                     WorkbenchError)
from .modules import (Rank1Action, SubmoduleWitness, Verdict, check_module, induced_action,
                      irreducibility_verdict, rank1_classify, submodule_scan, vir_completeness)
from .poly import Poly, Registry, group_coefficients, monic_div_rem, parse_poly
from .presets import (PRESET_NAMES, gamma_carrier, instantiate, named_module,
                      rank1_module, zero_module)
from .report import build_report, poly_to_latex, render_json, render_text, render_tex
from .solve import SolutionFamily, SolutionSet, solve_system

__version__ = "0.1.0"

__all__ = [
    "AnnBasis", "AnnElement", "AxiomReport", "BindingError", "ConformalAlgebra",
    "DefinitionError", "DiscrepancyError", "DivisibilityError", "FiniteLie", "Generator",
    "LabelError", "LambdaElement", "NonMonicDivisorError",
    "PRESET_NAMES", "ParseError", "Poly", "Rank1Action", "Registry",
    "RegistryError", "ReportEntry", "SolutionFamily", "SolutionSet",
    "SubmoduleWitness", "UnsupportedError", "UnsupportedSystemError", "Verdict",
    "WorkbenchError", "ann_bracket", "build_report", "check_module",
    "compare_closed_form", "filtration_check", "gamma_carrier", "group_coefficients",
    "induced_action", "instantiate", "irreducibility_verdict", "labels_through",
    "monic_div_rem", "named_module", "parse_algebra", "parse_poly", "partial_action",
    "poly_to_latex", "rank1_classify", "rank1_module", "render_json", "render_text",
    "render_tex", "solve_system", "submodule_scan", "truncated_quotient",
    "vir_completeness", "zero_module",
]
