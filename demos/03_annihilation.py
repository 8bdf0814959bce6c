"""
The coefficient algebra
=======================

Expanding each generator into a family of symbols g_m turns the bracket
table into an honest Lie algebra, the coefficient algebra.  Its bracket is
computed from the table by a binomial expansion, and for the presets a
closed formula is known; the workbench checks the two agree.
"""

from fractions import Fraction

from confalg import (
    AnnBasis,
    ann_bracket,
    compare_closed_form,
    instantiate,
    labels_through,
    partial_action,
)

alg = instantiate("w")
L, W = alg.gen("L"), alg.gen("W")

# Labels run over integers shifted by each generator's offset.  L starts
# at -1, W at 0.
print("L labels through 2:", [str(m) for m in labels_through(L, 2)])
print("W labels through 2:", [str(m) for m in labels_through(W, 2)])

# Brackets of basis symbols, with the parameters a and b still formal.
for m, n in [(0, 0), (1, 2), (-1, 0)]:
    value = ann_bracket(alg, AnnBasis(L, m), AnnBasis(W, n))
    print(f"[L_{m}, W_{n}] =", value.render())

# The translation symbol acts by lowering labels.
print("[d, L_0] =", partial_action(alg, AnnBasis(L, 0)).render())
print("[d, L_-1] =", partial_action(alg, AnnBasis(L, -1)).render())

# Compare the expansion against the closed formula, as one identity in the
# labels per generator pair; an empty list means agreement at every label,
# and the bound 6 only limits which mismatches would be listed.
print("mismatches through label 6:", compare_closed_form(alg, 6))

# The half-integer labels of the extended algebras work the same way.
tsv = instantiate("tsv")
Y = tsv.gen("Y")
half = Fraction(1, 2)
print("[Y_1/2, Y_3/2] =", ann_bracket(tsv, AnnBasis(Y, half), AnnBasis(Y, 3 * half)).render())
