"""
Submodules and irreducibility
=============================

A proper submodule of a rank-one module is generated by a monic
polynomial p(d), and p(d) generates one exactly when it divides G(d), the
gcd of every x-coefficient of every action polynomial.  The scanner lists
the monic divisors of G up to the requested degree, computes the action
induced on each submodule, and turns the result into an irreducibility
verdict with an explicit certificate.  G(d) = 1 rules out submodules of
every degree.
"""

from confalg import (
    induced_action,
    instantiate,
    irreducibility_verdict,
    named_module,
    parse_poly,
    submodule_scan,
)

vir = instantiate("vir")

# M_alpha_beta names the standard module where L acts by d + alpha*x + beta.
# At alpha = 0 the module is reducible, and the scan produces the witness.
m02 = named_module(vir, "M_0_2")
print("module:", m02.render())
for witness in submodule_scan(vir, m02, 3):
    print("  witness:", witness.render())

# The induced action on the submodule generated by d + 2 is exactly the
# module M_1_2, one step up in alpha.
induced = induced_action(vir, m02, parse_poly(vir.registry, "d + 2"))
print("induced action:", induced.render())
print("equals M_1_2:", induced == named_module(vir, "M_1_2"))

# At alpha != 0 the scan comes up empty: G(d) = 1, so no submodule of any
# degree exists.  The certificate keeps its "bounded" label, which is
# conservative, so the output stays stable.
verdict = irreducibility_verdict(vir, named_module(vir, "M_1_2"), 3)
print("M_1_2 verdict:", verdict.render())
print("certificate:", verdict.certificate)

# When a generator acts by a nonzero constant the divisibility argument
# closes the question for every degree at once.
w10 = instantiate("w", {"a": 1, "b": 0})
gamma_module = named_module(w10, "M_0_2_1")
verdict = irreducibility_verdict(w10, gamma_module, 3)
print("M_0_2_1 verdict:", verdict.render())
print("certificate:", verdict.certificate)

# The zero module is reducible for free.
verdict = irreducibility_verdict(vir, named_module(vir, "zero"), 3)
print("zero module verdict:", verdict.render())
