"""
Cross-validating predictions against the chain-level oracle
===========================================================

The oracle computes f-values as homology ranks of a truncated Koszul complex
over an exact cyclotomic field, with no reference to faces or subtori.  For
generic arrangements the two routes must agree at every nontrivial character;
the trivial character is reported by both sides but excluded, since the
elimination output there is not a proven cover rank.  A character crosses
into the oracle as integers, its order N and exponents k.
"""

from quasiadj import (
    generic_arrangement,
    on_support,
    oracle_f,
    principal_components,
    principal_f,
    torsion_characters,
    truncated_koszul,
)

# the complex itself: binomial dimensions, entries t_i - 1 up to sign
spec = truncated_koszul(4, 2)
print("chain dims:", spec.dims)

comps = principal_components(generic_arrangement(4, 2))

agree = 0
trivial_gap = None
for chi in torsion_characters((4, 4, 4, 4)):
    predicted = principal_f(chi, comps)
    exact = oracle_f(4, 2, chi.order, chi.exponents)
    if chi.is_trivial():
        trivial_gap = (predicted, exact)
        continue
    assert predicted == exact
    assert (exact > 0) == on_support(chi.order, chi.exponents)
    agree += 1
print("nontrivial characters checked:", agree)
print("trivial character: lower bound %d vs elimination output %d" % trivial_gap)

# the same enumeration drives the oracle alone
total = sum(oracle_f(4, 2, chi.order, chi.exponents) for chi in torsion_characters((3,) * 4))
print("order-3 sweep total f:", total)
