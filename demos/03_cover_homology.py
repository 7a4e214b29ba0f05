"""
Homology of abelian covers and the Milnor fiber
===============================================

Cover homology below the top degree is forced by the ambient geometry; the
top degree is a sum of f-values over torsion characters of the deck group.
Component membership gives exact lower bounds for f; for generic
arrangements an independent chain-level oracle provides the exact values.
"""

from quasiadj import (
    ORACLE,
    PRINCIPAL,
    betti_tables,
    cone_over,
    generic_arrangement,
    milnor_fiber,
)

arr = generic_arrangement(4, 2)

# the (3,3,3,3) unbranched and branched covers of the arrangement
# complement, from one sweep over the 81 characters
table, branched = betti_tables(arr, (3, 3, 3, 3), f_mode=ORACLE)
print("unbranched ranks:", table.ranks)
print("  audit:", table.audit)

# the same sum with component lower bounds differs only in the flagged
# trivial-character term
print("principal ranks:", betti_tables(arr, (3, 3, 3, 3), f_mode=PRINCIPAL)[0].ranks)

# branched covers bucket characters by support and restrict to subunions
print("branched ranks:", branched.ranks)

# Milnor fiber: ranks below the top are binomial, the top collects diagonal
# monodromy eigenvalues into a characteristic divisor
milnor = milnor_fiber(arr, 4, f_mode=ORACLE)
print("milnor ranks:", milnor.ranks)
print("eigenvalue multiplicities:", dict(milnor.multiplicities))
print("degree-n divisor:", milnor.polynomial_string(), " (t = 1 part unresolved)")

# weighted cones run through the same machinery with lower-bound semantics
print("cone milnor:", milnor_fiber(cone_over((2, 3), 2, 3), 5).multiplicities)
