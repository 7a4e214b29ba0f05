"""Homology ranks of abelian covers and Milnor fiber monodromy data.

Sub-top ranks are combinatorial (exterior powers of the deck lattice); the
interesting degree n aggregates the eigenspace-dimension function f over
torsion characters.  f comes from one of two sources and every table says
which: "principal lower bound" (max jump label of a containing principal
component) or "exact (oracle)" (twisted skeleton homology, generic
arrangements only).  Values at the trivial character / monodromy eigenvalue
t = 1 are structurally unresolved and stay flagged rather than corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .charvariety import (
    diagonal_character,
    principal_components,
    principal_f,
    torsion_characters,
)
from .koszul import oracle_f
from .resolution import ResolutionData, _expect_int, delete_component, is_generic_arrangement

PRINCIPAL = "principal lower bound"
ORACLE = "exact (oracle)"


@dataclass(frozen=True)
class BettiTable:
    mode: str                      # "unbranched" | "branched"
    orders: tuple[int, ...]        # the cover orders m
    ranks: tuple[int, ...]         # degrees 0..n
    f_source: str
    unresolved_trivial: bool
    audit: dict


def oracle_applies(data: ResolutionData) -> bool:
    """Whether the Koszul oracle models data: a generic arrangement with
    1 <= n <= r - 1 (the skeleton model)."""
    return is_generic_arrangement(data) and 1 <= data.n <= data.r - 1


def f_source(data: ResolutionData, mode: str, components=None):
    """The f-function that `mode` names, as a callable on characters.

    PRINCIPAL reads the principal components of data (computed unless
    given).  ORACLE needs oracle_applies(data); its callable also serves a
    character restricted to a support I, as the oracle of the arrangement
    of the |I| hyperplanes in I, where |I| <= n gives an aspherical
    complement and f = 0.
    """
    if mode == PRINCIPAL:
        if components is None:
            components = principal_components(data)
        return lambda chi: principal_f(chi, components)
    if mode == ORACLE:
        if not oracle_applies(data):
            raise ValueError("oracle f-values are only available for generic arrangements with 1 <= n <= r - 1")
        return lambda chi: oracle_f(chi.r, data.n, chi.phases) if chi.r > data.n else 0
    raise ValueError("unknown f mode %r" % mode)


def betti_unbranched(
    data: ResolutionData, m, components=None, f_mode: str = PRINCIPAL
) -> BettiTable:
    """Homology ranks of the unbranched cover of orders m in degrees 0..n.

    Below the top degree the rank is C(r, p), independent of m.  In degree n
    the rank is the sum of f over all prod(m_i) torsion characters.
    """
    m = tuple(_expect_int(v, "m[%d]" % i) for i, v in enumerate(m))
    if len(m) != data.r:
        raise ValueError("m has length %d, expected r = %d" % (len(m), data.r))
    f = f_source(data, f_mode, components)
    total = 0
    count = 0
    trivial_term = 0
    for chi in torsion_characters(m):
        val = f(chi)
        total += val
        count += 1
        if chi.is_trivial():
            trivial_term = val
    expected = 1
    for v in m:
        expected *= v
    assert count == expected, "character audit failed: %d != %d" % (count, expected)
    ranks = tuple(comb(data.r, p) for p in range(data.n)) + (total,)
    return BettiTable(
        mode="unbranched",
        orders=m,
        ranks=ranks,
        f_source=f_mode,
        unresolved_trivial=True,
        audit={
            "characters": count,
            "top_from_nontrivial": total - trivial_term,
            "top_from_trivial": trivial_term,
            "trivial_note": "trivial-character term is %s output, not a proven cover rank" % f_mode,
        },
    )


def _subunion(data: ResolutionData, keep: tuple[int, ...]) -> ResolutionData:
    sub = data
    for index in sorted(set(range(data.r)) - set(keep), reverse=True):
        sub = delete_component(sub, index)
    return sub


def betti_branched(
    data: ResolutionData, m, f_mode: str = PRINCIPAL
) -> BettiTable:
    """Homology ranks of the branched cover.

    Characters are bucketed by their support I (coordinates with nontrivial
    phase); each contributes f of the restricted character computed against
    the subunion with only the branches in I.  Degrees 1..n-1 vanish.
    """
    m = tuple(_expect_int(v, "m[%d]" % i) for i, v in enumerate(m))
    if len(m) != data.r:
        raise ValueError("m has length %d, expected r = %d" % (len(m), data.r))
    # the oracle serves every support as it is, so only the principal route
    # builds subunion data
    oracle = None if f_mode == PRINCIPAL else f_source(data, f_mode)
    f_by_support: dict = {}
    total = 0
    count = 0
    buckets: dict[tuple[int, ...], int] = {}
    for chi in torsion_characters(m):
        count += 1
        keep = chi.support()
        if not keep:
            buckets[keep] = buckets.get(keep, 0)
            continue
        if keep not in f_by_support:
            f_by_support[keep] = oracle or f_source(_subunion(data, keep), PRINCIPAL)
        val = f_by_support[keep](chi.restrict(keep))
        total += val
        buckets[keep] = buckets.get(keep, 0) + val
    expected = 1
    for v in m:
        expected *= v
    assert count == expected, "character audit failed: %d != %d" % (count, expected)
    ranks = (1,) + (0,) * (data.n - 1) + (total,)
    return BettiTable(
        mode="branched",
        orders=m,
        ranks=ranks,
        f_source=f_mode,
        unresolved_trivial=True,
        audit={
            "characters": count,
            "buckets": {",".join(str(i + 1) for i in keep) or "-": v for keep, v in sorted(buckets.items())},
            "trivial_note": "empty-support bucket contributes 0 (cover of a sphere)",
        },
    )


@dataclass(frozen=True)
class MilnorTable:
    """Milnor fiber data: sub-top ranks, monodromy eigenvalue multiplicities
    (lower bounds unless the oracle supplied them) and the certified
    characteristic-polynomial divisor in degree n."""

    order_bound: int
    ranks: tuple[int, ...]                     # degrees 0..n; top excludes the t=1 part
    multiplicities: dict[Fraction, int]        # diagonal phase (nonzero) -> m_omega
    factors: tuple[tuple[int, int], ...]       # (cyclotomic order d, exponent)
    unresolved_at_1: bool
    f_source: str

    def polynomial_string(self) -> str:
        from .cyclotomic import LaurentPoly, cyclotomic_in_monomial

        out = LaurentPoly.constant(1, 1)
        for order, power in self.factors:
            out = out * (cyclotomic_in_monomial(order, (1,)) ** power)
        return str(out.normalized()).replace("t1", "t")


def milnor_fiber(
    data: ResolutionData, order_bound: int, components=None, f_mode: str = PRINCIPAL
) -> MilnorTable:
    """Monodromy data of the Milnor fiber of the defining germ.

    Sub-top ranks are C(r-1, p).  The degree-n eigenvalue multiplicity at a
    root of unity omega != 1 of order dividing order_bound is f at the
    diagonal character (omega, ..., omega); the certified characteristic
    polynomial divisor takes, per cyclotomic orbit, the largest multiplicity
    seen (each per-eigenvalue value is a lower bound for the orbit-constant
    true multiplicity).  The multiplicity at t = 1 is left unresolved.
    """
    if _expect_int(order_bound, "order bound") < 1:
        raise ValueError("order bound %d < 1" % order_bound)
    f = f_source(data, f_mode, components)
    mults: dict[Fraction, int] = {}
    for k in range(1, order_bound):
        phase = Fraction(k, order_bound)
        mults[phase] = f(diagonal_character(phase, data.r))
    factors = []
    for d in range(2, order_bound + 1):
        if order_bound % d:
            continue
        orbit = [mults[Fraction(k, d)] for k in range(1, d) if Fraction(k, d).denominator == d]
        if f_mode == ORACLE:
            assert len(set(orbit)) == 1, "oracle multiplicities must be orbit-constant"
        power = max(orbit)
        if power > 0:
            factors.append((d, power))
    top = sum(mults.values())
    ranks = tuple(comb(data.r - 1, p) for p in range(data.n)) + (top,)
    return MilnorTable(
        order_bound=order_bound,
        ranks=ranks,
        multiplicities=mults,
        factors=tuple(factors),
        unresolved_at_1=True,
        f_source=f_mode,
    )


def betti_dict(table: BettiTable) -> dict:
    return {
        "mode": table.mode,
        "orders": list(table.orders),
        "ranks": list(table.ranks),
        "f_source": table.f_source,
        "unresolved_trivial": table.unresolved_trivial,
        "audit": table.audit,
    }


def milnor_dict(table: MilnorTable) -> dict:
    return {
        "order_bound": table.order_bound,
        "ranks": list(table.ranks),
        "multiplicities": {str(p): v for p, v in sorted(table.multiplicities.items())},
        "factors": [list(f) for f in table.factors],
        "characteristic_divisor": table.polynomial_string(),
        "unresolved_at_1": table.unresolved_at_1,
        "f_source": table.f_source,
    }
