"""Homology ranks of abelian covers and Milnor fiber monodromy data.

Sub-top ranks are combinatorial (exterior powers of the deck lattice); the
interesting degree n aggregates the eigenspace-dimension function f over
torsion characters.  Every sweep over the characters of given orders is
`sweep`, which bounds it before the first character; betti_tables reads the
unbranched and the branched table off one sweep.  f comes from one of two
sources and every table says which: "principal lower bound" (max jump label
of a containing principal component) or "exact (oracle)" (twisted skeleton
homology, generic arrangements only).  Values at the trivial character /
monodromy eigenvalue t = 1 are structurally unresolved and stay flagged
rather than corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import tee
from math import comb, gcd, lcm, prod

from . import work
from .charvariety import CharacterPoint, principal_components, principal_f, torsion_characters
from .cyclotomic import cyclotomic_product
from .koszul import check_milnor_sweep, check_sweep, oracle_f
from .resolution import ResolutionData, _expect_int

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
    """Whether the Koszul oracle models data: a generic arrangement (a cone
    family of degrees all 1) with 1 <= n <= r - 1 (the skeleton model)."""
    return data.family is not None and all(d == 1 for d in data.family.degrees) and 1 <= data.n <= data.r - 1


def _oracle_at(n: int, chi: CharacterPoint) -> int:
    """The oracle's f at chi on chi.r hyperplanes in degree n.  A character
    restricted to a support I is served as the arrangement of the |I|
    hyperplanes in I, where |I| <= n gives an aspherical complement and
    f = 0."""
    return oracle_f(chi.r, n, chi.order, chi.exponents) if chi.r > n else 0


def f_source(data: ResolutionData, mode: str):
    """The f-function that `mode` names, as a callable on characters.

    PRINCIPAL reads the principal components of data.  ORACLE needs
    oracle_applies(data), and its callable is _oracle_at.
    """
    if mode == PRINCIPAL:
        components = principal_components(data)
        return lambda chi: principal_f(chi, components)
    if mode == ORACLE:
        if not oracle_applies(data):
            raise ValueError("oracle f-values are only available for generic arrangements with 1 <= n <= r - 1")
        return partial(_oracle_at, data.n)
    raise ValueError("unknown f mode %r" % mode)


def sweep(data: ResolutionData, orders, *modes, branched: bool = False):
    """The one character sweep: an iterator of (chi, f(chi) under each mode
    in turn) over the torsion characters chi of the r orders, in
    torsion_characters' order.  At the call, before any f source is built,
    it refuses orders that are not r ints, then (with ORACLE among the
    modes) the oracle's estimate, then torsion_characters' refusals.  With
    branched, the estimate also counts the restricted ranks of
    betti_tables' branched table."""
    orders = tuple(_expect_int(v, "m[%d]" % i) for i, v in enumerate(orders))
    if len(orders) != data.r:
        raise ValueError("m has length %d, expected r = %d" % (len(orders), data.r))
    if ORACLE in modes:
        check_sweep(prod(orders), lcm(*orders), data.r, data.n, branched)
    characters, *copies = tee(torsion_characters(orders), 1 + len(modes))
    fs = [f_source(data, mode) for mode in modes]
    return zip(characters, *map(map, fs, copies))  # each f maps over its own copy, in step


@work.metered
def betti_tables(data: ResolutionData, m, f_mode: str = PRINCIPAL) -> tuple[BettiTable, BettiTable | None]:
    """Homology ranks of the unbranched and the branched cover of orders m
    in degrees 0..n, from one sweep over the prod(m_i) torsion characters.

    Unbranched: below the top degree the rank is C(r, p), independent of
    m; in degree n it is the sum of f over all characters.

    Branched: degrees 1..n-1 vanish.  Characters are bucketed by their
    support I (coordinates with nontrivial phase), and each contributes f of
    the restricted character computed against the subunion with only the
    branches in I: at the full support that is the unbranched value, and
    the empty support contributes 0 (the cover of a sphere).  The oracle
    serves every support as it is.  On the principal route the subunion is
    data.family restricted to I, and its components are computed once per
    restricted family.  Subunions need data.family, so the branched table
    is None for data without one.

    The sweep's refusals (see sweep) come before any character is visited.
    """
    m = tuple(m)
    family = data.family
    f_by_subunion: dict = {}
    total = 0
    count = 0
    trivial_term = 0
    buckets: dict[tuple[int, ...], int] = {}
    for chi, val in sweep(data, m, f_mode, branched=family is not None):
        total += val
        count += 1
        if chi.is_trivial():
            trivial_term = val
        if family is None:
            continue
        keep = chi.support()
        if not keep:
            val = 0
        elif len(keep) < data.r and f_mode == ORACLE:
            val = _oracle_at(data.n, chi.restrict(keep))
        elif len(keep) < data.r:
            sub = family.restrict(keep)
            if sub not in f_by_subunion:
                f_by_subunion[sub] = f_source(sub.build(), PRINCIPAL)
            val = f_by_subunion[sub](chi.restrict(keep))
        buckets[keep] = buckets.get(keep, 0) + val
    assert count == prod(m), "character audit failed: %d != %d" % (count, prod(m))
    unbranched = BettiTable(
        mode="unbranched",
        orders=m,
        ranks=tuple(comb(data.r, p) for p in range(data.n)) + (total,),
        f_source=f_mode,
        unresolved_trivial=True,
        audit={
            "characters": count,
            "top_from_nontrivial": total - trivial_term,
            "top_from_trivial": trivial_term,
            "trivial_note": "trivial-character term is %s output, not a proven cover rank" % f_mode,
        },
    )
    if family is None:
        return unbranched, None
    branched = BettiTable(
        mode="branched",
        orders=m,
        ranks=(1,) + (0,) * (data.n - 1) + (sum(buckets.values()),),
        f_source=f_mode,
        unresolved_trivial=True,
        audit={
            "characters": count,
            "buckets": {",".join(str(i + 1) for i in keep) or "-": v for keep, v in sorted(buckets.items())},
            "trivial_note": "empty-support bucket contributes 0 (cover of a sphere)",
        },
    )
    return unbranched, branched


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
        return str(cyclotomic_product(1, ((d, (1,), power) for d, power in self.factors))).replace("t1", "t")


@work.metered
def milnor_fiber(data: ResolutionData, order_bound: int, f_mode: str = PRINCIPAL) -> MilnorTable:
    """Monodromy data of the Milnor fiber of the defining germ.

    Sub-top ranks are C(r-1, p).  The degree-n eigenvalue multiplicity at a
    root of unity omega != 1 of order dividing order_bound is f at the
    diagonal character (omega, ..., omega); the certified characteristic
    polynomial divisor takes, per cyclotomic orbit, the largest multiplicity
    seen (each per-eigenvalue value is a lower bound for the orbit-constant
    true multiplicity).  The multiplicity at t = 1 is left unresolved.
    The sweep's refusals come before any character is visited.
    """
    if _expect_int(order_bound, "order bound") < 1:
        raise ValueError("order bound %d < 1" % order_bound)
    work.check("MAX_CHARACTERS", order_bound - 1, "Milnor fiber sweep of {units} diagonal characters exceeds cap {cap}")
    if f_mode == ORACLE:
        check_milnor_sweep(order_bound, data.r, data.n)
    work.charge("MAX_CHARACTERS", order_bound - 1)
    f = f_source(data, f_mode)
    mults: dict[Fraction, int] = {}
    for k in range(1, order_bound):
        mults[Fraction(k, order_bound)] = f(CharacterPoint(order_bound, (k,) * data.r))
    factors = []
    for d in range(2, order_bound + 1):
        if order_bound % d:
            continue
        orbit = [mults[Fraction(k, d)] for k in range(1, d) if gcd(k, d) == 1]
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
