"""Principal components of characteristic varieties.

Faces of quasiadjunction exponentiate to translated subtori of the character
torus (C*)^r; a torsion character is integer data, its order N and exponents
k_i with t_i = exp(2 pi i k_i / N), so every containment question is integer
arithmetic on exponent lattices.  Phases k_i / N are derived for output only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product, repeat
from math import gcd, lcm

from . import work
from .cyclotomic import LaurentPoly, cyclotomic_product
from .quasiadjunction import FaceOfQuasiadjunction, faces_of_quasiadjunction
from .ratgeom import _integers, hermite, is_saturation_basis, rat
from .resolution import ResolutionData, _expect_int


@lru_cache(maxsize=4096)
def _phase(k: int, n: int) -> Fraction:
    """Fraction(k, n) for reports only, shared: a sweep meets few phases."""
    return Fraction(k, n)


@dataclass(frozen=True)
class CharacterPoint:
    """A torsion character of Z^r, t_i = exp(2 pi i k_i / N), given by its
    order N and exponents k.  Stored canonically, with 0 <= k_i < N and
    gcd(N, k_1, ..., k_r) = 1, so equal characters compare and hash equal."""

    order: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        n, *ks = _integers((self.order, *self.exponents), "character")
        if n < 1:
            raise ValueError("character order %d < 1" % n)
        g = gcd(n, *ks)
        if g > 1:
            n //= g
            ks = map(g.__rfloordiv__, ks)  # k // g
            object.__setattr__(self, "order", n)
        object.__setattr__(self, "exponents", tuple(map(n.__rmod__, ks)))  # k % n

    @classmethod
    def from_phases(cls, phases) -> "CharacterPoint":
        """The character with phases (arg / 2 pi) p_i, read mod 1."""
        phases = [rat(p) for p in phases]
        n = lcm(*(p.denominator for p in phases))
        return cls(n, tuple(p.numerator * (n // p.denominator) for p in phases))

    @cached_property
    def phases(self) -> tuple[Fraction, ...]:
        return tuple(map(_phase, self.exponents, (self.order,) * len(self.exponents)))

    @property
    def r(self) -> int:
        return len(self.exponents)

    def is_trivial(self) -> bool:
        return self.order == 1

    def conjugate(self) -> "CharacterPoint":
        return CharacterPoint(self.order, tuple(-k for k in self.exponents))

    def restrict(self, indices) -> "CharacterPoint":
        return CharacterPoint(self.order, tuple(self.exponents[i] for i in indices))

    def support(self) -> tuple[int, ...]:
        """Coordinates where the character is nontrivial."""
        return tuple(i for i, k in enumerate(self.exponents) if k)


def torsion_characters(orders):
    """An iterator over all characters with phases k_i / orders[i], in plain
    product order.  Orders below 1 and a sweep past MAX_CHARACTERS are
    refused at the call, which charges the whole sweep at once."""
    orders = [_expect_int(m, "order[%d]" % i) for i, m in enumerate(orders)]
    total = 1
    for m in orders:
        if m < 1:
            raise ValueError("order %d < 1" % m)
        total *= m
    work.check("MAX_CHARACTERS", total, "character sweep of size {units} exceeds cap {cap}")
    work.charge("MAX_CHARACTERS", total)
    n = lcm(*orders)
    return map(CharacterPoint, repeat(n), product(*(range(0, n, n // m) for m in orders)))


def _exponent_vector(v, nvars: int) -> tuple[int, ...]:
    """v as nvars ints: a float, Fraction or bool entry is refused, and so is
    a vector of another length."""
    v = _integers(v, "exponent vector")
    if len(v) != nvars:
        raise ValueError("exponent vector %s has %d entries, not %d" % (list(v), len(v), nvars))
    return v


@dataclass(frozen=True)
class TranslatedSubtorus:
    """Solution set of prod_i t_i^(v_i) = exp(2 pi i beta) for (v, beta) in
    equations.  The exponent vectors form the Hermite basis of a saturated
    lattice, so the set is a single translate of a connected subtorus."""

    nvars: int
    equations: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        eqs = tuple((_exponent_vector(v, self.nvars), rat(b) % 1) for v, b in self.equations)
        object.__setattr__(self, "equations", eqs)
        if not is_saturation_basis([v for v, _ in eqs], self.nvars):
            raise ValueError("equations are not the Hermite basis of a saturated lattice; "
                             "build with make_subtorus")

    @property
    def codim(self) -> int:
        return len(self.equations)

    @property
    def dim(self) -> int:
        return self.nvars - self.codim

    def contains(self, chi: CharacterPoint) -> bool:
        # t^v = exp(2 pi i b/q) at t_i = exp(2 pi i k_i/N) iff (v.k) q = b N mod N q
        if chi.r != self.nvars:
            raise ValueError("character arity %d != %d" % (chi.r, self.nvars))
        n, ks = chi.order, chi.exponents
        for v, beta in self.equations:
            q = beta.denominator
            if (sum(c * k for c, k in zip(v, ks)) * q - beta.numerator * n) % (n * q):
                return False
        return True


def make_subtorus(nvars: int, equations) -> TranslatedSubtorus:
    """Canonicalize generating equations into a Hermite-basis subtorus.

    Each basis phase is read off the integer transform that produced the
    basis vector.  Raise ValueError when the solution set is disconnected or
    empty: the exponent lattice is not saturated, or a relation among the
    generators carries a nonzero phase.
    """
    gens = [(_exponent_vector(v, nvars), rat(b) % 1) for v, b in equations]
    ident = [[int(i == j) for j in range(len(gens))] for i in range(len(gens))]
    mat, rank = hermite([list(v) + ident[i] for i, (v, _) in enumerate(gens)], nvars)
    eqs = []
    for i, row in enumerate(mat):
        beta = sum(c * b for c, (_, b) in zip(row[nvars:], gens)) % 1
        if i < rank:
            eqs.append((row[:nvars], beta))
        elif beta:
            raise ValueError("relation %s among the generators has phase %s: the solution set is empty"
                             % (list(row[nvars:]), beta))
    return TranslatedSubtorus(nvars, tuple(eqs))  # refuses a non-saturated lattice


def subtorus_contains(outer: TranslatedSubtorus, inner: TranslatedSubtorus) -> bool:
    """inner subset of outer, exactly: intersecting with outer leaves inner
    unchanged.  An empty or disconnected intersection is not inner."""
    if outer.nvars != inner.nvars:
        raise ValueError("ambient mismatch")
    try:
        return make_subtorus(inner.nvars, inner.equations + outer.equations) == inner
    except ValueError:
        return False


def project_subtorus(torus: TranslatedSubtorus, index: int) -> TranslatedSubtorus:
    """Image under dropping coordinate `index`; requires t_index = 1 on the
    torus (so the projection is again a translated subtorus)."""
    if not 0 <= index < torus.nvars:
        raise IndexError("coordinate %d outside range(%d)" % (index, torus.nvars))
    unit = [0] * torus.nvars
    unit[index] = 1
    axis = TranslatedSubtorus(torus.nvars, (((tuple(unit)), Fraction(0)),))
    if not subtorus_contains(axis, torus):
        raise ValueError("t_%d is not identically 1 on the torus" % (index + 1))
    dropped = []
    for v, beta in torus.equations:
        w = list(v[:index]) + list(v[index + 1 :])
        dropped.append((tuple(w), beta))  # phase unchanged: t_index = 1
    return make_subtorus(torus.nvars - 1, dropped)


# ---------------------------------------------------------------------------
# principal components


@dataclass(frozen=True)
class PrincipalComponent:
    """A translated subtorus certified inside V_k, with the jump data that
    produced it: contributions lists the (l, k) label pairs of the faces
    exponentiating onto this torus; k is the largest such k."""

    torus: TranslatedSubtorus
    k: int
    l: int
    contributions: tuple[tuple[int, int], ...]

    def contains(self, chi: CharacterPoint) -> bool:
        return self.torus.contains(chi)


def exp_face(face: FaceOfQuasiadjunction, nvars: int) -> TranslatedSubtorus:
    """Closure of the exponential image: each span equation v . x = beta
    becomes prod t_i^(v_i) = exp(2 pi i beta)."""
    return TranslatedSubtorus(nvars, face.span)


def principal_components(data: ResolutionData) -> list[PrincipalComponent]:
    faces = faces_of_quasiadjunction(data)
    by_torus: dict[TranslatedSubtorus, list[tuple[int, int]]] = {}  # in first-appearance order
    for face in faces:
        by_torus.setdefault(exp_face(face, data.r), []).extend(sorted(face.labels.items()))
    out = []
    for torus, labels in by_torus.items():
        contributions = tuple(sorted(set(labels)))
        k = max(c[1] for c in contributions)
        l = min(c[0] for c in contributions if c[1] == k)
        out.append(PrincipalComponent(torus, k, l, contributions))
    return out


def principal_f(chi: CharacterPoint, components) -> int:
    """max k over principal components containing chi (0 if none): a lower
    bound for the eigenspace-dimension function f."""
    best = 0
    for comp in components:
        if comp.k > best and comp.contains(chi):
            best = comp.k
    return best


# ---------------------------------------------------------------------------
# essential vs nonessential components


@dataclass(frozen=True)
class EssentialityReport:
    essential: tuple[PrincipalComponent, ...]
    nonessential: tuple[tuple[PrincipalComponent, int, PrincipalComponent], ...]


def classify_essential(data: ResolutionData, components=None) -> EssentialityReport:
    """Split components into essential ones and those arising from a proper
    subunion: torus inside {t_i = 1} with its projection inside a component
    of the subunion without branch i.  That subunion is data.family
    restricted to the other branches, so data with no family, or with one
    branch, has none and every component is essential.  The subunion's
    components are built only for a branch some torus projects along, once
    per branch."""
    if components is None:
        components = principal_components(data)
    if data.family is None or data.r == 1:
        return EssentialityReport(tuple(components), ())
    sub_components = {}  # branch -> components of the subunion without it

    def subunion(i):
        if i not in sub_components:
            sub_components[i] = principal_components(data.family.restrict(j for j in range(data.r) if j != i).build())
        return sub_components[i]

    essential = []
    nonessential = []
    for comp in components:
        witness = None
        for i in range(data.r):
            try:
                proj = project_subtorus(comp.torus, i)
            except ValueError:
                continue  # t_i is not identically 1 on the torus
            for sub in subunion(i):
                if subtorus_contains(sub.torus, proj):
                    witness = (comp, i, sub)
                    break
            if witness:
                break
        if witness:
            nonessential.append(witness)
        else:
            essential.append(comp)
    return EssentialityReport(tuple(essential), tuple(nonessential))


# ---------------------------------------------------------------------------
# the torus polynomial


def polynomial_invariant(components, nvars: int) -> LaurentPoly:
    """Product over distinct codimension-one components of Phi_N(t^v)^k,
    where the component is {t^v = primitive N-th root}, normalized to a
    genuine Laurent polynomial with positive leading coefficient.

    Components of codimension >= 2 admit no divisorial description; raise.
    """
    factors: dict[tuple, int] = {}
    for comp in components:
        if comp.torus.codim != 1:
            raise ValueError(
                "component of codimension %d has no polynomial divisor" % comp.torus.codim)
        (v, beta), = comp.torus.equations
        order = beta.denominator  # beta = b/N reduced: exp(2 pi i beta) is a primitive N-th root
        key = (v, order)
        factors[key] = max(factors.get(key, 0), comp.k)
    return cyclotomic_product(nvars, ((order, v, power) for (v, order), power in sorted(factors.items())))


# ---------------------------------------------------------------------------
# serialization


def subtorus_dict(torus: TranslatedSubtorus) -> dict:
    return {
        "equations": [{"exponents": list(v), "phase": str(b)} for v, b in torus.equations],
        "dim": torus.dim,
    }


def component_dict(comp: PrincipalComponent) -> dict:
    return {
        "torus": subtorus_dict(comp.torus),
        "k": comp.k,
        "l": comp.l,
        "contributions": [list(c) for c in comp.contributions],
    }
