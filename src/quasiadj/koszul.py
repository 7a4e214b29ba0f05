"""Independent homology oracle for generic arrangements.

The complement of r generic hyperplanes through the origin of C^(n+1)
deformation-retracts to the n-skeleton of a product of circles whose
fundamental group is the quotient of Z^r by the diagonal class.  The chain
complex of the universal abelian cover of that skeleton is the Koszul-style
contraction complex on Lambda^p(Z[t^+-]^(r-1)) truncated at p <= n, with
differential contracting against (t_1 - 1, ..., t_(r-1) - 1).  A torsion
character crosses into this module as integers, its order N and exponents
k_i with t_i = zeta_N ** k_i; evaluating there puts every entry in
Z[zeta_N], and fraction-free ranks give twisted homology over Q(zeta_N) with
no reference to the quasiadjunction machinery.  The top of a complex
truncated at n has no incoming differential, so the oracle's
h_n = dim C_n - rank d_n takes one rank.  This module only shares the
cyclotomic substrate, so it can serve as a second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, gcd

from . import work
from .cyclotomic import CyclotomicField, LaurentPoly, _integers, matrix_rank


@dataclass(frozen=True)
class ComplexSpec:
    """Truncated contraction complex: bases[p] are the sorted p-subsets of
    the parameters, differentials[p] the matrix of d_p with one row per
    domain generator (shape dim_p x dim_(p-1))."""

    params: int
    top: int
    bases: tuple[tuple[tuple[int, ...], ...], ...]
    differentials: tuple[tuple[tuple[LaurentPoly, ...], ...], ...]  # index p-1 holds d_p

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def differential(self, p: int):
        """Matrix of d_p: C_p -> C_(p-1) (empty for p outside 1..top)."""
        if 1 <= p <= self.top:
            return self.differentials[p - 1]
        return ()


def _character(order: int, exponents) -> tuple[int, tuple[int, ...]]:
    """The character t_i = zeta_N ** k_i as (N, k) in lowest terms, so it has
    one Z[zeta_N] however it is written.  A non-int order or exponent (bool,
    float, Fraction) raises TypeError, an order below 1 ValueError."""
    order, *ks = _integers((order, *exponents), "character order or exponent")
    if order < 1:
        raise ValueError("character order %d < 1" % order)
    g = gcd(order, *ks)
    order //= g
    return order, tuple(k // g % order for k in ks)


@lru_cache(maxsize=None)
@work.metered
def truncated_koszul(params: int, top: int) -> ComplexSpec:
    """The contraction complex of Z[Z^params] truncated at degree top.

    d(e_S) = sum over a in S of sign * (t_a - 1) * e_(S minus a), the sign
    alternating with the position of a in S.  The composite of consecutive
    differentials is asserted to vanish identically.  The build is charged
    its entries and composite products before any basis is built.
    """
    if params < 0:
        raise ValueError("params %d < 0" % params)
    if not 0 <= top <= params:
        raise ValueError("truncation %d outside [0, %d]" % (top, params))
    dims = [comb(params, p) for p in range(top + 1)]
    units = sum(dims[p] * dims[p - 1] for p in range(1, top + 1))
    units += sum(dims[p] * dims[p - 1] * dims[p - 2] for p in range(2, top + 1))
    work.check("MAX_KOSZUL_WORK", units, "Koszul complex on {} parameters truncated at {} needs {units} "
               "entries and products, over cap {cap}", params, top)
    work.charge("MAX_KOSZUL_WORK", units)
    bases = tuple(tuple(combinations(range(params), p)) for p in range(top + 1))
    gens = [
        LaurentPoly.variable(i, params) - LaurentPoly.constant(params, 1)
        for i in range(params)
    ]
    zero = LaurentPoly.zero(params)
    diffs = []
    for p in range(1, top + 1):
        index = {s: j for j, s in enumerate(bases[p - 1])}
        matrix = []
        for s in bases[p]:
            row = [zero] * len(bases[p - 1])
            for pos, a in enumerate(s):
                target = s[:pos] + s[pos + 1 :]
                entry = gens[a] if pos % 2 == 0 else -gens[a]
                row[index[target]] = row[index[target]] + entry
            matrix.append(tuple(row))
        diffs.append(tuple(matrix))
    spec = ComplexSpec(params, top, bases, tuple(diffs))
    assert composition_is_zero(spec)
    return spec


def composition_is_zero(spec: ComplexSpec) -> bool:
    """Symbolic check that d_(p-1) after d_p vanishes for every p."""
    for p in range(2, spec.top + 1):
        outer = spec.differential(p)
        inner = spec.differential(p - 1)
        for row in outer:
            for j in range(len(inner[0]) if inner else 0):
                acc = LaurentPoly.zero(spec.params)
                for t, entry in enumerate(row):
                    acc = acc + entry * inner[t][j]
                if not acc.is_zero():
                    return False
    return True


def _evaluated(field: CyclotomicField, exponents, matrix):
    """A differential evaluated at t_i = zeta_N ** exponents[i]."""
    return [[entry.evaluate(field, exponents) for entry in row] for row in matrix]


def evaluate_at(spec: ComplexSpec, order: int, exponents):
    """Evaluate every differential at the character of order N and exponents
    k; returns (field, dict p -> matrix of field elements)."""
    order, exponents = _character(order, exponents)
    if len(exponents) != spec.params:
        raise ValueError("character arity %d != %d parameters" % (len(exponents), spec.params))
    field = CyclotomicField(order)
    mats = {p: _evaluated(field, exponents, spec.differential(p)) for p in range(1, spec.top + 1)}
    return field, mats


def homology_ranks_at(spec: ComplexSpec, order: int, exponents) -> tuple[int, ...]:
    """Exact Betti numbers of the evaluated complex in degrees 0..top.

    h_p = dim_p - rank d_p - rank d_(p+1); the top degree has no incoming
    differential, so h_top is the kernel rank of d_top.
    """
    field, mats = evaluate_at(spec, order, exponents)
    ranks = [0] + [matrix_rank(field, mats[p]) for p in range(1, spec.top + 1)] + [0]
    return tuple(spec.dims[p] - ranks[p] - ranks[p + 1] for p in range(spec.top + 1))


@lru_cache(maxsize=1024)
def _totient(n: int) -> int:
    """Euler's phi(n), the degree of Z[zeta_n], by trial division."""
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


def _rank_work(order: int, rows: int, cols: int) -> int:
    """The units of one rank of the rows x cols d_n at a character of order
    dividing order, phi = phi(order): phi per entry and order * phi for the
    field table, charged by oracle_f, and (phi - 1) * phi^2 per Bareiss
    divider, min(rows, cols) - 1 of them, charged by matrix_rank."""
    phi = _totient(order)
    return phi * (order + rows * cols) + (min(rows, cols) - 1) * (phi - 1) * phi * phi


def _check_ranks(characters: int, order: int, ranks: int, shapes) -> int:
    """The estimate, refused past MAX_SWEEP_WORK, of a sweep over characters
    characters of order dividing order that takes `ranks` ranks at each d_n
    shape (rows, cols) in shapes.  A rank is at least order + rows * cols
    units, which is checked before phi(order) is found."""
    args = ("oracle sweep of {} characters of order dividing {} exceeds cap {cap} on {} ranks, each phi(order) "
            "times the {} x {} entries of d_n, plus order times phi(order) per field table and phi(order)^3 per "
            "Bareiss divider", characters, order, ranks * len(shapes), *shapes[0])
    work.check("MAX_SWEEP_WORK", ranks * sum(order + rows * cols for rows, cols in shapes), *args)
    units = ranks * sum(_rank_work(order, rows, cols) for rows, cols in shapes)
    work.check("MAX_SWEEP_WORK", units, *args)
    return units


def check_sweep(characters: int, order: int, r: int, n: int, branched: bool = False) -> int:
    """The checked estimate of an oracle sweep over `characters` characters
    whose orders divide `order`, for r hyperplanes in degree n: a rank per
    character on the support, prod(m) / lcm(m) of the characters of orders
    m.  With branched, each takes one more rank, restricted to its support
    I if n < |I| < r: the restriction is on the support, as its phases off
    I are trivial, and its d_n is at most that of r - 1 hyperplanes."""
    sizes = (r, r - 1) if branched and r - 1 > n else (r,)
    shapes = [(comb(s - 1, n), comb(s - 1, n - 1)) for s in sizes]
    return _check_ranks(characters, order, characters // max(order, 1), shapes)


def check_milnor_sweep(order: int, r: int, n: int) -> int:
    """The checked estimate of a Milnor oracle sweep over (k, ..., k),
    0 < k < order: oracle_f ranks only those on the support, the
    gcd(r, order) - 1 multiples k of order / gcd(r, order)."""
    g = gcd(r, order)
    return _check_ranks(g - 1, g, g - 1, [(comb(r - 1, n), comb(r - 1, n - 1))])


def on_support(order: int, exponents) -> bool:
    """The arrangement support criterion: k_1 + ... + k_r = 0 mod N."""
    order, exponents = _character(order, exponents)
    return sum(exponents) % order == 0


def oracle_f(r: int, n: int, order: int, exponents) -> int:
    """Twisted rank of degree-n homology for the r-hyperplane arrangement at
    the character t_i = zeta_N ** k_i, N = order and k = exponents (ints).

    Off the support this is 0.  On the support the character factors through
    the (r-1)-parameter skeleton group, and the value is H_n of the evaluated
    skeleton complex truncated at n, whose top has no incoming differential:
    h_n = dim C_n - rank d_n.  That is C(r-2, n) at nontrivial characters and
    C(r-1, n) at the trivial one (elimination output, not a cover rank;
    callers keep it labeled).  There k_r = -(k_1 + ... + k_(r-1)) mod N, so
    d_n is evaluated at the first r-1 exponents in the same Z[zeta_N].

    A call is estimated as one character of a sweep on the support, which
    a sweep that passed its estimate passes (its order divides the sweep's).
    """
    order, exponents = _character(order, exponents)
    if len(exponents) != r:
        raise ValueError("character arity %d != r = %d" % (len(exponents), r))
    if not 1 <= n <= r - 1:
        raise ValueError("degree n = %d outside [1, %d] for the skeleton model" % (n, r - 1))
    if sum(exponents) % order:
        return 0
    matrix = truncated_koszul(r - 1, n).differential(n)
    rows, cols = len(matrix), len(matrix[0])  # dim C_n x dim C_(n-1)
    _check_ranks(1, order, 1, [(rows, cols)])
    work.charge("MAX_SWEEP_WORK", _totient(order) * (order + rows * cols))  # the field table and d_n's entries
    field = CyclotomicField(order)
    return rows - matrix_rank(field, _evaluated(field, exponents[: r - 1], matrix))


def cone_support(degrees, order: int, exponents) -> bool:
    """Support certification for cone families: the weighted exponent sum
    d_1 k_1 + ... + d_r k_r must vanish mod N (weighted-degree grading)."""
    degrees = _integers(degrees, "degree")
    order, exponents = _character(order, exponents)
    if len(exponents) != len(degrees):
        raise ValueError("character arity %d != %d" % (len(exponents), len(degrees)))
    return sum(d * k for d, k in zip(degrees, exponents)) % order == 0
