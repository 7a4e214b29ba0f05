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


# entries of the dense differentials plus entry products of the composition
# check that one truncated_koszul build may make before it gives up
MAX_KOSZUL_WORK = 1_000_000


@lru_cache(maxsize=None)
def truncated_koszul(params: int, top: int) -> ComplexSpec:
    """The contraction complex of Z[Z^params] truncated at degree top.

    d(e_S) = sum over a in S of sign * (t_a - 1) * e_(S minus a), the sign
    alternating with the position of a in S.  The composite of consecutive
    differentials is asserted to vanish identically.  The build costs
    dim C_p * dim C_(p-1) entries for each d_p and dim C_p * dim C_(p-1) *
    dim C_(p-2) products for each composite; one that would cost more than
    MAX_KOSZUL_WORK raises ValueError before any basis is built.
    """
    if params < 0:
        raise ValueError("params %d < 0" % params)
    if not 0 <= top <= params:
        raise ValueError("truncation %d outside [0, %d]" % (top, params))
    dims = [comb(params, p) for p in range(top + 1)]
    work = sum(dims[p] * dims[p - 1] for p in range(1, top + 1))
    work += sum(dims[p] * dims[p - 1] * dims[p - 2] for p in range(2, top + 1))
    if work > MAX_KOSZUL_WORK:
        raise ValueError(
            "Koszul complex on %d parameters truncated at %d needs %d entries and products, over cap %d"
            % (params, top, work, MAX_KOSZUL_WORK))
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


# work one oracle sweep may charge before it gives up (see check_sweep)
MAX_SWEEP_WORK = 1_000_000


def _work(characters: int, ranks: int, order: int, rows: int, cols: int) -> int:
    """characters evaluations of the rows x cols matrix d_n, whose entries
    hold phi = phi(order) integers each, and ranks ranks of it, each
    building the field table of order powers of zeta, phi integers each
    (see cyclotomic.CyclotomicField), and at most min(rows, cols) - 1
    Bareiss dividers of phi - 1 products of degree phi (see
    cyclotomic._exact_divider)."""
    phi = _totient(order)
    return (characters * phi * rows * cols
            + ranks * (order * phi + (min(rows, cols) - 1) * (phi - 1) * phi * phi))


def _check_work(characters: int, ranks: int, order: int, rows: int, cols: int) -> None:
    if characters > MAX_SWEEP_WORK or _work(characters, ranks, order, rows, cols) > MAX_SWEEP_WORK:
        raise ValueError("oracle sweep of %d characters of order dividing %d exceeds cap %d on characters"
                         " times phi(order) times the %d x %d entries of d_n, plus order times phi(order)"
                         " per field table and phi(order)^3 per Bareiss divider of a rank"
                         % (characters, order, MAX_SWEEP_WORK, rows, cols))


def check_sweep(characters: int, order: int, r: int, n: int) -> None:
    """Refuse an oracle sweep over `characters` characters whose orders
    divide `order`, for the r-hyperplane arrangement in degree n, before it
    starts.  Each character is charged the dim C_n x dim C_(n-1) entries of
    d_n, which hold phi(N) <= phi(order) integers each in Z[zeta_N].  Each
    character on the support takes one rank of d_n, and is charged that
    rank's field table and Bareiss dividers as well (see _work): a sweep
    over every character of orders m has prod(m) / lcm(m) = characters //
    order of them, since k -> sum_i k_i lcm(m) / m_i maps onto Z/lcm(m).
    Raises ValueError when the work exceeds MAX_SWEEP_WORK.  A sweep's
    order is at most its character count plus one, so phi is only computed
    for orders up to MAX_SWEEP_WORK + 1."""
    _check_work(characters, characters // max(order, 1), order, comb(r - 1, n), comb(r - 1, n - 1))


def check_milnor_sweep(order: int, r: int, n: int) -> None:
    """Refuse a Milnor oracle sweep over the diagonal characters (k, ..., k),
    0 < k < order, for the r-hyperplane arrangement in degree n, before it
    starts.  oracle_f returns 0 off the support before it evaluates
    anything, and (k, ..., k) is on it iff r k = 0 mod order: for the
    gcd(r, order) - 1 multiples k of order / gcd(r, order).  Only those are
    charged, each as check_sweep charges a character on the support, at
    their common order gcd(r, order).  Raises ValueError when the work
    exceeds MAX_SWEEP_WORK."""
    g = gcd(r, order)
    _check_work(g - 1, g - 1, g, comb(r - 1, n), comb(r - 1, n - 1))


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

    A call whose rank would take more than MAX_SWEEP_WORK, charged as one
    character of a sweep on the support (see check_sweep), raises
    ValueError before the field is built.  phi(N) < N, so the work with N
    in place of phi bounds it, and phi is computed only when that bound
    passes the cap.  A character of a sweep that check_sweep or
    check_milnor_sweep passed is never refused here: the sweep charged at
    least one rank at the sweep's order, which the character's order
    divides, and phi of a divisor divides phi.
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
    if order * (rows * cols + order + min(rows, cols) * order * order) > MAX_SWEEP_WORK:  # _work with N for phi(N)
        _check_work(1, 1, order, rows, cols)
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
