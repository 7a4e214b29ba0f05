"""Exact affine geometry inside the unit cube: integer forms, rational points.

Affine forms have integer coefficients and constant; points, witnesses and
optima are fractions.Fraction.  Integer lattice work (kernels, saturation,
affine spans) goes through the one Hermite reducer, and a small two-phase
simplex solves one set for many objectives (phase 1 once, phase 2 once per
objective).  Evaluation, the simplex and the relative-interior centroid all
work in integers.  The simplex keeps a condensed tableau, the nonbasic
columns only, over one common denominator with exact-division pivots
(Edmonds 1967; the dictionary form of lrs, Avis and Fukuda 1992); an
optimum, witness or sample becomes a Fraction once, on the way out.
Floating point input is rejected at the boundary; nothing in here ever
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from . import work


def rat(x) -> Fraction:
    """Coerce to Fraction.  Floats are refused: exactness is the contract."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point value %r rejected; pass Fraction, int or 'p/q' string" % (x,))
    return Fraction(x)


def _over_lcm(values: Iterable) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    values = [v if type(v) is int else rat(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple, each an int: a Fraction, float or bool is refused."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError("%s entry %r is not an int" % (what, v))
    return values


# ---------------------------------------------------------------------------
# forms and systems


@dataclass(frozen=True)
class AffineForm:
    """coeffs . x + const with integer coefficients and constant; as a
    constraint it is read as value <= 0."""

    coeffs: tuple[int, ...]
    const: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _integers(self.coeffs, "form coefficient"))
        _integers((self.const,), "form constant")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def value(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.coeffs):
            raise ValueError("point arity %d != form arity %d" % (len(point), len(self.coeffs)))
        nums, pden = _over_lcm(point)
        return Fraction(sum(c * v for c, v in zip(self.coeffs, nums)) + self.const * pden, pden)

    def equation_key(self) -> tuple:
        """Canonical key for the hyperplane {value == 0}: primitive integers,
        first nonzero entry positive.  Only meaningful for equations."""
        ints = (*self.coeffs, self.const)
        g = gcd(*ints)
        lead = next((v for v in ints if v), 0)
        return tuple(v // g if lead > 0 else -v // g for v in ints) if g else ints


def cube_bounds(r: int) -> list[AffineForm]:
    """The 2r facet constraints of [0,1]^r in <= 0 form."""
    forms = []
    for i in range(r):
        unit = tuple(int(j == i) for j in range(r))
        forms.append(AffineForm(tuple(-v for v in unit), 0))       # -x_i <= 0
        forms.append(AffineForm(unit, -1))                         # x_i - 1 <= 0
    return forms


# ---------------------------------------------------------------------------
# integer lattices


def hermite(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[tuple[int, ...]], int]:
    """Row Hermite normal form of the first ncols columns, by unimodular row
    operations (Cohen, A Course in Computational Algebraic Number Theory, 2.4).

    Columns past ncols ride along, so appending an identity block records
    the transform.  Returns (matrix, rank): the first rank rows have positive
    pivots with the entries above each pivot reduced into [0, pivot), which
    makes them the unique canonical basis of the row lattice; the remaining
    rows vanish on the first ncols columns.
    """
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(rank, len(mat)) if mat[i][col] != 0]
            if len(nz) <= 1:
                break
            prow = mat[min(nz, key=lambda i: abs(mat[i][col]))]
            for i in nz:
                if mat[i] is not prow:
                    q = mat[i][col] // prow[col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], prow)]
        if not nz:
            continue
        mat[rank], mat[nz[0]] = mat[nz[0]], mat[rank]
        if mat[rank][col] < 0:
            mat[rank] = [-v for v in mat[rank]]
        prow = mat[rank]
        for i in range(rank):
            q = mat[i][col] // prow[col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], prow)]
        rank += 1
    return [tuple(r) for r in mat], rank


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical (Hermite) basis of the lattice spanned by integer rows."""
    mat, rank = hermite(rows, len(rows[0]) if rows else 0)
    return mat[:rank]


def integer_kernel(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Basis of {v in Z^width : M v = 0}.

    Hermite-reduce the transpose of M with an identity block alongside: the
    transform rows of the vanishing rows span the kernel lattice exactly.
    """
    for row in rows:
        if len(row) != width:
            raise ValueError("row width %d != %d" % (len(row), width))
    ident = [[int(i == j) for j in range(width)] for i in range(width)]
    mat, rank = hermite([[row[j] for row in rows] + ident[j] for j in range(width)], len(rows))
    return [row[len(rows):] for row in mat[rank:]]


def saturation_basis(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Canonical basis of rowspace_Q(rows) intersect Z^width (saturated), for
    integer rows.

    Kernel of the kernel: v lies in the rational rowspace iff it is
    orthogonal to every rational kernel vector of the matrix.  The result
    is put in Hermite form, so equal rowspaces give equal bases.
    """
    ker = integer_kernel(rows, width)
    return hnf_rows(integer_kernel(ker, width))


def is_saturation_basis(rows: Sequence[Sequence[int]], width: int) -> bool:
    """Whether saturation_basis(rows, width) == rows, with one reduction.

    The rows must be in Hermite form, each with its first nonzero entry
    positive and right of the one above, and every entry above it in
    [0, pivot): then they are the canonical basis of the lattice L they
    span.  And L must be saturated, which is when the gcd of the maximal
    minors of the rows is 1: a unimodular reduction of the transpose to its
    Hermite form H keeps that gcd, which is then the product of H's pivots,
    so every pivot of H must be 1 (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4).
    """
    last = -1
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError("row width %d != %d" % (len(row), width))
        pivot = next((j for j, v in enumerate(row) if v), width)
        if pivot <= last or pivot == width or row[pivot] < 0:
            return False
        if any(not 0 <= above[pivot] < row[pivot] for above in rows[:k]):
            return False
        last = pivot
    mat, _ = hermite(list(zip(*rows)), len(rows))
    return all(mat[i][i] == 1 for i in range(len(rows)))


def span_equations(
    equalities: Sequence[AffineForm], point: Sequence[Fraction]
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Saturated integer description of the affine span.

    Returns pairs (v, beta) with v a saturation-lattice basis vector of the
    coefficient rowspace and beta = v . point; every integer equation valid
    on the span is a Z-combination of these.
    """
    width = len(point)
    nums, den = _over_lcm(point)
    for f in equalities:
        if f.arity != width:
            raise ValueError("point arity %d != form arity %d" % (width, f.arity))
        if sum(map(mul, f.coeffs, nums)) + f.const * den:
            raise ValueError("point is not on the span")
    basis = saturation_basis([f.coeffs for f in equalities], width)
    return [(v, Fraction(sum(c * p for c, p in zip(v, nums)), den)) for v in basis]


# ---------------------------------------------------------------------------
# two-phase simplex (variables implicitly >= 0; callers add cube bounds)


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _pivot(rows, cost, basis, nonbasic, den, pr, pc):
    """Exchange the basic variable of row pr with the nonbasic variable of
    column pc in the condensed integer tableau rows/den (cost row included),
    and return the new denominator, the pivot entry made positive.

    A row holds the entries of the nonbasic variables, in the order of
    nonbasic, and then the right-hand side; a basic column is den times a
    unit vector, so it is not stored (the dictionary form of lrs: Avis and
    Fukuda, "A pivoting algorithm for convex hulls and vertex enumeration
    of arrangements and polyhedra", 1992).  The pivot row stays as it is,
    negated if its entry is negative.  The leaving variable's column takes
    the entering one's place, with den on the pivot row and -row[pc] off
    it (both negated with the pivot row), and every other entry becomes
    (a * p - row[pc] * prow[j]) / den.  The division is exact (Edmonds,
    "Systems of distinct representatives and linear algebra", 1967): every
    entry stays a minor of the initial integer matrix, and den the absolute
    determinant of the current basis.  It charges MAX_REGION_WORK first:
    the rows it changes, its own included, times the row length.

    Each row of rows it changes is replaced by a new list and never written
    in place, so a tableau whose list of rows was copied is left as it
    was; the cost row, the caller's own, is written in place.
    """
    table = [*rows, cost]
    p = rows[pr][pc]
    changed = [i for i, row in enumerate(table) if i != pr and (row[pc] or abs(p) != den)]
    work.charge("MAX_REGION_WORK", (len(changed) + 1) * len(rows[pr]))
    prow = [-v for v in rows[pr]] if p < 0 else rows[pr][:]
    prow[pc] = den if p > 0 else -den  # the leaving variable's column: den on the pivot row, 0 off it
    table[pr], p = prow, abs(p)
    for i in changed:
        row, f = table[i], table[i][pc]
        if f:
            row = [(a * p - f * b) // den for a, b in zip(row, prow)]
            row[pc] = -f * prow[pc] // den  # row[pc] read as 0
        else:
            row = [a * p // den for a in row]
        table[i] = row
    rows[:], cost[:] = table[:-1], table[-1]
    basis[pr], nonbasic[pc] = nonbasic[pc], basis[pr]
    return p


def _run_simplex(rows, cost, basis, nonbasic, den):
    """Bland's rule on a condensed integer tableau with denominator den;
    cost row is the z-row of a maximization (optimal when no negative
    reduced cost remains).  Returns the final denominator.

    The entering variable is the nonbasic one of least index with a
    negative reduced cost.  The leaving row has the least ratio rhs/entry
    over the positive entries of the column, compared as cross products,
    and ties go to the smallest basic variable: the rule over Q, so the
    pivots are the same."""
    while True:
        entering = [j for j in range(len(nonbasic)) if cost[j] < 0]
        if not entering:
            return den
        pc = min(entering, key=nonbasic.__getitem__)
        pr = best = None
        for i, row in enumerate(rows):
            if row[pc] > 0 and (
                best is None or (row[-1] * best[pc] - best[-1] * row[pc], basis[i]) < (0, basis[pr])
            ):
                pr, best = i, row
        if pr is None:
            raise Unbounded()
        den = _pivot(rows, cost, basis, nonbasic, den, pr, pc)


def _phase1(ineqs, eqs, r):
    """The condensed tableau (rows, basis, nonbasic, den) of a basic
    feasible point of {x >= 0, every ineq <= 0, every eq == 0} in r
    variables, or Infeasible.

    Variables 0..r-1 are x, r + k is the slack of ineqs[k], and an
    artificial variable, numbered from there on in row order, starts basic
    in each row without a slack to start basic (an equation, or an
    inequality whose right-hand side is negative, its row negated).  Phase 1 maximizes minus
    their sum; the artificials left basic at zero are then driven out, and
    a row that cannot drive its artificial out is redundant.  The result
    holds neither the artificial columns nor the redundant rows, so phase 2
    never pivots an artificial back in.

    An inequality -x_i <= 0 (a cube facet) gets no row, and its slack,
    which equals x_i, keeps its number: every pivot, here and in phase 2,
    is the one the full tableau makes (Bland, "New finite pivoting rules
    for the simplex method", 1977).  The slack starts basic, with rhs 0,
    and never leaves the basis.  While x_i is basic, the slack's row
    equals x_i's row, so the two tie in every ratio test, and the tie goes
    to x_i, the smaller index.  While x_i is nonbasic, the row's only
    nonzero entry is -den, in x_i's column, so it is never a candidate.
    A basic variable never enters, so the row changes no entering choice,
    no cost row and no denominator.
    """
    real = r + len(ineqs)
    flipped = [k for k, f in enumerate(ineqs) if f.const > 0]  # slacks that start nonbasic
    nonbasic = list(range(r)) + [r + k for k in flipped]
    rows, basis = [], []
    artificial = real
    for k, f in enumerate((*ineqs, *eqs)):
        if k < len(ineqs) and not f.const and -1 in f.coeffs and f.coeffs.count(0) == r - 1:
            continue  # the facet -x_i <= 0: its slack is x_i and never leaves the basis
        row = [*f.coeffs, *(int(k == s) for s in flipped), -f.const]
        if k < len(ineqs) and f.const <= 0:
            basis.append(r + k)
        else:
            if f.const > 0:
                row = [-v for v in row]
            basis.append(artificial)
            artificial += 1
        rows.append(row)
    # maximize -(sum of artificials), over denominator 1
    cost = [0] * (len(nonbasic) + 1)
    for row, b in zip(rows, basis):
        if b >= real:
            cost = [a - v for a, v in zip(cost, row)]
    den = _run_simplex(rows, cost, basis, nonbasic, 1)
    if cost[-1] != 0:
        raise Infeasible()
    keep = []
    for i, row in enumerate(rows):
        if basis[i] >= real:
            cols = [j for j, v in enumerate(row[:-1]) if v and nonbasic[j] < real]
            if not cols:
                continue  # redundant constraint: row is zero on real variables
            den = _pivot(rows, cost, basis, nonbasic, den, i, min(cols, key=nonbasic.__getitem__))
        keep.append(i)
    cols = [j for j, v in enumerate(nonbasic) if v < real]
    rows = [[rows[i][j] for j in cols] + rows[i][-1:] for i in keep]
    return rows, [basis[i] for i in keep], [nonbasic[j] for j in cols], den


def _phase2(rows, basis, nonbasic, den, objective):
    """max objective . x from the tableau _phase1 returned, as integers
    (optimum numerator, witness numerators, den).  Raises Unbounded.

    The tableau is left as it is: its list of rows is copied when the
    objective's cost row has a negative entry, so that a pivot follows, and
    _pivot replaces the rows it changes rather than writing them.  It charges
    MAX_REGION_WORK first: the cost row's length per row that builds it.
    """
    r = len(objective)
    terms = [(objective[b], row) for row, b in zip(rows, basis) if b < r and objective[b]]
    work.charge("MAX_REGION_WORK", (len(terms) + 1) * (len(nonbasic) + 1))
    cost = [-objective[v] * den if v < r else 0 for v in nonbasic] + [0]
    for c, row in terms:
        cost = [a + c * v for a, v in zip(cost, row)]
    if min(cost[:-1], default=0) < 0:
        rows, basis, nonbasic = rows[:], basis[:], nonbasic[:]
        den = _run_simplex(rows, cost, basis, nonbasic, den)
    # the z-row's right-hand side is the optimum over den
    return cost[-1], _basic_point(rows, basis, r), den


def _basic_point(rows, basis, r):
    """The numerators, over the tableau's den, of the first r variables at
    the tableau's basic solution."""
    point = [0] * r
    for row, b in zip(rows, basis):
        if b < r:
            point[b] = row[-1]
    return point


def _check_arities(r: int, vectors) -> None:
    arities = {len(v) for v in vectors} | {r}
    if len(arities) > 1:
        raise ValueError("objectives and forms of arities %s in one problem" % sorted(arities))


def lp_maximize(
    objectives: Sequence[Sequence[int]],
    ineqs: Sequence[AffineForm],
    eqs: Sequence[AffineForm] = (),
) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """max objective . x subject to x >= 0, every ineq <= 0, every eq == 0,
    for each of the integer objectives over the one set.

    Phase 1 runs once.  Each objective's phase 2 starts from the
    post-phase-1 tableau, so its answer is the one a solve with that
    objective alone gives, whatever the other objectives are.  Returns one
    (optimum, witness point) per objective.  Raises Infeasible or
    Unbounded, and ValueError when the objectives and forms differ in arity.

    Forms and objectives are integers, so the tableau holds integers over one
    denominator (see _pivot), and Fractions appear only in the returned
    witnesses and optima.
    """
    objectives = [_integers(obj, "objective") for obj in objectives]
    if not objectives:
        raise ValueError("no objective: the variable count is the objectives' arity")
    r = len(objectives[0])
    _check_arities(r, (*objectives, *(f.coeffs for f in (*ineqs, *eqs))))
    tableau = _phase1(ineqs, eqs, r)
    results = []
    for objective in objectives:
        opt, point, den = _phase2(*tableau, objective)
        results.append((Fraction(opt, den), tuple(Fraction(v, den) for v in point)))
    return results


def relative_interior_point(
    ineqs: Sequence[AffineForm], eqs: Sequence[AffineForm], width: int
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """A point with every non-implicit inequality strict, plus the indices of
    the implicit equalities among ineqs.  Raises Infeasible on an empty set,
    Unbounded on an unbounded slack, and ValueError when the forms are not
    of arity width.

    The point is the exact average of a feasible point and per-constraint
    max-slack witnesses, so it lies in the relative interior of the
    feasible set.  Hence an inequality is strict somewhere on the set iff
    it is strict at the point: with the facets -x_i <= 0 among ineqs, the
    set has a point with every coordinate positive iff every coordinate of
    the point is positive.

    Phase 1 runs once and its basic solution is the feasible point; each
    witness is one phase 2 on the condensed integer tableau (see _pivot).
    The slack objective of g is -g.coeffs, so g vanishes on the whole set
    iff its optimum is g.const: an integer comparison, opt_num ==
    g.const * den.  The witnesses are summed as integer numerators, and a
    Fraction appears only in the returned point.
    """
    _check_arities(width, (f.coeffs for f in (*ineqs, *eqs)))
    tableau = _phase1(ineqs, eqs, width)
    witnesses = [(_basic_point(tableau[0], tableau[1], width), tableau[3])]
    implicit = []
    for k, g in enumerate(ineqs):
        opt, point, den = _phase2(*tableau, tuple(-c for c in g.coeffs))
        if opt == g.const * den:
            implicit.append(k)  # g vanishes on the whole set
        else:
            witnesses.append((point, den))
    common = lcm(*(den for _, den in witnesses))
    total = [sum(point[i] * (common // den) for point, den in witnesses) for i in range(width)]
    return tuple(Fraction(t, len(witnesses) * common) for t in total), tuple(implicit)
