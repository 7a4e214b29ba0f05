"""Exact affine geometry inside the unit cube: integer forms, rational points.

Affine forms have integer coefficients and constant; points, witnesses and
optima are fractions.Fraction.  Integer lattice work (kernels, saturation,
affine spans) goes through the one Hermite reducer, and a small two-phase
simplex solves one set for many objectives (phase 1 once, phase 2 once per
objective).  Evaluation, the simplex tableau (one common denominator,
exact-division pivots) and the relative-interior centroid all work in
integers; an optimum or witness becomes a Fraction once, on the way out.
Floating point input is rejected at the boundary; nothing in here ever
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


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


@dataclass(frozen=True)
class HalfspaceSystem:
    """Finite intersection of halfspaces {form <= 0}, all of one arity."""

    forms: tuple[AffineForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        arities = {f.arity for f in self.forms}
        if len(arities) > 1:
            raise ValueError("mixed arities in halfspace system: %s" % sorted(arities))

    @property
    def arity(self) -> int:
        return self.forms[0].arity if self.forms else 0

    def contains(self, point: Sequence[Fraction]) -> bool:
        return all(f.value(point) <= 0 for f in self.forms)


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


def span_equations(
    equalities: Sequence[AffineForm], point: Sequence[Fraction]
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Saturated integer description of the affine span.

    Returns pairs (v, beta) with v a saturation-lattice basis vector of the
    coefficient rowspace and beta = v . point; every integer equation valid
    on the span is a Z-combination of these.
    """
    width = len(point)
    for f in equalities:
        if f.value(point) != 0:
            raise ValueError("point is not on the span")
    basis = saturation_basis([f.coeffs for f in equalities], width)
    nums, den = _over_lcm(point)
    return [(v, Fraction(sum(c * p for c, p in zip(v, nums)), den)) for v in basis]


# ---------------------------------------------------------------------------
# two-phase simplex (variables implicitly >= 0; callers add cube bounds)


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _pivot(rows, cost, basis, den, pr, pc):
    """Pivot the integer tableau rows/den (cost row included) on entry
    (pr, pc) and return the new denominator, the pivot entry made positive.

    The pivot row stays as it is (negated if its entry is negative) and
    every other row becomes (row * p - row[pc] * prow) / den.  The division
    is exact (Edmonds 1967): every entry stays a minor of the initial
    integer matrix, and den the absolute determinant of the current basis.
    """
    prow = rows[pr]
    if prow[pc] < 0:
        prow[:] = [-v for v in prow]
    p = prow[pc]
    for row in (*rows, cost):
        if row is prow:
            continue
        f = row[pc]
        if f:
            row[:] = [(a * p - f * b) // den for a, b in zip(row, prow)]
        elif p != den:
            row[:] = [a * p // den for a in row]
    basis[pr] = pc
    return p


def _run_simplex(rows, cost, basis, den):
    """Bland's rule on a canonical integer tableau with denominator den;
    cost row is the z-row of a maximization (optimal when no negative
    reduced cost remains).  Returns the final denominator.

    The leaving row has the least ratio rhs/entry over the positive entries
    of the column, compared as cross products, and ties go to the smallest
    basic variable: the rule over Q, so the pivots are the same."""
    while True:
        pc = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
        if pc is None:
            return den
        pr = best = None
        for i, row in enumerate(rows):
            if row[pc] > 0 and (
                best is None or (row[-1] * best[pc] - best[-1] * row[pc], basis[i]) < (0, basis[pr])
            ):
                pr, best = i, row
        if pr is None:
            raise Unbounded()
        den = _pivot(rows, cost, basis, den, pr, pc)


def lp_maximize(
    objectives: Sequence[Sequence[int]],
    ineqs: Sequence[AffineForm],
    eqs: Sequence[AffineForm] = (),
) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """max objective . x subject to x >= 0, every ineq <= 0, every eq == 0,
    for each of the integer objectives over the one set.

    Phase 1 runs once.  Each objective's phase 2 starts from its own copy of
    the post-phase-1 tableau and basis, so its answer is the one a solve with
    that objective alone gives, whatever the other objectives are.  Returns
    one (optimum, witness point) per objective.  Raises Infeasible or
    Unbounded, and ValueError when the objectives and forms differ in arity.

    Forms and objectives are integers, so the tableau holds integers over one
    denominator (see _pivot), and Fractions appear only in the returned
    witnesses and optima.
    """
    objectives = [_integers(obj, "objective") for obj in objectives]
    if not objectives:
        raise ValueError("no objective: the variable count is the objectives' arity")
    r = len(objectives[0])
    arities = {len(v) for v in (*objectives, *(f.coeffs for f in (*ineqs, *eqs)))}
    if arities != {r}:
        raise ValueError("objectives and forms of arities %s in one problem" % sorted(arities))
    nslack = len(ineqs)
    rows = []
    for k, f in enumerate((*ineqs, *eqs)):
        row = list(f.coeffs) + [0] * nslack + [-f.const]
        if k < nslack:
            row[r + k] = 1
        rows.append(row)
    ncols = real = r + nslack  # artificial columns come after the real ones
    basis = [-1] * len(rows)
    for i, row in enumerate(rows):
        if row[-1] < 0:
            rows[i] = row = [-v for v in row]
        if i < nslack and row[r + i] == 1:
            basis[i] = r + i
    for i in range(len(rows)):
        if basis[i] == -1:
            for row2 in rows:
                row2.insert(-1, 0)
            rows[i][-2] = 1
            basis[i] = ncols
            ncols += 1
    # phase 1: maximize -(sum of artificials), over denominator 1
    cost = [0] * real + [1] * (ncols - real) + [0]
    for i, b in enumerate(basis):
        if b >= real:
            cost = [a - c for a, c in zip(cost, rows[i])]
    den = _run_simplex(rows, cost, basis, 1)
    if cost[-1] != 0:
        raise Infeasible()
    # drive remaining artificials out of the basis, then drop their columns
    # entirely so phase 2 can never pivot one back in
    keep = []
    for i in range(len(rows)):
        if basis[i] >= real:
            pc = next((j for j in range(real) if rows[i][j] != 0), None)
            if pc is None:
                continue  # redundant constraint: row is zero on real variables
            den = _pivot(rows, cost, basis, den, i, pc)
        keep.append(i)
    rows = [rows[i][:real] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    results = []
    for objective in objectives:
        # phase 2 pivots a copy: the next objective starts where this one did
        prows, pbasis = [row[:] for row in rows], basis[:]
        cost = [-c * den for c in objective] + [0] * (nslack + 1)
        for i, b in enumerate(pbasis):
            if cost[b] != 0:
                f = cost[b] // den
                cost = [a - f * v for a, v in zip(cost, prows[i])]
        pden = _run_simplex(prows, cost, pbasis, den)
        point = [Fraction(0)] * r
        for i, b in enumerate(pbasis):
            if b < r:
                point[b] = Fraction(prows[i][-1], pden)
        # the z-row's right-hand side is the optimum over pden
        results.append((Fraction(cost[-1], pden), tuple(point)))
    return results


def relative_interior_point(
    ineqs: Sequence[AffineForm], eqs: Sequence[AffineForm], width: int
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """A point with every non-implicit inequality strict, plus the indices of
    the implicit equalities among ineqs.  Raises Infeasible on an empty set.

    The point is an exact average of a feasible point and per-constraint
    max-slack witnesses, all from one lp_maximize call, so it lies in the
    relative interior of the feasible set.  Hence an inequality is strict
    somewhere on the set iff it is strict at the point: with the facets
    -x_i <= 0 among ineqs, the set has a point with every coordinate
    positive iff every coordinate of the point is positive.

    The slack objective of g is -g.coeffs, so g vanishes on the whole set
    iff its optimum is g.const, with no evaluation.
    """
    objectives = [(0,) * width] + [[-c for c in g.coeffs] for g in ineqs]
    (_, base), *slacks = lp_maximize(objectives, ineqs, eqs)
    witnesses = [base]
    implicit = []
    for k, (g, (opt, pt)) in enumerate(zip(ineqs, slacks)):
        if opt == g.const:
            implicit.append(k)  # g vanishes on the whole set
        else:
            witnesses.append(pt)
    den = lcm(*(v.denominator for w in witnesses for v in w))
    total = [sum(w[i].numerator * (den // w[i].denominator) for w in witnesses) for i in range(width)]
    centroid = tuple(Fraction(t, len(witnesses) * den) for t in total)
    return centroid, tuple(implicit)
