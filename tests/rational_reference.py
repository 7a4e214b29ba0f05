"""Row reduction and the simplex over Q, the references the integer
routines are checked against.

The library answers rank, span and containment questions with the Hermite
reducer in `quasiadj.ratgeom`; the functions here answer the same questions
by plain Gauss-Jordan elimination over fractions, an independent route.
A character's membership in a subtorus is tested here on its phases, one
Fraction dot product per equation reduced mod 1, against the library's
integer test on (order, exponents).
Likewise `lp_maximize` here is the two-phase simplex over fractions that the
library's integer tableau must match pivot for pivot.
"""

from fractions import Fraction

from quasiadj.ratgeom import Infeasible, Unbounded, rat_vector


def _rref(rows, ncols):
    """Reduced row echelon form over Q of the first ncols columns.

    Columns past ncols ride along.  Returns the matrix and its pivot columns;
    the pivot rows come first, and the rest vanish on the first ncols columns.
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        if len(pivots) == len(mat):
            break
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        prow = mat[rank] = [v / lead for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        pivots.append(col)
    return mat, pivots


def rational_rank(rows):
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def solve_row_combination(rows, target):
    """Rational coefficients c with sum_i c_i rows[i] = target, or None.

    Free coefficients are set to 0, so with independent rows the answer is
    the unique representation of target in the row space.
    """
    m = len(rows)
    aug = [[rows[i][j] for i in range(m)] + [target[j]] for j in range(len(target))]
    mat, pivots = _rref(aug, m)
    if any(row[-1] != 0 for row in mat[len(pivots):]):
        return None  # inconsistent: target outside the row space
    coeffs = [Fraction(0)] * m
    for row, col in zip(mat, pivots):
        coeffs[col] = row[-1]
    return coeffs


def subtorus_contains(outer, inner):
    """inner subset of outer, by writing each outer exponent vector in the
    basis of inner's (saturated) lattice over Q and matching phases."""
    if outer.nvars != inner.nvars:
        raise ValueError("ambient mismatch")
    inner_vectors = [list(v) for v, _ in inner.equations]
    for v, beta in outer.equations:
        coeffs = solve_row_combination(inner_vectors, list(v))
        if coeffs is None:
            return False
        # a saturated lattice holds every integer vector of its rational span
        assert all(c.denominator == 1 for c in coeffs)
        if sum(c * b for c, (_, b) in zip(coeffs, inner.equations)) % 1 != beta:
            return False
    return True


def _mod1(q):
    whole = q.numerator // q.denominator
    return q - whole if whole else q


def torus_contains_phases(torus, phases):
    """Whether the character with these phases (arg / 2 pi, any
    representatives mod 1) lies on the translated subtorus."""
    for v, beta in torus.equations:
        if _mod1(sum(Fraction(c) * Fraction(p) for c, p in zip(v, phases))) != beta:
            return False
    return True


# ---------------------------------------------------------------------------
# two-phase simplex over Q (variables implicitly >= 0)


def _pivot(rows, cost, basis, pr, pc):
    """Scale row pr to a unit pivot at column pc and clear column pc from
    every other row and from the cost row."""
    prow = rows[pr]
    piv = prow[pc]
    prow[:] = [v / piv for v in prow]
    for row in (*rows, cost):
        f = row[pc]
        if f and row is not prow:
            row[:] = [a - f * b for a, b in zip(row, prow)]
    basis[pr] = pc


def _run_simplex(rows, cost, basis):
    """Bland's rule on a canonical tableau; cost row is the z-row of a
    maximization (optimal when no negative reduced cost remains)."""
    while True:
        pc = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
        if pc is None:
            return
        ratios = [(rows[i][-1] / rows[i][pc], basis[i], i) for i in range(len(rows)) if rows[i][pc] > 0]
        if not ratios:
            raise Unbounded()
        _, _, pr = min(ratios)
        _pivot(rows, cost, basis, pr, pc)


def lp_maximize(objectives, ineqs, eqs=(), width=None):
    """max objective . x subject to x >= 0, every ineq <= 0, every eq == 0,
    for each of the objectives over the one set, with the same signature,
    outputs and exceptions as `quasiadj.ratgeom.lp_maximize`.

    Phase 1 runs once.  Each objective's phase 2 starts from its own copy of
    the post-phase-1 tableau and basis.
    """
    objectives = [rat_vector(obj) for obj in objectives]
    r = width if width is not None else len(objectives[0])
    if any(len(obj) != r for obj in objectives):
        raise ValueError("objective arity mismatch")
    nslack = len(ineqs)
    rows = []
    slack_col = lambda k: r + k
    for k, f in enumerate(ineqs):
        row = list(f.coeffs) + [Fraction(0)] * nslack + [-f.const]
        row[slack_col(k)] = Fraction(1)
        rows.append(row)
    for f in eqs:
        rows.append(list(f.coeffs) + [Fraction(0)] * nslack + [-f.const])
    ncols = r + nslack
    basis = [-1] * len(rows)
    art_cols = []
    for i, row in enumerate(rows):
        if row[-1] < 0:
            rows[i] = row = [-v for v in row]
        if i < nslack and row[slack_col(i)] == 1:
            basis[i] = slack_col(i)
    for i in range(len(rows)):
        if basis[i] == -1:
            for row2 in rows:
                row2.insert(-1, Fraction(0))
            rows[i][-2] = Fraction(1)
            basis[i] = ncols
            art_cols.append(ncols)
            ncols += 1
    # phase 1: maximize -(sum of artificials)
    cost = [Fraction(0)] * (ncols + 1)
    for j in art_cols:
        cost[j] = Fraction(1)
    for i, b in enumerate(basis):
        if b in art_cols:
            cost = [a - c for a, c in zip(cost, rows[i])]
    _run_simplex(rows, cost, basis)
    if -cost[-1] != 0:
        raise Infeasible()
    # drive remaining artificials out of the basis, then drop their columns
    # entirely so phase 2 can never pivot one back in
    keep = []
    for i in range(len(rows)):
        if basis[i] in art_cols:
            pc = next((j for j in range(r + nslack) if rows[i][j] != 0), None)
            if pc is None:
                continue  # redundant constraint: row is zero on real variables
            _pivot(rows, cost, basis, i, pc)
        keep.append(i)
    rows = [rows[i][: r + nslack] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    ncols = r + nslack
    results = []
    for objective in objectives:
        # phase 2 pivots a copy: the next objective starts where this one did
        prows, pbasis = [row[:] for row in rows], basis[:]
        cost = [Fraction(0)] * (ncols + 1)
        for j, c in enumerate(objective):
            cost[j] = -c
        for i, b in enumerate(pbasis):
            if cost[b] != 0:
                f = cost[b]
                cost = [a - f * v for a, v in zip(cost, prows[i])]
        _run_simplex(prows, cost, pbasis)
        point = [Fraction(0)] * r
        for i, b in enumerate(pbasis):
            if b < r:
                point[b] = prows[i][-1]
        results.append((sum(c * p for c, p in zip(objective, point)), tuple(point)))
    return results
