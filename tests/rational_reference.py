"""Row reduction over Q, the reference the integer lattice routines are
checked against.

The library answers rank, span and containment questions with the Hermite
reducer in `quasiadj.ratgeom`; the functions here answer the same questions
by plain Gauss-Jordan elimination over fractions, an independent route.
"""

from fractions import Fraction


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
