"""Exact cyclotomic arithmetic and Laurent polynomials, all in integers.

Phi_N is monic, so Z[x]/Phi_N(x) = Z[zeta_N] is closed under reduction, and
its elements are int coefficient tuples.  Every value the Koszul oracle
evaluates lies in that ring, and ranks over Q(zeta_N) come from Bareiss's
fraction-free elimination, whose exact divisions go through the norm: no
element is ever inverted.  Laurent polynomials (integer coefficients,
exponent vectors in Z^r) carry both the symbolic differentials of the chain
complexes and the torus invariant polynomial, and evaluate into any
Z[zeta_N] containing the character.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from . import work


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints, refusing a Fraction, float or bool: the
    oracle side's int check, apart from ratgeom's so the routes share none."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError("%s %r rejected; integers only" % (what, v))
    return values


def _exact_poly_div(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Quotient of integer polynomials known to divide exactly (den monic)."""
    num = list(num)
    assert den[-1] == 1
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, dv in enumerate(den):
                num[k + i] -= c * dv
    assert not any(num), "division was not exact"
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first: Phi_1 = (-1, 1)."""
    if n < 1:
        raise ValueError("order %d < 1" % n)
    poly: tuple[int, ...] = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_poly_div(poly, cyclotomic_polynomial(d))
    return poly


def _poly_mod(coeffs: list[int], modulus: Sequence[int]) -> list[int]:
    deg = len(modulus) - 1
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(deg + 1):
                coeffs[k - deg + i] -= c * modulus[i]
        assert coeffs[k] == 0
    return coeffs[:deg] + [0] * (deg - len(coeffs))


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    out[i + j] += av * bv
    return out


class CyclotomicField:
    """Q(zeta_N), computed in its ring of integers Z[x] / Phi_N(x).

    Elements are int tuples of length phi(N), low degree first.  The ring
    has no zero divisors, which is all the fraction-free rank needs; there
    is no inverse.
    """

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + self.zero[1:]
        powers = [self.one]
        for _ in range(order - 1):
            powers.append(tuple(_poly_mod([0, *powers[-1]], self.modulus)))
        self._zeta = powers

    def zeta(self, k: int) -> tuple[int, ...]:
        return self._zeta[k % self.order]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        if not any(a) or not any(b):
            return self.zero
        return tuple(_poly_mod(_poly_mul(a, b), self.modulus))

    def is_zero(self, a) -> bool:
        return not any(a)


def _exact_divider(field: CyclotomicField, b):
    """The map x -> x / b on multiples x of b in Z[zeta_N].

    With c the product of the conjugates sigma_j(b) (zeta -> zeta^j, 1 < j < N,
    gcd(j, N) = 1), b * c is the norm of b, a nonzero integer, so x / b is
    x * c divided coefficientwise by the norm, exactly.  Its phi - 1
    products of degree phi are charged to MAX_SWEEP_WORK first.
    """
    work.charge("MAX_SWEEP_WORK", (field.degree - 1) * field.degree ** 2)
    n = field.order
    c = field.one
    for j in range(2, n):
        if gcd(j, n) == 1:
            conj = field.zero
            for i, v in enumerate(b):
                if v:
                    conj = field.add(conj, tuple(v * z for z in field.zeta(i * j)))
            c = field.mul(c, conj)
    norm, *rest = field.mul(b, c)
    assert norm and not any(rest)

    def divide(x):
        out = []
        for v in field.mul(x, c):
            q, r = divmod(v, norm)
            assert r == 0, "Bareiss division was not exact"
            out.append(q)
        return tuple(out)

    return divide


def matrix_rank(field: CyclotomicField, rows: Sequence[Sequence]) -> int:
    """Rank over Q(zeta_N) by Bareiss's fraction-free elimination in Z[zeta_N].

    Rows are swapped to bring up a pivot, and a column without one is
    skipped.  Every row below the pivot p becomes (p*row - row[col]*prow)
    divided by the previous pivot.  Each entry is then a minor of the input
    (Sylvester's identity), so the division is exact and entries stay as
    large as minors, not growing with every step as without the division.
    """
    mat = [list(row) for row in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    mul, sub = field.mul, field.sub
    rank = 0
    prev = None  # the previous pivot; the first step divides by the empty minor, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if any(mat[i][col])), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        p = prow[col]
        below = mat[rank + 1 :] if col + 1 < ncols else []  # the rows this step updates
        divide = _exact_divider(field, prev) if below and prev is not None else None
        for row in below:
            f = row[col]
            for j in range(col + 1, ncols):
                v = sub(mul(p, row[j]), mul(f, prow[j]))
                row[j] = divide(v) if divide else v
        rank += 1
        if rank == len(mat):
            break
        prev = p
    return rank


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in nvars torus variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                _integers((coeff, *exps), "Laurent term entry")
                if len(exps) != nvars:
                    raise ValueError("exponent arity %d != %d" % (len(exps), nvars))
                self.terms[exps] = self.terms.get(exps, 0) + coeff
            self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): coeff})

    @classmethod
    def variable(cls, i, nvars):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = LaurentPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), reverse=True)

    def evaluate(self, field: CyclotomicField, exponents: Sequence[int]):
        """Value at t_i = zeta_N ** exponents[i], an element of Z[zeta_N]."""
        out = field.zero
        for exps, coeff in self.terms.items():
            z = field.zeta(sum(k * e for k, e in zip(exponents, exps)))
            out = field.add(out, tuple(coeff * v for v in z))
        return out

    def normalized(self):
        """Shift exponents so each variable's minimum is 0; make the lex
        leading coefficient positive.  The unit-monomial ambiguity of a
        Laurent-ring generator is fixed this way."""
        if not self.terms:
            return self
        mins = [min(e[i] for e in self.terms) for i in range(self.nvars)]
        shifted = {tuple(a - b for a, b in zip(e, mins)): c for e, c in self.terms.items()}
        lead = max(shifted)
        if shifted[lead] < 0:
            shifted = {e: -c for e, c in shifted.items()}
        return LaurentPoly(self.nvars, shifted)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                "t%d" % (i + 1) if e == 1 else "t%d^%d" % (i + 1, e)
                for i, e in enumerate(exps)
                if e
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%d*%s" % (mag, mono)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__


def cyclotomic_in_monomial(order: int, exps: Sequence[int]) -> LaurentPoly:
    """Phi_order evaluated at the Laurent monomial t^exps."""
    nvars = len(exps)
    out = LaurentPoly.zero(nvars)
    for k, coeff in enumerate(cyclotomic_polynomial(order)):
        if coeff:
            out = out + LaurentPoly.monomial(tuple(k * e for e in exps), coeff)
    return out


def cyclotomic_product(nvars: int, factors) -> LaurentPoly:
    """prod Phi_order(t^exps) ** power over (order, exps, power) in factors, normalized."""
    out = LaurentPoly.constant(nvars, 1)
    for order, exps, power in factors:
        out = out * (cyclotomic_in_monomial(order, exps) ** power)
    return out.normalized()
