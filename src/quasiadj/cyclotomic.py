"""Exact cyclotomic arithmetic and Laurent polynomials.

Elements of Q(zeta_N) are coefficient vectors in Q[x]/Phi_N(x) with Fraction
entries; inversion runs the extended Euclidean algorithm against Phi_N.
Laurent polynomials (integer coefficients, exponent vectors in Z^r) carry
both the symbolic differentials of the chain complexes and the torus
invariant polynomial, and evaluate into any Q(zeta_N) containing the
character.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


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
    if n == 1:
        return (-1, 1)
    poly: tuple[int, ...] = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_poly_div(poly, cyclotomic_polynomial(d))
    return poly


def _poly_mod(coeffs: list[Fraction], modulus: Sequence[int]) -> list[Fraction]:
    deg = len(modulus) - 1
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(deg + 1):
                coeffs[k - deg + i] -= c * modulus[i]
        assert coeffs[k] == 0
    return coeffs[:deg] + [Fraction(0)] * (deg - len(coeffs))


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    out[i + j] += av * bv
    return out


class CyclotomicField:
    """Q(zeta_N) as Q[x] / Phi_N(x); elements are Fraction tuples."""

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        self.zero = (Fraction(0),) * self.degree
        one = [Fraction(0)] * self.degree
        one[0] = Fraction(1)
        self.one = tuple(one)
        powers = [self.one]
        for _ in range(order - 1):
            nxt = [Fraction(0)] + list(powers[-1])
            powers.append(tuple(_poly_mod(nxt, self.modulus)))
        self._zeta = powers

    def zeta(self, k: int) -> tuple[Fraction, ...]:
        return self._zeta[k % self.order]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def scale(self, a, q):
        return tuple(x * q for x in a)

    def mul(self, a, b):
        if not any(a) or not any(b):
            return self.zero
        return tuple(_poly_mod(_poly_mul(a, b), self.modulus))

    def is_zero(self, a) -> bool:
        return not any(a)

    def inv(self, a):
        """Inverse via extended Euclid against the (irreducible) modulus."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.order)
        r0 = [Fraction(c) for c in self.modulus]
        r1 = list(a)
        while r1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]  # coefficients of `a` in r0, r1
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                return tuple(_poly_mod([v / c for v in s1] + [Fraction(0)], self.modulus))
            q, rem = _poly_divmod(r0, r1)
            s_new = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, rem
            s0, s1 = s1, s_new


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    a = list(a)
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / lead
        q[k] = c
        if c:
            for i, bv in enumerate(b):
                a[k + i] -= c * bv
    return q, a[: len(b) - 1] or [Fraction(0)]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def matrix_rank(field: CyclotomicField, rows: Sequence[Sequence]) -> int:
    """Rank over Q(zeta_N) by exact Gaussian elimination."""
    mat = [list(row) for row in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if not field.is_zero(mat[i][col])), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, v) for v in mat[rank]]
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and not field.is_zero(mat[i][col]):
                f = mat[i][col]
                mat[i] = [field.sub(v, field.mul(f, p)) for v, p in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
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
                if coeff:
                    exps = tuple(int(e) for e in exps)
                    if len(exps) != nvars:
                        raise ValueError("exponent arity %d != %d" % (len(exps), nvars))
                    self.terms[exps] = self.terms.get(exps, 0) + int(coeff)
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

    def evaluate(self, field: CyclotomicField, phases: Sequence[Fraction]):
        """Value at t_i = zeta_N ** (N * phases[i]); N must clear denominators."""
        n = field.order
        mults = []
        for p in phases:
            p = Fraction(p)
            if (p * n).denominator != 1:
                raise ValueError("character phase %s has no order-%d realization" % (p, n))
            mults.append(int(p * n) % n)
        out = field.zero
        for exps, coeff in self.terms.items():
            k = sum(m * e for m, e in zip(mults, exps)) % n
            out = field.add(out, field.scale(field.zeta(k), Fraction(coeff)))
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
