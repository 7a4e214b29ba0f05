"""Exact cyclotomic arithmetic, Laurent polynomials, and matrix rank."""

import random
from fractions import Fraction

import pytest

from quasiadj import cyclotomic
from quasiadj.cyclotomic import (
    CyclotomicField,
    LaurentPoly,
    cyclotomic_in_monomial,
    cyclotomic_polynomial,
    matrix_rank,
)
from quasiadj.koszul import evaluate_at, truncated_koszul
from rational_reference import rational_rank


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_power_minus_one():
    # prod over d | n of Phi_d = x^n - 1, checked exactly
    for n in range(1, 31):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_field_axioms_property_randomized():
    rng = random.Random(111)
    for _ in range(1000):
        order = rng.randint(1, 12)
        field = CyclotomicField(order)

        def rand_elt():
            return tuple(rng.randint(-3, 3) for _ in range(field.degree))

        a, b, c = rand_elt(), rand_elt(), rand_elt()
        left = field.mul(field.add(a, b), c)
        right = field.add(field.mul(a, c), field.mul(b, c))
        assert left == right
        # no zero divisors: what the fraction-free rank relies on
        if not field.is_zero(a) and not field.is_zero(b):
            assert not field.is_zero(field.mul(a, b))
        assert field.mul(field.zeta(1), field.zeta(order - 1)) == field.one


def test_zeta_powers_sum_to_zero():
    for order in (2, 3, 4, 5, 6, 8, 12):
        field = CyclotomicField(order)
        total = field.zero
        for k in range(order):
            total = field.add(total, field.zeta(k))
        assert field.is_zero(total)


def test_matrix_rank_known():
    q = CyclotomicField(1)
    assert matrix_rank(q, []) == 0
    one, zero = q.one, q.zero
    assert matrix_rank(q, [[one, zero], [zero, one]]) == 2
    assert matrix_rank(q, [[one, one], [one, one]]) == 1
    gauss = CyclotomicField(4)
    i = gauss.zeta(1)
    # rows (1, i) and (i, -1) are proportional over Q(i)
    assert matrix_rank(gauss, [[gauss.one, i], [i, gauss.zeta(2)]]) == 1


def test_matrix_rank_builds_a_divider_only_for_a_step_that_uses_it(monkeypatch):
    calls = []
    real = cyclotomic._exact_divider

    def counting(field, b):
        calls.append(b)
        return real(field, b)

    monkeypatch.setattr(cyclotomic, "_exact_divider", counting)
    field = CyclotomicField(401)
    one, zeta = field.one, field.zeta(1)
    # a d_1 column: one pivot and no later column to divide
    assert matrix_rank(field, [[field.sub(zeta, one)], [field.sub(field.zeta(2), one)]]) == 1
    assert matrix_rank(field, [[zeta], [one], [zeta]]) == 1
    assert calls == []
    # identity: only the middle pivot's step updates an entry (the last row's
    # last column), and it divides by the first pivot
    q = CyclotomicField(1)
    eye = [[q.one if i == j else q.zero for j in range(3)] for i in range(3)]
    assert matrix_rank(q, eye) == 3
    assert calls == [q.one]


def test_matrix_rank_property_randomized():
    rng = random.Random(222)
    field = CyclotomicField(4)
    for _ in range(1000):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)

        def rand_elt():
            return tuple(rng.randint(-2, 2) for _ in range(field.degree))

        rows = [[rand_elt() for _ in range(ncols)] for _ in range(nrows)]
        rank = matrix_rank(field, rows)
        assert 0 <= rank <= min(nrows, ncols)
        transpose = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
        assert matrix_rank(field, transpose) == rank
        # appending a row combination never raises the rank
        weights = [rng.randint(-2, 2) for _ in range(nrows)]
        combo = [
            tuple(sum(w * rows[i][j][t] for i, w in enumerate(weights)) for t in range(field.degree))
            for j in range(ncols)
        ]
        assert matrix_rank(field, rows + [combo]) == rank


def test_laurent_poly_algebra():
    t1 = LaurentPoly.variable(0, 2)
    t2 = LaurentPoly.variable(1, 2)
    one = LaurentPoly.constant(2, 1)
    assert (t1 - one) * (t1 + one) == t1 ** 2 - one
    assert str(t1 ** 2 * t2 ** 3 - one) == "t1^2*t2^3 - 1"
    assert cyclotomic_in_monomial(2, (1, 2)) == t1 * t2 ** 2 + one


def test_laurent_poly_refuses_non_integers():
    # a non-int coefficient or exponent is refused, not truncated by int()
    for terms in ({(1,): 0.5}, {(1,): Fraction(3, 2)}, {(1,): Fraction(2)}, {(1,): True},
                  {(1.0,): 1}, {(True,): 1}):
        with pytest.raises(TypeError, match="integers"):
            LaurentPoly(1, terms)
    with pytest.raises(TypeError, match="integers"):
        LaurentPoly.monomial((2.9,), 1)
    assert LaurentPoly(1, {(1,): 0}).is_zero()


def test_laurent_evaluate_is_multiplicative_property():
    rng = random.Random(333)
    field = CyclotomicField(12)
    for _ in range(1000):
        nvars = rng.randint(1, 3)

        def rand_poly():
            poly = LaurentPoly.zero(nvars)
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(-2, 2) for _ in range(nvars))
                poly = poly + LaurentPoly.monomial(exps, rng.randint(-3, 3))
            return poly

        p, q = rand_poly(), rand_poly()
        k = tuple(rng.randint(0, 11) for _ in range(nvars))
        lhs = (p * q).evaluate(field, k)
        rhs = field.mul(p.evaluate(field, k), q.evaluate(field, k))
        assert lhs == rhs


def test_laurent_normalized():
    t1 = LaurentPoly.variable(0, 1)
    poly = LaurentPoly.monomial((-2,), -1) + LaurentPoly.monomial((1,), 1)
    norm = poly.normalized()
    # min exponent shifted to 0, leading coefficient positive
    assert norm == t1 ** 3 - LaurentPoly.constant(1, 1)
    assert min(e[0] for e in norm.terms) == 0
    flipped = (LaurentPoly.constant(1, 1) - t1).normalized()
    assert flipped == t1 - LaurentPoly.constant(1, 1)


def _regular_representation(field, rows):
    """Each entry a becomes its phi(N) x phi(N) multiplication block: row j of
    the block holds the coefficients of a * zeta^j."""
    basis = [field.zeta(j) for j in range(field.degree)]
    out = []
    for row in rows:
        blocks = [[field.mul(a, z) for z in basis] for a in row]
        for j in range(field.degree):
            out.append([c for block in blocks for c in block[j]])
    return out


def test_matrix_rank_matches_regular_representation_property():
    # the Q-rank of the regular representation is phi(N) times the rank
    # over Q(zeta_N), an independent route through rational elimination;
    # sizes shrink as phi(N) grows to bound the rational elimination
    rng = random.Random(444)
    cases = []
    for order in range(1, 61):
        degree = CyclotomicField(order).degree
        for _ in range(30 if degree <= 8 else 8 if degree <= 16 else 1):
            params = rng.randint(1, max(1, min(4, 24 // degree)))
            top = rng.randint(1, min(params, 2))
            # exponent 1 first, so the character has exactly this order
            exponents = [1] + [rng.choice((0, rng.randrange(order))) for _ in range(params - 1)]
            rng.shuffle(exponents)
            field, mats = evaluate_at(truncated_koszul(params, top), order, exponents)
            cases.extend((field, mats[p]) for p in mats)
    for _ in range(1200):
        field = CyclotomicField(rng.randint(1, 12))
        size = min(6, 12 // field.degree)
        nrows, ncols = rng.randint(1, size), rng.randint(1, size)

        def rand_elt():
            if rng.random() < 0.3:
                return field.zero
            return tuple(rng.randint(-2, 2) for _ in range(field.degree))

        rows = [[rand_elt() for _ in range(ncols)] for _ in range(nrows)]
        weights = [rand_elt() for _ in range(nrows)]
        dependent = []
        for j in range(ncols):
            total = field.zero
            for w, row in zip(weights, rows):
                total = field.add(total, field.mul(w, row[j]))
            dependent.append(total)
        cases.append((field, rows + [dependent]))
    field = CyclotomicField(3)
    cases.append((field, [[tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(20)] for _ in range(20)]))
    assert len(cases) >= 2000
    deficient = 0
    for field, rows in cases:
        rank = matrix_rank(field, rows)
        assert field.degree * rank == rational_rank(_regular_representation(field, rows))
        deficient += rank < min(len(rows), len(rows[0]))
    assert deficient >= 500
