"""Acceptance gate: eight end-to-end criteria, one test and one line each.

Run with -v to get the per-criterion pass/fail lines from the test names;
each test also prints a one-line verdict for -s runs.
"""

import io
import itertools
import random
import time
from fractions import Fraction
from math import comb

from quasiadj import (
    ORACLE,
    PRINCIPAL,
    CharacterPoint,
    CyclotomicField,
    QuasiArray,
    betti_unbranched,
    composition_is_zero,
    cone_over,
    delete_component,
    diagonal_character,
    faces_of_quasiadjunction,
    generic_arrangement,
    lct_face,
    membership,
    milnor_fiber,
    multiplier_ideal_membership,
    on_support,
    oracle_f,
    principal_components,
    principal_f,
    torsion_characters,
    truncated_koszul,
)
from quasiadj.ratgeom import integer_kernel
from quasiadj.resolution import load_resolution, serialize_resolution

from rational_reference import rational_rank

F = Fraction


def test_criterion_1_arrangement_support_sweep():
    started = time.monotonic()
    data = generic_arrangement(4, 2)
    comps = principal_components(data)
    assert len(comps) == 1
    assert comps[0].torus.equations == (((1, 1, 1, 1), F(0)),)  # t1 t2 t3 t4 = 1
    for order in (3, 4):
        count = 0
        for chi in torsion_characters((order,) * 4):
            count += 1
            f = oracle_f(4, 2, chi.phases)
            assert (f > 0) == (sum(chi.phases) % 1 == 0)
            assert (f > 0) == comps[0].contains(chi)
            if not chi.is_trivial():
                assert principal_f(chi, comps) == f
        assert count == order ** 4
    assert time.monotonic() - started < 60
    print("criterion 1 PASS: order 3 and 4 sweeps match the torus t1*t2*t3*t4 = 1")


def test_criterion_2_cone_geometry_and_degree_law():
    data = cone_over((2, 3), 2, 3)
    for face in faces_of_quasiadjunction(data):
        assert len(face.span) == 1
        (v, level), = face.span
        assert v == (2, 3)
        assert level.denominator == 1 and level > 0
    comps = principal_components(data)
    assert len(comps) == 1
    assert comps[0].torus.equations == (((2, 3), F(0)),)
    by_degree = {}
    for germ in data.germs:
        by_degree.setdefault(germ.degree, []).append(germ.label)
    arrays = [
        QuasiArray(j, m)
        for m in itertools.product(range(1, 7), repeat=2)
        for j in itertools.product(range(m[0]), range(m[1]))
    ]
    for labels in by_degree.values():
        reference = labels[0]
        for q in arrays:
            expected = membership(data, reference, q).in_ideal
            for label in labels[1:]:
                assert membership(data, label, q).in_ideal == expected
    print("criterion 2 PASS: faces on 2x1+3x2 = L, torus t1^2*t2^3 = 1, membership is a degree law")


def test_criterion_3_cover_ranks_below_top_degree():
    for r in range(1, 7):
        for n in range(1, 5):
            data = generic_arrangement(r, n)
            comps = principal_components(data)
            low_ranks = set()
            for m in itertools.product((1, 2, 3), repeat=r):
                table = betti_unbranched(data, m, components=comps)
                assert table.ranks[:n] == tuple(comb(r, p) for p in range(n))
                low_ranks.add(table.ranks[:n])
            assert len(low_ranks) == 1  # independent of m
    print("criterion 3 PASS: ranks[p] = C(r, p) for p < n across r <= 6, n <= 4, all m <= 3")


def test_criterion_4_milnor_fiber():
    for r, n in ((4, 2), (5, 2), (5, 3), (6, 4)):
        table = milnor_fiber(generic_arrangement(r, n), 2, f_mode=ORACLE)
        for p in range(1, n):
            assert table.ranks[p] == comb(r - 1, p)
    table = milnor_fiber(generic_arrangement(4, 2), 4, f_mode=ORACLE)
    for omega in (F(1, 2), F(1, 4), F(3, 4)):  # -1, i, -i
        assert table.multiplicities[omega] == 1
        assert oracle_f(4, 2, diagonal_character(omega, 4).phases) == 1
    assert table.unresolved_at_1
    print("criterion 4 PASS: ranks[p] = C(r-1, p), m_omega = 1 at -1, i, -i, t = 1 flagged")


def test_criterion_5_multiplier_ideal_identity():
    rng = random.Random(20260816)
    families = [cone_over(deg, n, b) for deg in ((2, 3), (2, 4), (3, 3, 3), (1, 1, 1, 1))
                for n in (2, 3) for b in (0, 2)]
    for _ in range(100):
        data = rng.choice(families)
        germ = rng.choice(data.germs)
        m = tuple(rng.randint(1, 6) for _ in range(data.r))
        j = tuple(rng.randrange(v) for v in m)
        q = QuasiArray(j, m)
        gamma = tuple(1 - F(jj + 1, mm) for jj, mm in zip(j, m))
        assert multiplier_ideal_membership(data, germ, gamma) == membership(data, germ, q).in_ideal
    print("criterion 5 PASS: multiplier ideal membership matches strict membership on 100 random pairs")


def test_criterion_6_lct_diagonal():
    for r, n in ((4, 2), (5, 2), (5, 3)):
        assert r > n + 1
        gamma = F(n + 1, r)
        assert lct_face(generic_arrangement(r, n)).contains_gamma((gamma,) * r)
    print("criterion 6 PASS: lct boundary contains the diagonal (n+1)/r for (4,2), (5,2), (5,3)")


def test_criterion_7_essentiality_slices():
    families = [cone_over((1, 1, 1, 1, 1), 2, 0), cone_over((2, 3, 4), 2, 0), cone_over((2, 2, 3), 2, 1)]
    for data in families:
        full = principal_components(data)
        for index in range(data.r):
            sub = delete_component(data, index)
            torsion = set(torsion_characters((3,) * sub.r)) | set(torsion_characters((4,) * sub.r))
            for comp in principal_components(sub):
                for chi in torsion:  # every point of order <= 4 lies in one sweep
                    if comp.contains(chi):
                        extended = CharacterPoint.from_phases(chi.phases[:index] + (F(0),) + chi.phases[index:])
                        assert any(c.contains(extended) for c in full)
    print("criterion 7 PASS: deleted-branch components extend by phase 0 into full-family components")


def test_criterion_8_structural_invariants():
    # boundary-of-boundary vanishes for every generated complex
    for r in range(1, 7):
        for n in range(0, min(r, 4) + 1):
            assert composition_is_zero(truncated_koszul(r, n))

    rng = random.Random(88)

    # exact linear algebra: kernels are orthogonal complements
    for _ in range(1000):
        width = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(0, 3))]
        ker = integer_kernel(rows, width)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for v in ker for row in rows)
        assert len(ker) == width - rational_rank([[F(a) for a in row] for row in rows])

    # document model: serialization is the identity on loaded data
    for _ in range(1000):
        data = cone_over(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3))),
                         rng.randint(1, 3), rng.randint(0, 1))
        assert load_resolution(_as_stream(serialize_resolution(data))) == data

    # membership: strict implies weak, and the two routes agree
    cone = cone_over((2, 3), 2, 2)
    for _ in range(1000):
        m = tuple(rng.randint(1, 6) for _ in range(2))
        q = QuasiArray(tuple(rng.randrange(v) for v in m), m)
        label = rng.choice(cone.germs).label
        verdict = membership(cone, label, q)
        assert not verdict.in_ideal or verdict.in_log_ideal
        gamma = tuple(1 - x for x in q.x_point())
        assert multiplier_ideal_membership(cone, label, gamma) == verdict.in_ideal

    # cyclotomic arithmetic: ring axioms and no zero divisors
    for _ in range(1000):
        field = CyclotomicField(rng.randint(1, 10))
        a = tuple(rng.randint(-3, 3) for _ in range(field.degree))
        b = tuple(rng.randint(-3, 3) for _ in range(field.degree))
        c = tuple(rng.randint(-3, 3) for _ in range(field.degree))
        assert field.mul(field.add(a, b), c) == field.add(field.mul(a, c), field.mul(b, c))
        if not field.is_zero(a) and not field.is_zero(b):
            assert not field.is_zero(field.mul(a, b))

    # characters: normalization and conjugation symmetry of containment
    arr_comps = principal_components(generic_arrangement(4, 2))
    for _ in range(1000):
        chi = CharacterPoint.from_phases(tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6)))
                                               for _ in range(4)))
        assert all(0 <= p < 1 for p in chi.phases)
        for comp in arr_comps:
            assert comp.contains(chi) == comp.contains(chi.conjugate())

    # oracle: conjugation invariance of homology ranks
    for _ in range(1000):
        r = rng.randint(2, 4)
        n = rng.randint(1, r - 1)
        chi = CharacterPoint.from_phases(tuple(F(rng.randint(0, 5), rng.choice((1, 2, 3, 6)))
                                               for _ in range(r)))
        assert oracle_f(r, n, chi.phases) == oracle_f(r, n, chi.conjugate().phases)

    # covers: every table sums over exactly prod(m) characters
    for _ in range(1000):
        r = rng.randint(1, 3)
        data = generic_arrangement(r, rng.randint(1, 2))
        m = tuple(rng.randint(1, 3) for _ in range(r))
        table = betti_unbranched(data, m)
        expected = 1
        for v in m:
            expected *= v
        assert table.audit["characters"] == expected
        assert table.ranks[-1] >= 0

    print("criterion 8 PASS: d o d = 0 up to r = 6, n = 4; 7 x 1000 randomized module invariants hold")


def _as_stream(text):
    return io.StringIO(text)
