"""Membership verdicts, faces of quasiadjunction, and the lct boundary."""

import random
from fractions import Fraction

import pytest

from quasiadj.quasiadjunction import (
    constraint_form,
    faces_of_quasiadjunction,
    faces_stabilized,
    lct_face,
    membership,
    multiplier_ideal_membership,
    weight_witnesses,
)
import quasiadj.quasiadjunction as quasiadjunction
import quasiadj.ratgeom as ratgeom
from quasiadj.resolution import (
    GermBasisElement,
    QuasiArray,
    ResolutionData,
    cone_over,
    generic_arrangement,
    load_resolution,
)

from rational_reference import rational_rank

F = Fraction


def face_key(face):
    return tuple((v, b) for v, b in face.span)


def test_membership_interior_and_boundary():
    data = cone_over((2, 3), 2, 3)
    interior = membership(data, "1", QuasiArray((1, 1), (2, 2)))
    assert interior.in_ideal and interior.in_log_ideal and interior.weight == 0
    boundary = membership(data, "1", QuasiArray((0, 0), (2, 3)))  # 2x1+3x2 = 2 exactly
    assert not boundary.in_ideal
    assert boundary.in_log_ideal
    assert boundary.weight == 1
    assert boundary.tight_exceptional == ("E0",)
    outside = membership(data, "1", QuasiArray((0, 0), (6, 6)))   # 2/6+3/6 < 2
    assert not outside.in_log_ideal


def test_membership_accepts_label_or_germ():
    data = cone_over((2, 3), 2, 2)
    q = QuasiArray((0, 0), (2, 2))
    assert membership(data, "x0", q) == membership(data, data.germ("x0"), q)


def test_multiplier_ideal_matches_strict_membership():
    data = cone_over((2, 3), 2, 3)
    q = QuasiArray((0, 1), (3, 4))
    gamma = tuple(1 - x for x in q.x_point())
    assert multiplier_ideal_membership(data, "1", gamma) == membership(data, "1", q).in_ideal
    with pytest.raises(TypeError):
        multiplier_ideal_membership(data, "1", (0.25, 0.5))


def test_cone_faces_exact():
    data = cone_over((2, 3), 2, 3)
    faces = faces_of_quasiadjunction(data)
    assert [face_key(f) for f in faces] == [(((2, 3), F(1)),), (((2, 3), F(2)),)]
    assert [f.dim for f in faces] == [1, 1]
    assert [f.labels for f in faces] == [{1: 3}, {1: 1}]
    for f in faces:
        assert f.contains(f.sample)
        assert all(v > 0 for v in f.sample)


def test_arrangement_faces_exact():
    faces = faces_of_quasiadjunction(generic_arrangement(4, 2))
    assert len(faces) == 1
    assert face_key(faces[0]) == (((1, 1, 1, 1), F(1)),)
    assert faces[0].dim == 3
    assert faces[0].labels == {1: 1}


def test_point_faces_of_one_variable_cone():
    # germ of degree e jumps at x = (4 - e)/6; quotient counts e+1 monomials
    faces = faces_of_quasiadjunction(cone_over((6,), 1, 3))
    table = {f.sample[0]: f.labels[1] for f in faces}
    assert table == {F(1, 6): 4, F(1, 3): 3, F(1, 2): 2, F(2, 3): 1}
    assert all(f.dim == 0 for f in faces)


def test_nonpositive_faces_are_dropped():
    # (2, 3) at bound 3 admits no face on 2x1 + 3x2 = 0 inside (0, 1]^2
    for f in faces_of_quasiadjunction(cone_over((2, 3), 2, 3)):
        for _, beta in f.span:
            assert beta != 0


def test_quotient_dims_on_face():
    data = cone_over((2, 3), 2, 3)
    assert len(weight_witnesses(data, (F(1, 2), F(1, 3)))[1]) == 1   # on 2x1+3x2 = 2
    assert len(weight_witnesses(data, (F(1, 4), F(1, 6)))[1]) == 3   # on 2x1+3x2 = 1


def test_lct_values():
    assert lct_face(cone_over((2, 3), 2)).gamma == F(3, 5)
    lct = lct_face(generic_arrangement(4, 2))
    assert lct.gamma == F(3, 4)
    assert lct.contains_gamma((F(3, 4),) * 4)
    assert not lct.contains_gamma((F(1, 4),) * 4)


def test_faces_stabilized():
    assert faces_stabilized(cone_over((2, 3), 2, 3))
    assert not faces_stabilized(cone_over((2, 3), 2, 0))

    def two_searches(degrees, n, bound):
        key = lambda data: sorted(
            (f.span, tuple(sorted(f.labels.items()))) for f in faces_of_quasiadjunction(data))
        return key(cone_over(degrees, n, bound)) == key(cone_over(degrees, n, bound + 1))

    grid = [((d,), n, b) for d in range(1, 8) for n in (1, 2, 3) for b in range(4)]
    grid += [((d1, d2), n, b) for d1 in (1, 3, 5) for d2 in (1, 2, 4) for n in (1, 2) for b in range(3)]
    grid += [((2, 1, 3), 1, b) for b in range(4)] + [((1, 1, 1), 2, b) for b in range(2)]
    for degrees, n, bound in grid:
        assert faces_stabilized(cone_over(degrees, n, bound)) == two_searches(degrees, n, bound), (degrees, n, bound)


def test_germs_with_equal_valuations_share_one_search(monkeypatch):
    # lp_maximize calls count region solves: one per mask of each search
    calls = []
    inner = ratgeom.lp_maximize

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ratgeom, "lp_maximize", counted)
    monkeypatch.setattr(quasiadjunction, "lp_maximize", counted)
    data = cone_over((2, 3, 4), 2, 1)
    faces = faces_of_quasiadjunction(data)
    before = len(calls)
    # y repeats the valuation vector of the degree-one monomials
    twin = GermBasisElement("y", 1, (("E0", 1),))
    more = ResolutionData(data.r, data.n, data.component_names, data.exceptional,
                          data.incidence, data.germs + (twin,), None)
    del calls[:]
    again = faces_of_quasiadjunction(more)
    assert len(calls) == before > 0
    assert [(f.span, f.sample, f.dim) for f in again] == [(f.span, f.sample, f.dim) for f in faces]
    for old, new in zip(faces, again):
        extra = ("y",) if "x0" in old.germ_labels else ()
        assert new.germ_labels == old.germ_labels + extra


def test_face_search_solves_each_region_once(monkeypatch):
    # one lp_maximize call per mask tried, two per candidate comparison
    calls, comparisons = [], []
    inner_lp, inner_same = ratgeom.lp_maximize, quasiadjunction._same_face

    def counted_lp(*args, **kwargs):
        calls.append(1)
        return inner_lp(*args, **kwargs)

    def counted_same(*args):
        comparisons.append(inner_same(*args))
        return comparisons[-1]

    monkeypatch.setattr(ratgeom, "lp_maximize", counted_lp)
    monkeypatch.setattr(quasiadjunction, "lp_maximize", counted_lp)
    monkeypatch.setattr(quasiadjunction, "_same_face", counted_same)
    data = load_resolution("""\
r: 3
n: 2
exceptional:
- {id: E1, a: [1, 2, 0], c: 1}
- {id: E2, a: [0, 1, 2], c: 1}
- {id: E3, a: [2, 2, 2], c: 2}
- {id: E4, a: [0, 3, 3], c: 3}
incidence: [[E1, E2], [E2, E3], [E3, E4]]
germs:
- {label: g1, degree: 2, e: {E1: 2}}
- {label: g2, degree: 2, e: {E2: 2, E3: 1, E4: 2}}
""")
    faces = faces_of_quasiadjunction(data)
    systems = {tuple(constraint_form(exc, g) for exc in data.exceptional) for g in data.germs}
    masks = len(systems) * (2 ** len(data.exceptional) - 1)
    assert faces and True in comparisons and False in comparisons
    assert len(calls) == masks + 2 * len(comparisons)


def test_constraint_form_normalization():
    data = cone_over((2, 3), 2, 1)
    form = constraint_form(data.exceptional[0], data.unit_germ)
    # a . (1 - x) <= e + c + 1 in "<= 0" shape
    assert form.coeffs == (F(-2), F(-3))
    assert form.const == 2 + 3 - (0 + 2 + 1)


def test_membership_property_randomized():
    rng = random.Random(808)
    data = cone_over((2, 3), 2, 3)
    labels = [g.label for g in data.germs]
    for _ in range(1000):
        label = rng.choice(labels)
        m = tuple(rng.randint(1, 6) for _ in range(2))
        j = tuple(rng.randrange(v) for v in m)
        q = QuasiArray(j, m)
        verdict = membership(data, label, q)
        # strict membership implies weak membership
        assert not verdict.in_ideal or verdict.in_log_ideal
        # weight is attached exactly to the boundary stratum
        assert (verdict.weight > 0) == (verdict.in_log_ideal and not verdict.in_ideal)
        gamma = tuple(1 - x for x in q.x_point())
        assert multiplier_ideal_membership(data, label, gamma) == verdict.in_ideal


def test_face_geometry_property_randomized():
    rng = random.Random(909)
    cases = 0
    while cases < 1000:
        r = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 4) for _ in range(r))
        n = rng.randint(1, 3)
        bound = rng.randint(0, 2)
        data = cone_over(degrees, n, bound)
        for face in faces_of_quasiadjunction(data):
            assert face.dim == data.r - rational_rank([[F(c) for c in v] for v, _ in face.span])
            for v, beta in face.span:
                assert sum(F(c) * s for c, s in zip(v, face.sample)) == beta
            assert all(0 < s <= 1 for s in face.sample)
            assert face.labels and all(k >= 1 for k in face.labels.values())
            cases += 1
        cases += 1  # faceless inputs still count as a tested case
