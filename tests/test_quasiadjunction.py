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
import quasiadj.cli as cli
import quasiadj.quasiadjunction as quasiadjunction
import quasiadj.ratgeom as ratgeom
from quasiadj.ratgeom import Infeasible, cube_bounds, integer_kernel, relative_interior_point, span_equations
from quasiadj.resolution import (
    GermBasisElement,
    QuasiArray,
    ResolutionData,
    cone_over,
    generic_arrangement,
    load_resolution,
)

import rational_reference
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
    # lp_maximize calls count region solves: one per mask each search solves
    calls, _ = _count_solves(monkeypatch)
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


def _systems(data):
    """Constraint systems of the germs, each with its germ labels."""
    systems = {}
    for germ in data.germs:
        systems.setdefault(tuple(constraint_form(exc, germ) for exc in data.exceptional), []).append(germ.label)
    return systems


def _walk_count(data):
    """Masks the walk solves: those with no infeasible one-bit-smaller mask,
    a skipped mask counting as infeasible, found with the reference simplex."""
    r, nexc = data.r, len(data.exceptional)
    count = 0
    for forms in _systems(data):
        infeasible = set()
        for mask in range(1, 1 << nexc):
            if any(mask >> i & 1 and mask ^ (1 << i) in infeasible for i in range(nexc)):
                infeasible.add(mask)
                continue
            count += 1
            eqs = [forms[i] for i in range(nexc) if mask >> i & 1]
            ineqs = [forms[i] for i in range(nexc) if not mask >> i & 1] + cube_bounds(r)
            try:
                rational_reference.lp_maximize([[F(0)] * r], ineqs, eqs, r)
            except Infeasible:
                infeasible.add(mask)
    return count


def _all_mask_faces(data):
    """The face search with every mask solved, no skipping: (span, sample,
    tight forms, ambient forms, germ labels) per face, in the library's
    order."""
    r, nexc = data.r, len(data.exceptional)
    buckets, order = {}, []
    for forms, labels in _systems(data).items():
        for mask in range(1, 1 << nexc):
            eqs = [forms[i] for i in range(nexc) if mask >> i & 1]
            loose = [forms[i] for i in range(nexc) if not mask >> i & 1]
            ineqs = loose + cube_bounds(r)
            try:
                sample, implicit = relative_interior_point(ineqs, eqs, r)
            except Infeasible:
                continue
            if any(k < len(loose) for k in implicit) or not all(sample):
                continue
            cube_eqs = [ineqs[k] for k in implicit]
            span = tuple(span_equations(eqs + cube_eqs, sample))
            cand = quasiadjunction._Candidate(span, eqs + cube_eqs, ineqs, sample, eqs, labels)
            if span not in buckets:
                order.append(span)
            for known in buckets.setdefault(span, []):
                if quasiadjunction._same_face(known, cand, r):
                    known.germs.update(labels)
                    for f in eqs:
                        if f.equation_key() not in {g.equation_key() for g in known.tight_forms}:
                            known.tight_forms.append(f)
                    break
            else:
                buckets[span].append(cand)
    faces = [(span, c.sample, tuple(c.tight_forms), tuple(dict.fromkeys(c.ineqs)),
              tuple(g.label for g in data.germs if g.label in c.germs))
             for span in order for c in buckets[span]]
    return sorted(faces, key=lambda f: (len(f[0]), f[0]))  # the library's (-dim, span) order


def _count_solves(monkeypatch):
    """Record lp_maximize calls and _same_face outcomes of face searches."""
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
    return calls, comparisons


FOUR_COMPONENTS = """\
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
"""


def test_face_search_solves_each_region_once(monkeypatch):
    # one lp_maximize call per mask the walk solves, two per candidate comparison
    calls, comparisons = _count_solves(monkeypatch)
    data = load_resolution(FOUR_COMPONENTS)
    faces = faces_of_quasiadjunction(data)
    walked = _walk_count(data)
    assert faces and True in comparisons and False in comparisons
    assert walked < len(_systems(data)) * (2 ** len(data.exceptional) - 1)
    assert len(calls) == walked + 2 * len(comparisons)


def _random_chart(rng, nexc, germs, c_min=1):
    """A random r = 3 chart: components with a_E in [0, 3]^3 (sum >= 2) and
    c_E in [c_min, 3], a tree of incidences, distinct germ valuations in [0, 2]."""
    ids = ["E%d" % (k + 1) for k in range(nexc)]
    lines = ["r: 3", "n: 2", "exceptional:"]
    for eid in ids:
        a = [0, 0, 0]
        while sum(a) < 2:
            a = [rng.randint(0, 3) for _ in range(3)]
        lines.append("- {id: %s, a: %s, c: %d}" % (eid, a, rng.randint(c_min, 3)))
    lines.append("incidence:")
    lines += ["- {members: [%s, %s], fold: 2}" % (ids[rng.randrange(k)], ids[k]) for k in range(1, nexc)]
    lines.append("germs:")
    seen = {(0,) * nexc}
    while len(seen) < germs:
        vec = tuple(rng.randint(0, 2) for _ in ids)
        if vec not in seen:
            seen.add(vec)
            e = ", ".join("%s: %d" % (eid, v) for eid, v in zip(ids, vec) if v)
            lines.append("- {label: g%d, degree: %d, e: {%s}}" % (len(seen) - 1, max(vec), e))
    return load_resolution("\n".join(lines) + "\n")


def test_mask_walk_on_ten_components(monkeypatch):
    # |E| = 10: the walk solves the masks with no empty one-bit-smaller mask,
    # and finds the faces of the loop over all 1023 masks of each system
    data = _random_chart(random.Random(1010), 10, 3)
    expected = _all_mask_faces(data)
    calls, comparisons = _count_solves(monkeypatch)
    faces = faces_of_quasiadjunction(data)
    walked = _walk_count(data)
    assert len(calls) == walked + 2 * len(comparisons)
    assert walked < len(_systems(data)) * 1023 // 10
    assert expected and [(f.span, f.sample, f.tight, f.ambient.forms, f.germ_labels) for f in faces] == expected


def test_face_search_work_is_bounded(monkeypatch, capsys, tmp_path):
    # the chart's search makes 44 region solves: 20 are too few, 44 enough
    chart = tmp_path / "chart.yaml"
    chart.write_text(FOUR_COMPONENTS)
    monkeypatch.setattr(quasiadjunction, "MAX_REGION_SOLVES", 20)
    with pytest.raises(ValueError, match="more than 20 region solves"):
        faces_of_quasiadjunction(load_resolution(FOUR_COMPONENTS))
    assert cli.main(["faces", "--input", str(chart)]) == 1
    assert "error: face search needs more than 20 region solves" in capsys.readouterr().err
    monkeypatch.setattr(quasiadjunction, "MAX_REGION_SOLVES", 44)
    assert cli.main(["faces", "--input", str(chart)]) == 0


def _contains_with_span_test(face, x):
    """Face membership with the span equations tested as well."""
    return (all(f.value(x) == 0 for f in face.tight)
            and all(sum(F(c) * p for c, p in zip(v, x)) == beta for v, beta in face.span)
            and face.ambient.contains(x))


def test_face_contains_needs_no_span_test():
    # the tight forms and the ambient system cut out the face's region, so a
    # point passing both lies on the span.  Points: every face's sample, and
    # each face's sample moved along the zero set of its tight forms, which
    # leaves the span where the span also holds cube facets
    rng = random.Random(1212)
    inside = outside = off_span = 0
    for _ in range(60):
        data = _random_chart(rng, rng.randint(2, 6), rng.randint(2, 4), c_min=0)
        faces = faces_of_quasiadjunction(data)
        for face in faces:
            kernel = integer_kernel([f.scaled[1] for f in face.tight], data.r)
            points = [other.sample for other in faces]
            for _ in range(20):
                step = F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((2, 5, 60, 600)))
                coeffs = [rng.randint(-2, 2) for _ in kernel]
                points.append(tuple(s + step * sum(c * w[i] for c, w in zip(coeffs, kernel))
                                    for i, s in enumerate(face.sample)))
            for x in points:
                got = face.contains(x)
                assert got == _contains_with_span_test(face, x), (face.span, x)
                inside += got
                outside += not got
                off_span += (all(f.value(x) == 0 for f in face.tight)
                             and any(sum(c * p for c, p in zip(v, x)) != beta for v, beta in face.span))
    assert inside >= 1000 and outside >= 1000 and off_span >= 20  # 3484, 5161 and 80 with this seed


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
