"""Membership verdicts, faces of quasiadjunction, and the lct boundary."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

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
import quasiadj.work as work
from quasiadj.ratgeom import (
    AffineForm,
    Infeasible,
    cube_bounds,
    integer_kernel,
    relative_interior_point,
    span_equations,
)
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


# exceptional components Efk, Efr, Eni and germs 1, ghn, gle, gpf: germ gpf's
# face 2*x2 + 3*x3 = 2 is crossed inside by another germ's hyperplane
CROSSED_CHART = """\
r: 3
n: 1
exceptional:
- {id: Efk, a: [3, 1, 2], c: 3}
- {id: Efr, a: [0, 2, 3], c: 2}
- {id: Eni, a: [2, 0, 3], c: 2}
incidence:
- {members: [Efk, Efr], fold: 2}
- {members: [Efr, Eni], fold: 2}
germs:
- {label: '1', degree: 0, e: {}}
- {label: 'ghn', degree: 2, e: {Efk: 2, Efr: 2}}
- {label: 'gle', degree: 2, e: {Efk: 1, Efr: 2, Eni: 1}}
- {label: 'gpf', degree: 2, e: {Efk: 1, Eni: 2}}
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_face_witnesses_hold_on_the_whole_relative_interior():
    # a face's witnesses are read at its one sample; at (9/10, 1/2, 1/3),
    # in the relative interior of both faces on 2*x2 + 3*x3 = 2, the face
    # sampled at (1/3, 5/9, 8/27) reports {1: ('gpf',)} against {1: ('1', 'gpf')}
    data = load_resolution(CROSSED_CHART)
    x = (F(9, 10), F(1, 2), F(1, 3))
    cells = [
        f for f in faces_of_quasiadjunction(data)
        if all(g.value(x) == 0 for g in f.tight)
        # a form zero at the sample is an implicit equality of the face
        and all(g.value(x) < 0 for g in f.ambient if g.value(f.sample) != 0)
    ]
    assert cells
    for face in cells:
        assert face.witnesses == weight_witnesses(data, x), face.sample


def test_lct_values():
    assert lct_face(cone_over((2, 3), 2)).gamma == F(3, 5)
    lct = lct_face(generic_arrangement(4, 2))
    assert lct.gamma == F(3, 4)
    assert lct.contains_gamma((F(3, 4),) * 4)
    assert not lct.contains_gamma((F(1, 4),) * 4)


def test_contains_gamma_refuses_floats():
    # with a boundary face and without one (gamma* = 1 lies outside the cube)
    for data in (cone_over((2, 3), 2), generic_arrangement(2, 1)):
        lct = lct_face(data)
        assert lct.contains_gamma((lct.gamma,) * 2) == (lct.face is not None)
        with pytest.raises(TypeError, match="floating point"):
            lct.contains_gamma((0.5, 1.0))


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
    # one double description pass per constraint system, none for the twin's
    passes = []
    inner = quasiadjunction._vertices
    monkeypatch.setattr(quasiadjunction, "_vertices", lambda forms, *args: passes.append(forms) or inner(forms, *args))
    data = cone_over((2, 3, 4), 2, 1)
    faces = faces_of_quasiadjunction(data)
    before = passes[:]
    # y repeats the valuation vector of the degree-one monomials
    twin = GermBasisElement("y", 1, (("E0", 1),))
    more = ResolutionData(data.r, data.n, data.component_names, data.exceptional,
                          data.incidence, data.germs + (twin,), None)
    del passes[:]
    again = faces_of_quasiadjunction(more)
    assert passes == before == list(_systems(data)) and len(faces) > 0
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


def _same_set(a, b):
    """Exact set equality of two regions, each {"ineqs", "eqs"}: every
    inequality of each holds on the other, by the rational simplex."""
    for first, second in ((a, b), (b, a)):
        # objective g.coeffs: g <= 0 holds on first iff opt <= -g.const
        optima = rational_reference.lp_maximize([g.coeffs for g in second["ineqs"]], first["ineqs"], first["eqs"])
        if not all(opt <= -g.const for g, (opt, _) in zip(second["ineqs"], optima)):
            return False
    return True


def _reference_faces(data):
    """The faces with every mask of every system solved, in the library's
    order, each a dict: the span, the "eqs" and "ineqs" of the mask that
    found it first, its "tight" forms and "germs", the "lp_sample"
    relative_interior_point gives on that region without vertices, its
    "vertices", and whether it is "crossed": some form of some system is
    negative at one vertex and positive at another, by AffineForm.value.
    A mask is kept when its region is nonempty, no loose form vanishes on
    all of it, and it has a point with every coordinate positive; a mask
    whose region equals one kept before, by _same_set, merges into it.  A
    face's vertices are those of its system's polytope, found by brute
    force over every r of the system's constraints (_brute_vertices), at
    which the mask's forms vanish."""
    r, nexc = data.r, len(data.exceptional)
    systems = _systems(data)
    buckets, order = {}, []
    for forms, labels in systems.items():
        verts = None
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
            cand = {"span": span, "eqs": eqs, "ineqs": ineqs, "lp_sample": sample, "tight": list(eqs),
                    "germs": set(labels)}
            if span not in buckets:
                order.append(span)
            for known in buckets.setdefault(span, []):
                if _same_set(known, cand):
                    known["germs"].update(labels)
                    keys = {g.equation_key() for g in known["tight"]}
                    for f in eqs:
                        if f.equation_key() not in keys:
                            keys.add(f.equation_key())
                            known["tight"].append(f)
                    break
            else:
                if verts is None:
                    verts = _brute_vertices(forms, r)
                cand["vertices"] = [x for x, tight in verts if tight & mask == mask]
                buckets[span].append(cand)
    every_form = [f for forms in systems for f in forms]
    faces = []
    for span in order:
        for c in buckets[span]:
            c["crossed"] = any(min(values) < 0 < max(values)
                               for values in ([f.value(x) for x in c["vertices"]] for f in every_form))
            faces.append(c)
    return sorted(faces, key=lambda c: (len(c["span"]), c["span"]))  # the library's (-dim, span) order


def _centroid(points):
    return tuple(sum(col) / len(points) for col in zip(*points))


def _face_tuples(data, reference, walk=False):
    """(span, sample, tight forms, ambient forms, labels, witnesses, germ
    labels) of each reference face, with the sample of the vertex route: the
    vertex centroid on a face no form crosses, the relative_interior_point
    sample on a crossed one; with walk, the walk's, that sample on every
    face."""
    faces = []
    for c in reference:
        sample = c["lp_sample"] if walk or c["crossed"] else _centroid(c["vertices"])
        witnesses = weight_witnesses(data, sample)
        faces.append((c["span"], sample, tuple(c["tight"]), tuple(dict.fromkeys(c["ineqs"])),
                      {l: len(w) for l, w in witnesses.items()}, witnesses,
                      tuple(g.label for g in data.germs if g.label in c["germs"])))
    return faces


def _all_mask_faces(data, walk=False):
    """The faces of the loop over all masks, as _face_tuples."""
    return _face_tuples(data, _reference_faces(data), walk)


def _face_tuple(face):
    return (face.span, face.sample, face.tight, face.ambient, face.labels, face.witnesses, face.germ_labels)


def _count_solves(monkeypatch):
    """Record the relative_interior_point calls of face searches."""
    calls = []
    inner = quasiadjunction.relative_interior_point

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(quasiadjunction, "relative_interior_point", counted)
    return calls


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
                rational_reference.lp_maximize([[F(0)] * r], ineqs, eqs)
            except Infeasible:
                infeasible.add(mask)
    return count


def _count_walk_solves(monkeypatch):
    """Send face searches to the mask walk, and record its region solves
    (relative_interior_point and lp_maximize calls) and the _same_face
    outcomes."""
    monkeypatch.setattr(work, "MAX_VERTEX_WORK", 0)
    calls, comparisons = [], []

    def counted(inner):
        def call(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)
        return call

    inner_same = quasiadjunction._same_face

    def counted_same(*args):
        comparisons.append(inner_same(*args))
        return comparisons[-1]

    for name in ("relative_interior_point", "lp_maximize"):
        monkeypatch.setattr(quasiadjunction, name, counted(getattr(quasiadjunction, name)))
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
    # one solve per crossed face returned: a face no form crosses takes its
    # vertex centroid, and a candidate merged into an earlier one (a face of
    # both germs) takes none
    data = load_resolution(FOUR_COMPONENTS)
    reference = _reference_faces(data)
    expected = _face_tuples(data, reference)
    calls = _count_solves(monkeypatch)
    faces = faces_of_quasiadjunction(data)
    assert [_face_tuple(f) for f in faces] == expected
    assert len(calls) == sum(c["crossed"] for c in reference)
    assert 0 < len(calls) < len(faces)
    assert any(len(f.germ_labels) == 2 for f in faces)


def test_mask_walk_solves_each_region_once(monkeypatch):
    # one region solve per mask the walk solves, two per candidate comparison
    data = load_resolution(FOUR_COMPONENTS)
    expected = _all_mask_faces(data, walk=True)
    calls, comparisons = _count_walk_solves(monkeypatch)
    faces = faces_of_quasiadjunction(data)
    walked = _walk_count(data)
    assert [_face_tuple(f) for f in faces] == expected
    assert True in comparisons and False in comparisons
    assert walked < len(_systems(data)) * (2 ** len(data.exceptional) - 1)
    assert len(calls) == walked + 2 * len(comparisons)


def _random_chart(rng, nexc, germs, c_min=1, r=3):
    """A random chart: components with a_E in [0, 3]^r (sum >= 2) and c_E in
    [c_min, 3], a tree of incidences, distinct germ valuations in [0, 2]."""
    ids = ["E%d" % (k + 1) for k in range(nexc)]
    lines = ["r: %d" % r, "n: 2", "exceptional:"]
    for eid in ids:
        a = [0] * r
        while sum(a) < 2:
            a = [rng.randint(0, 3) for _ in range(r)]
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


def test_face_search_on_ten_components(monkeypatch):
    # |E| = 10: the faces of the loop over all 1023 masks of each system,
    # with one solve per crossed face
    data = _random_chart(random.Random(1010), 10, 3)
    reference = _reference_faces(data)
    expected = _face_tuples(data, reference)
    calls = _count_solves(monkeypatch)
    faces = faces_of_quasiadjunction(data)
    assert expected and [_face_tuple(f) for f in faces] == expected
    assert len(calls) == sum(c["crossed"] for c in reference)


def test_mask_walk_on_ten_components(monkeypatch):
    # |E| = 10: the walk solves the masks with no empty one-bit-smaller mask,
    # and finds the faces of the loop over all 1023 masks of each system
    data = _random_chart(random.Random(1010), 10, 3)
    expected = _all_mask_faces(data, walk=True)
    calls, comparisons = _count_walk_solves(monkeypatch)
    faces = faces_of_quasiadjunction(data)
    walked = _walk_count(data)
    assert len(calls) == walked + 2 * len(comparisons)
    assert walked < len(_systems(data)) * 1023 // 10
    assert expected and [_face_tuple(f) for f in faces] == expected


def test_face_search_counts_on_ten_components(monkeypatch):
    # |E| = 10, nine faces with 2 to 4 vertices each, six of them crossed by
    # a form: one phase 1 per crossed face, and 88 phase 2 runs, one per
    # inequality of each crossed face; the three faces no form crosses take
    # their vertex centroids with no solve; equal meets share one saturation
    # basis, 7 for the 9 spans
    data = _random_chart(random.Random(1010), 10, 3)
    crossed = [c for c in _reference_faces(data) if c["crossed"]]
    assert len(crossed) == 6 and sum(len(c["ineqs"]) for c in crossed) == 88
    runs = {"_phase1": 0, "_phase2": 0, "saturation_basis": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def call(*args):
            runs[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, call)

    counted(ratgeom, "_phase1")
    counted(ratgeom, "_phase2")
    counted(quasiadjunction, "saturation_basis")
    faces = faces_of_quasiadjunction(data)
    assert len(faces) == 9
    assert runs == {"_phase1": 6, "_phase2": 88, "saturation_basis": 7}


def test_face_search_matches_all_masks_property():
    # random charts with |E| from 2 to 12 against the loop over all masks
    rng = random.Random(1313)
    faces = merged = 0
    for nexc in list(range(2, 13)) + list(range(2, 9)) * 2:
        data = _random_chart(rng, nexc, rng.randint(2, 3 if nexc < 11 else 2), c_min=rng.randint(0, 1))
        got = [_face_tuple(f) for f in faces_of_quasiadjunction(data)]
        assert got == _all_mask_faces(data), nexc
        faces += len(got)
        merged += sum(len(f[-1]) > 1 for f in got)
    assert faces >= 100 and merged >= 5, (faces, merged)  # 169 and 11 with this seed


def test_vertex_route_sample_rule_property(monkeypatch):
    # every face of random charts (r 2-4, |E| 2-6, c_E from 0) and cones:
    # only a face crossed by a form, which takes both signs at the face's
    # vertices, takes a relative_interior_point solve, and its sample is the
    # one without vertices; a face no form crosses has its witnesses at
    # every strictly positive combination of its vertices, and its sample
    # is their centroid
    rng = random.Random(2626)
    calls = _count_solves(monkeypatch)
    charts = [_random_chart(rng, rng.randint(2, 6), rng.randint(2, 4), c_min=0, r=rng.randint(2, 4))
              for _ in range(16)]
    cones = [cone_over(tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 4))), rng.randint(1, 3),
                       rng.randint(0, 2)) for _ in range(40)]
    crossed = uncrossed = 0
    for data in charts + cones:
        reference = _reference_faces(data)
        del calls[:]
        faces = faces_of_quasiadjunction(data)
        assert len(calls) == sum(c["crossed"] for c in reference)
        assert [f.span for f in faces] == [c["span"] for c in reference]
        for face, c in zip(faces, reference):
            if c["crossed"]:
                assert face.sample == c["lp_sample"]  # relative_interior_point(ineqs, eqs, r)
                crossed += 1
                continue
            assert face.sample == _centroid(c["vertices"])
            for _ in range(3):
                weights = [rng.randint(1, 9) for _ in c["vertices"]]
                x = tuple(sum(w * v[i] for w, v in zip(weights, c["vertices"])) / sum(weights) for i in range(data.r))
                assert weight_witnesses(data, x) == face.witnesses, (face.span, x)
            uncrossed += 1
    assert crossed >= 40 and uncrossed >= 100, (crossed, uncrossed)  # 62 and 154 with this seed


def _brute_vertices(forms, r):
    """The vertices of {x in [0,1]^r : every form <= 0} with their tight
    sets (bit i for forms[i], bit len(forms) + k for cube_bounds(r)[k]):
    every r constraints whose equations meet in one point, solved over Q,
    kept when the point satisfies all constraints."""
    cons = list(forms) + cube_bounds(r)
    found = set()
    for subset in combinations(cons, r):
        x = rational_reference.solve_square([f.coeffs for f in subset], [-f.const for f in subset])
        if x is None or any(f.value(x) > 0 for f in cons):
            continue
        found.add((x, sum(1 << k for k, f in enumerate(cons) if f.value(x) == 0)))
    return found


def _library_vertices(forms, r):
    out = set()
    for h, tight in quasiadjunction._vertices(tuple(forms), r):
        assert h[-1] > 0 and gcd(*h) == 1, h
        out.add((tuple(F(v, h[-1]) for v in h[:-1]), tight))
    return out


def test_vertices_match_brute_force():
    A = AffineForm
    degenerate = {
        "through a corner": [A((1, 1, 1), -1), A((2, 1, 0), -2)],
        "parallel": [A((1, 2, 0), -1), A((1, 2, 0), -2), A((-2, -4, 0), 1)],
        "empty": [A((1, -1, 0), 0), A((-1, -1, -1), 4), A((1, 0, 1), -1)],
        "tight everywhere": [A((1, 1, 0), -1), A((-1, -1, 0), 1), A((3, 3, 0), -3), A((0, 0, 0), 0), A((0, 1, -1), 0)],
        "tight on a facet": [A((0, 0, 1), 0), A((0, 0, 2), 0), A((1, 1, 1), -1)],
    }
    for name, forms in degenerate.items():
        assert _library_vertices(forms, 3) == _brute_vertices(forms, 3), name
    assert not _library_vertices(degenerate["empty"], 3)
    # the corner (0, 1, 0): the first form, and facets -x_1, x_2 - 1, -x_3 (cube bits 0, 3, 4)
    assert ((0, 1, 0), 1 | (1 << 0 | 1 << 3 | 1 << 4) << 2) in _library_vertices(degenerate["through a corner"], 3)
    everywhere = _library_vertices(degenerate["tight everywhere"], 3)
    assert everywhere and all(tight & 0b1111 == 0b1111 for _, tight in everywhere)
    rng = random.Random(1414)
    seen = 0
    for _ in range(120):
        r = rng.choice((1, 2, 3, 3, 3, 4))
        forms = [A(tuple(rng.randint(-3, 3) for _ in range(r)), rng.randint(-4, 3))
                 for _ in range(rng.randint(1, 7 - r))]
        expected = _brute_vertices(forms, r)
        assert _library_vertices(forms, r) == expected, (r, forms)
        seen += len(expected)
    assert seen >= 500, seen


def _vertex_work(data):
    """The work the vertex route charges for data, from brute-force
    vertices: per system, the r * 2^r corner coordinates, the
    negative-positive vertex pairs of each cut, and masks times vertices."""
    r, nexc = data.r, len(data.exceptional)
    units = 0
    for forms in _systems(data):
        units += r << r
        for k, form in enumerate(forms):
            values = [form.value(x) for x, _ in _brute_vertices(forms[:k], r)]
            units += sum(v < 0 for v in values) * sum(v > 0 for v in values)
        verts = _brute_vertices(forms, r)
        masks = set()
        for _, tight in verts:
            tight &= (1 << nexc) - 1
            masks |= {tight & m for m in masks} | {tight}
        units += len(masks) * len(verts)
    return units


def test_face_search_work_is_bounded(monkeypatch, capsys, tmp_path):
    # the chart's vertex route charges 412 work units: at 412 it runs, at
    # 411 the mask walk finds the same faces, each sampled at its solve's
    # point; the walk's pivots and phase 2 runs charge 14,092 units of
    # region work: 14,091 are too few, 14,092 enough
    chart = tmp_path / "chart.yaml"
    chart.write_text(FOUR_COMPONENTS)
    data = load_resolution(FOUR_COMPONENTS)
    reference = _reference_faces(data)
    units = _vertex_work(data)
    assert units == 412 < work.MAX_VERTEX_WORK
    walks = []
    walk = quasiadjunction._walk_candidates
    monkeypatch.setattr(quasiadjunction, "_walk_candidates", lambda *args: walks.append(1) or walk(*args))
    for limit, walked in ((units, 0), (units - 1, 1)):
        monkeypatch.setattr(work, "MAX_VERTEX_WORK", limit)
        del walks[:]
        got = [_face_tuple(f) for f in faces_of_quasiadjunction(data)]
        assert got == _face_tuples(data, reference, walk=bool(walked))
        assert len(walks) == walked
    with work.ledger() as book:
        faces_of_quasiadjunction(data)
    assert book["MAX_REGION_WORK"] == 14_092
    monkeypatch.setattr(work, "MAX_REGION_WORK", 14_091)
    with pytest.raises(ValueError, match="more than 14091 units of region solve work"):
        faces_of_quasiadjunction(data)
    assert cli.main(["faces", "--input", str(chart)]) == 1
    assert "error: face search needs more than 14091 units of region solve work" in capsys.readouterr().err
    monkeypatch.setattr(work, "MAX_REGION_WORK", 14_092)
    assert cli.main(["faces", "--input", str(chart)]) == 0


def _count_cubes(monkeypatch):
    """Record the r of every cube_bounds call the face search makes."""
    builds = []
    inner = quasiadjunction.cube_bounds
    monkeypatch.setattr(quasiadjunction, "cube_bounds", lambda r: builds.append(r) or inner(r))
    return builds


def test_mask_walk_refuses_a_solve_too_large_for_its_budget(monkeypatch, capsys):
    # 1600 branches: the walk's first solve is estimated at one pivot or
    # phase 2 run over two rows of 1601 entries for each of the system's
    # 3201 constraints, over MAX_REGION_WORK, so it is refused before it runs
    # (it would take minutes), and before the cube is built
    builds = _count_cubes(monkeypatch)
    assert cli.main(["faces", "--arrangement", "1600", "--n", "1"]) == 1
    assert "error: face search needs more than" in capsys.readouterr().err
    assert builds == []


def test_face_search_builds_one_cube(monkeypatch):
    # one build per completed search on either route: the vertex route, the
    # walk chosen up front (13 branches), and the walk after the vertex
    # route ran out part way (its budget one short of the chart's 412)
    builds = _count_cubes(monkeypatch)
    four = load_resolution(FOUR_COMPONENTS)
    for data, limit in ((four, 412), (generic_arrangement(13, 1), 412), (four, 411)):
        monkeypatch.setattr(work, "MAX_VERTEX_WORK", limit)
        del builds[:]
        assert faces_of_quasiadjunction(data)
        assert builds == [data.r]


def test_face_contains_tests_the_cube():
    # 2 x1 + 3 x2 = 1 meets the cube in a segment; (2, -1) is on the span
    # but outside the cube, so it is outside the face
    face = faces_of_quasiadjunction(cone_over((2, 3), 2, 3))[0]
    assert face_key(face) == (((2, 3), F(1)),)
    assert face.contains(face.sample)
    assert face.contains((F(1, 2), F(0)))
    assert not face.contains((F(2), F(-1)))
    with pytest.raises(ValueError, match="arity"):
        face.contains((F(1, 2),))


def _contains_with_span_test(face, x):
    """Face membership with the span equations tested as well."""
    return (all(f.value(x) == 0 for f in face.tight)
            and all(sum(F(c) * p for c, p in zip(v, x)) == beta for v, beta in face.span)
            and all(f.value(x) <= 0 for f in face.ambient))


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
            kernel = integer_kernel([f.coeffs for f in face.tight], data.r)
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
    assert inside >= 1000 and outside >= 1000 and off_span >= 20  # 3532, 5113 and 80 with this seed


def test_face_contains_matches_form_values_property():
    # contains compares integer numerators over the point's one denominator;
    # the reference takes each tight and ambient form's value as a Fraction.
    # Points: every face's sample (inside), midpoints with the other faces'
    # samples, and each face's sample moved along the zero set of its tight
    # forms, by a random step and exactly onto an ambient form's hyperplane
    # (on the face's relative boundary, or outside it)
    rng = random.Random(2727)
    inside = outside = on_boundary = 0
    for _ in range(30):
        data = _random_chart(rng, rng.randint(2, 6), rng.randint(2, 4), c_min=0, r=rng.randint(2, 4))
        faces = faces_of_quasiadjunction(data)
        for face in faces:
            kernel = integer_kernel([f.coeffs for f in face.tight], data.r)
            points = [other.sample for other in faces]
            points += [tuple((s + t) / 2 for s, t in zip(face.sample, other.sample)) for other in faces]
            for _ in range(6 if kernel else 0):
                w = [sum(c * v[i] for c, v in zip((rng.randint(-2, 2) for _ in kernel), kernel))
                     for i in range(data.r)]
                points.append(tuple(s + F(rng.randint(-6, 6), rng.choice((2, 5, 60))) * d
                                    for s, d in zip(face.sample, w)))
                for f in face.ambient:
                    slope = sum(c * d for c, d in zip(f.coeffs, w))
                    if slope:
                        step = -f.value(face.sample) / slope
                        points.append(tuple(s + step * d for s, d in zip(face.sample, w)))
            for x in points:
                got = face.contains(x)
                assert got == (all(f.value(x) == 0 for f in face.tight)
                               and all(f.value(x) <= 0 for f in face.ambient)), (face.span, x)
                inside += got
                outside += not got
                on_boundary += got and any(f.value(x) == 0 for f in face.ambient)
            with pytest.raises(TypeError, match="floating point"):
                face.contains((0.5,) * data.r)
            with pytest.raises(ValueError, match="arity"):
                face.contains(face.sample + (F(1, 2),))
    assert inside >= 500 and outside >= 500 and on_boundary >= 100  # 876, 7723 and 362 with this seed


def _fraction_verdict(data, germ, x):
    """(in_ideal, in_log_ideal, weight, tight ids) at x from Fraction values
    through AffineForm.value."""
    values = {exc.id: constraint_form(exc, germ).value(x) for exc in data.exceptional}
    tight = tuple(sorted(eid for eid, v in values.items() if v == 0))
    in_log = all(v <= 0 for v in values.values())
    in_ideal = all(v < 0 for v in values.values())
    weight = 0
    if in_log and not in_ideal:
        weight = max(rec.fold for rec in data.incidence if rec.members.issubset(tight))
    return in_ideal, in_log, weight, tight


def test_integer_verdicts_match_fraction_values_property():
    # _verdict_at reads signs off integer numerators over one denominator,
    # and weight_witnesses shares a_E . x across systems; both against
    # Fraction values, at random cube points and at face samples (where
    # forms are tight and weights positive)
    rng = random.Random(2020)
    seen = {"tight": 0, "weighted": 0, "in_ideal": 0, "outside": 0}
    for _ in range(40):
        data = _random_chart(rng, rng.randint(2, 6), rng.randint(2, 4), c_min=0)
        points = [face.sample for face in faces_of_quasiadjunction(data)]
        points += [tuple(F(rng.randint(0, d), d) for _ in range(data.r))
                   for d in rng.choices((1, 2, 3, 6, 60), k=10)]
        for x in points:
            expected = {}
            for germ in data.germs:
                forms = quasiadjunction._forms(data, germ)
                verdict = quasiadjunction._verdict_at(data, forms, x, *quasiadjunction._dots(forms, x))
                want = _fraction_verdict(data, germ, x)
                assert (verdict.in_ideal, verdict.in_log_ideal, verdict.weight,
                        verdict.tight_exceptional) == want, (germ.label, x)
                if want[2] > 0:
                    expected.setdefault(want[2], []).append(germ.label)
                seen["tight"] += bool(want[3])
                seen["weighted"] += want[2] > 0
                seen["in_ideal"] += want[0]
                seen["outside"] += not want[1]
            assert weight_witnesses(data, x) == {w: tuple(labels) for w, labels in expected.items()}
    assert min(seen.values()) >= 300, seen  # 805, 532, 571 and 918 with this seed


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
