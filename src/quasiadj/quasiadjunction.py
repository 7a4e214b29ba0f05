"""Ideals and faces of quasiadjunction.

For a germ phi and an exceptional component E the controlling inequality is

    a_{1,E}(1 - x_1) + ... + a_{r,E}(1 - x_r)  <=  e_E(phi) + c_E + 1

evaluated at the cube point x_i = (j_i + 1)/m_i of a branching array (j|m).
Strict inequality at every E puts phi in the ideal of quasiadjunction; the
weak version is the logarithmic ideal, and the locus of equality cuts the
faces of quasiadjunction out of the unit cube.

Each germ's inequalities cut a polytope P out of the cube, and its faces of
quasiadjunction are faces of P.  They are read off P's vertices: one double
description pass per constraint system (Motzkin, Raiffa, Thompson and
Thrall, "The double description method", 1953; Fukuda and Prodon, "Double
description method revisited", 1996) gives every vertex in integer
homogeneous coordinates with the set of constraints tight there, and which
masks cut a face, its equations and whether it meets the open positive
orthant all follow from those sets.  A face that no constraint hyperplane
crosses is sampled at the centroid of its vertices, with no solve; a
crossed face at the point of one ratgeom.relative_interior_point solve on
its region, as the mask walk samples every face.  P can have about 2^r
vertices whatever its forms, so a chart with many branches is searched by
a walk over the masks of tight components instead, with one exact solve
per mask.  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul

from . import work
from .ratgeom import (
    AffineForm,
    Infeasible,
    _over_lcm,
    cube_bounds,
    lp_maximize,
    rat,
    relative_interior_point,
    saturation_basis,
    span_equations,
)
from .resolution import (
    ExceptionalComponent,
    GermBasisElement,
    QuasiArray,
    ResolutionData,
)


def threshold(exc: ExceptionalComponent, germ: GermBasisElement) -> int:
    """Right-hand side e_E(phi) + c_E + 1 of the adjunction inequality."""
    return germ.valuation(exc.id) + exc.c + 1


def constraint_form(exc: ExceptionalComponent, germ: GermBasisElement) -> AffineForm:
    """The inequality for (exc, germ) in <= 0 normal form.

    value(x) = sum_i a_i (1 - x_i) - (e + c + 1), so the coefficient vector
    is -a and the constant is sum(a) - threshold.
    """
    return AffineForm(tuple(-ai for ai in exc.a), sum(exc.a) - threshold(exc, germ))


@dataclass(frozen=True)
class MembershipVerdict:
    in_ideal: bool
    in_log_ideal: bool
    weight: int                       # max incidence fold among all-tight records; 0 unless boundary
    tight_exceptional: tuple[str, ...]
    x: tuple[Fraction, ...]


def _dots(forms: tuple[AffineForm, ...], x) -> tuple[list[int], int]:
    """coeffs . x of each form at x, as integer numerators over one
    positive denominator, x's least common one."""
    nums, den = _over_lcm(x)
    if forms and len(nums) != forms[0].arity:
        raise ValueError("point arity %d != form arity %d" % (len(nums), forms[0].arity))
    return [sum(c * v for c, v in zip(f.coeffs, nums)) for f in forms], den


def _verdict_at(data: ResolutionData, forms: tuple[AffineForm, ...], x, dots, den) -> MembershipVerdict:
    """Verdict at x for the germ whose constraint forms, one per exceptional
    component, are forms, with dots, den = _dots(forms, x).  Only signs
    count, and the form's value at x has the sign of dot + const * den."""
    values = [d + f.const * den for d, f in zip(dots, forms)]
    in_log = all(v <= 0 for v in values)
    in_ideal = all(v < 0 for v in values)
    tight = tuple(sorted(exc.id for exc, v in zip(data.exceptional, values) if v == 0))
    weight = 0
    if in_log and not in_ideal:
        weight = max(rec.fold for rec in data.incidence if rec.members.issubset(tight))
    return MembershipVerdict(in_ideal, in_log, weight, tight, tuple(x))


def membership(data: ResolutionData, germ, array: QuasiArray) -> MembershipVerdict:
    """Verdict for the germ against the branching array (j|m)."""
    if isinstance(germ, str):
        germ = data.germ(germ)
    if array.r != data.r:
        raise ValueError("array length %d != r = %d" % (array.r, data.r))
    forms, x = _forms(data, germ), array.x_point()
    return _verdict_at(data, forms, x, *_dots(forms, x))


def multiplier_ideal_membership(data: ResolutionData, germ, gamma) -> bool:
    """phi in J(D_gamma): e_E(phi) + c_E + 1 > sum_i a_{i,E} gamma_i at every E.

    Independent of the cube machinery on purpose; the identity with
    membership(...) under gamma_i = 1 - (j_i + 1)/m_i is a test target.
    """
    if isinstance(germ, str):
        germ = data.germ(germ)
    gamma = [rat(g) for g in gamma]
    if len(gamma) != data.r:
        raise ValueError("gamma length %d != r = %d" % (len(gamma), data.r))
    for exc in data.exceptional:
        load = sum(Fraction(ai) * gi for ai, gi in zip(exc.a, gamma))
        if not load < germ.valuation(exc.id) + exc.c + 1:
            return False
    return True


def _forms(data: ResolutionData, germ: GermBasisElement) -> tuple[AffineForm, ...]:
    return tuple(constraint_form(exc, germ) for exc in data.exceptional)


def _systems(data: ResolutionData) -> dict[tuple[AffineForm, ...], list[str]]:
    """The germs' labels grouped by constraint system, in first-appearance
    order: a germ enters the geometry only through its system."""
    systems: dict[tuple[AffineForm, ...], list[str]] = {}
    for germ in data.germs:
        systems.setdefault(_forms(data, germ), []).append(germ.label)
    return systems


def _weight_witnesses(data: ResolutionData, systems, x) -> dict[int, tuple[str, ...]]:
    """weight_witnesses with the systems already built: one weight per
    system, _verdict_at's, read off the signs of its forms' values.
    Systems differ only in their constants, so each exceptional
    component's a_E . x is computed once."""
    dots, den = _dots(next(iter(systems), ()), x)
    ids = [exc.id for exc in data.exceptional]
    weights = {}
    for forms, labels in systems.items():
        tight, weight = set(), 0
        for d, f, eid in zip(dots, forms, ids):
            value = d + f.const * den
            if value > 0:
                break  # outside the log ideal
            if value == 0:
                tight.add(eid)
        else:
            if tight:  # in the log ideal, not in the ideal
                weight = max(rec.fold for rec in data.incidence if rec.members <= tight)
        weights.update(dict.fromkeys(labels, weight))
    out: dict[int, list[str]] = {}
    for germ in data.germs:
        w = weights[germ.label]
        if w > 0:
            out.setdefault(w, []).append(germ.label)
    return {l: tuple(labels) for l, labels in out.items()}


def weight_witnesses(data: ResolutionData, x) -> dict[int, tuple[str, ...]]:
    """Labels of the germ basis elements of each positive weight at x."""
    return _weight_witnesses(data, _systems(data), x)


# ---------------------------------------------------------------------------
# faces


@dataclass(frozen=True)
class FaceOfQuasiadjunction:
    """One face: a boundary piece of some germ's adjunction region.

    span holds the canonical integer equations (v, beta) of the affine hull;
    tight the defining germ constraints that vanish on the face; ambient the
    tuple of forms, each <= 0 on the face (the loose constraints of the
    system that found it plus the cube facets), so that containment can be
    tested exactly.
    """

    span: tuple[tuple[tuple[int, ...], Fraction], ...]
    tight: tuple[AffineForm, ...]
    ambient: tuple[AffineForm, ...]
    dim: int
    sample: tuple[Fraction, ...]
    labels: dict[int, int]
    witnesses: dict[int, tuple[str, ...]]
    germ_labels: tuple[str, ...]

    def contains(self, x) -> bool:
        # tight and ambient cut out the face's region, which lies on the span;
        # a form's value at x is (coeffs . nums + const * den) / den
        nums, den = _over_lcm(x)
        if len(nums) != len(self.sample):
            raise ValueError("point arity %d != form arity %d" % (len(nums), len(self.sample)))
        return (all(sum(map(mul, f.coeffs, nums)) == -f.const * den for f in self.tight)
                and all(sum(map(mul, f.coeffs, nums)) <= -f.const * den for f in self.ambient))


def _vertices(forms: tuple[AffineForm, ...], r: int) -> list[tuple[tuple[int, ...], int]]:
    """The vertices of P = {x in [0,1]^r : every form <= 0}, by double
    description (Motzkin et al. 1953; Fukuda and Prodon, "Double
    description method revisited", 1996).

    A vertex is (h, tight): h = (n_1, ..., n_r, den), the integer
    homogeneous point x_i = n_i / den with den > 0 and gcd 1, and tight the
    bitmask of the constraints that vanish there, bit i for forms[i] and
    bit len(forms) + k for cube_bounds(r)[k].  The pass starts from the 2^r
    cube corners and cuts by one form at a time.  A cut keeps the vertices
    where the form is <= 0, and puts a new vertex on each edge from one
    where it is negative to one where it is positive.  Two vertices span an
    edge iff no third vertex's tight set holds their common one: that set
    cuts out the least face holding both.  The corners' coordinates and each
    cut's negative-positive pairs are charged to MAX_VERTEX_WORK before they
    are built, which bounds the vertices held as well.
    """
    nforms = len(forms)
    work.charge("MAX_VERTEX_WORK", r << r)
    verts = [((), 0)]
    for i in range(r):  # x_i = 0 on facet -x_i <= 0, x_i = 1 on x_i - 1 <= 0
        at0, at1 = 1 << (nforms + 2 * i), 1 << (nforms + 2 * i + 1)
        verts = [(h + (b,), t | bit) for h, t in verts for b, bit in ((0, at0), (1, at1))]
    verts = [(h + (1,), t) for h, t in verts]
    for j, form in enumerate(forms):
        w = (*form.coeffs, form.const)
        neg, pos, kept = [], [], []
        for k, (h, t) in enumerate(verts):
            s = sum(map(mul, w, h))
            if s < 0:
                neg.append((k, h, t, s))
                kept.append((h, t))
            elif s > 0:
                pos.append((k, h, t, s))
            else:
                kept.append((h, t | 1 << j))
        if neg and pos:
            work.charge("MAX_VERTEX_WORK", len(neg) * len(pos))
            # incident[b]: the vertices, one bit each, whose tight sets hold constraint bit b
            incident: dict[int, int] = {}
            for k, (_, t) in enumerate(verts):
                while t:
                    low = t & -t
                    incident[low] = incident.get(low, 0) | 1 << k
                    t ^= low
            everyone = (1 << len(verts)) - 1
            for ku, hu, tu, su in neg:
                for kw, hw, tw, sw in pos:
                    common = tu & tw
                    if common.bit_count() < r - 1:
                        continue  # an edge is one-dimensional: r - 1 independent constraints vanish on it
                    pair = 1 << ku | 1 << kw
                    on, c = everyone, common
                    while c and on != pair:
                        low = c & -c
                        on &= incident[low]
                        c ^= low
                    if on != pair:
                        continue
                    h = [sw * a - su * b for a, b in zip(hu, hw)]
                    g = gcd(*h)
                    kept.append((tuple(v // g for v in h), common | 1 << j))
        verts = kept
    return verts


class _Candidate:
    """A face found so far.  tight_forms starts with the forms of the mask
    that found it, `own` of them, and gains those of every mask merged
    into it; all of them vanish on the face."""

    __slots__ = ("span", "ineqs", "own", "tight_forms", "tight_keys", "germs", "sample")

    def __init__(self, span, eqs, ineqs, germ_labels, sample=None):
        self.span = span
        self.ineqs = ineqs
        self.own = len(eqs)
        self.tight_forms = list(eqs)
        self.tight_keys = {f.equation_key() for f in eqs}
        self.germs = set(germ_labels)
        self.sample = sample

    def merge(self, eqs, germ_labels) -> None:
        self.germs.update(germ_labels)
        for f in eqs:
            if f.equation_key() not in self.tight_keys:
                self.tight_keys.add(f.equation_key())
                self.tight_forms.append(f)


def _vertex_candidates(data: ResolutionData, systems, cube) -> list[_Candidate]:
    """The candidates of every system, read off its vertices with no solve,
    in order of first appearance."""
    r = data.r
    nforms = len(data.exceptional)
    at_zero = sum(1 << (nforms + 2 * i) for i in range(r))  # the facets -x_i <= 0
    found: dict[frozenset, _Candidate] = {}
    consts = [{forms[i].const for forms in systems} for i in range(nforms)]
    # saturation basis of each meet's equations: a form's coefficients are
    # -a_E in every system, so the meet's bits fix the coefficient rows
    bases: dict[int, list[tuple[int, ...]]] = {}
    for forms, labels in systems.items():
        verts = _vertices(forms, r)
        masks: set[int] = set()
        for _, t in verts:  # each mask is charged once per vertex, as it appears
            t &= (1 << nforms) - 1
            known = len(masks)
            masks |= {t & m for m in masks}
            masks.add(t)
            if len(masks) > known:
                work.charge("MAX_VERTEX_WORK", (len(masks) - known) * len(verts))
        for mask in sorted(masks - {0}):
            face = [v for v in verts if v[1] & mask == mask]
            meet = -1
            for _, t in face:
                meet &= t
            if meet & at_zero:
                continue  # no strictly positive point
            eqs = [forms[i] for i in range(nforms) if mask >> i & 1]
            vertices = tuple(h for h, _ in face)
            key = frozenset(vertices)
            known = found.get(key)
            if known is not None:
                known.merge(eqs, labels)
                continue
            basis = bases.get(meet)
            if basis is None:
                cube_eqs = [g for k, g in enumerate(cube) if meet >> (nforms + k) & 1]
                basis = bases[meet] = saturation_basis([f.coeffs for f in eqs + cube_eqs], r)
            h = vertices[0]
            span = tuple((v, Fraction(sum(map(mul, v, h)), h[-1])) for v in basis)
            ineqs = [forms[i] for i in range(nforms) if not mask >> i & 1] + cube
            sample = _centroid_if_uncrossed(forms, consts, vertices)
            found[key] = _Candidate(span, eqs, ineqs, labels, sample)
    return list(found.values())


def _centroid_if_uncrossed(forms, consts, vertices) -> tuple[Fraction, ...] | None:
    """The centroid of a face's vertices, or None when some form of some
    system is negative at one vertex and positive at another.  forms are
    any system's (the coefficients of component E are -a_E in every
    system) and consts[i] holds every system's constant for component i,
    so forms[i].coeffs . x is computed once per vertex and compared with
    each constant, in integers over the vertices' common denominator."""
    common = lcm(*(h[-1] for h in vertices))
    points = [[v * (common // h[-1]) for v in h[:-1]] for h in vertices]
    for f, cs in zip(forms, consts):
        dots = [sum(map(mul, f.coeffs, x)) for x in points]
        low, high = min(dots), max(dots)
        if any(low < -c * common < high for c in cs):
            return None
    return tuple(Fraction(sum(col), len(points) * common) for col in zip(*points))


def _same_face(a: _Candidate, b: _Candidate) -> bool:
    """Exact set equality of two candidates with equal affine span: each
    one's inequalities hold on the other's set.  One solve per side, and
    both sides always run."""
    same = True
    for first, second in ((a, b), (b, a)):
        # objective g.coeffs: g <= 0 holds iff opt <= -g.const
        optima = lp_maximize([g.coeffs for g in second.ineqs], first.ineqs, first.tight_forms[:first.own])
        same &= all(opt <= -g.const for g, (opt, _) in zip(second.ineqs, optima))
    return same


def _walk_candidates(data: ResolutionData, systems, cube) -> list[_Candidate]:
    """The candidates of every system by the mask walk, in order of first
    appearance: one exact solve per mask, so its cost grows with 2^|E| and
    not with 2^r.

    The walk takes the masks of tight exceptional components in increasing
    numeric order and solves a mask's region only when every mask with one
    bit cleared has a nonempty region.  Invariant: when a mask is taken
    from the queue, every smaller mask has been decided, and `feasible`
    holds exactly the decided masks (the empty mask included) whose region
    is nonempty.  Skipping is exact, because one more tight component adds
    an equality and so only shrinks the region: a mask skipped or found
    empty has empty supersets.  A mask is a candidate when no loose form is
    an implicit equation of its region.  Candidates with one span are
    compared by _same_face.  The walk costs one solve per mask with no
    empty one-bit-smaller mask, plus two per comparison.
    """
    r = data.r
    nexc = len(data.exceptional)
    buckets: dict[tuple, list[_Candidate]] = {}
    found: list[_Candidate] = []
    for forms, labels in systems.items():
        feasible = {0}
        queue = [1 << i for i in range(nexc)]  # heap; a mask is queued once it is feasible without its top bit
        while queue:
            mask = heappop(queue)
            tight_idx = [i for i in range(nexc) if mask >> i & 1]
            if any(mask ^ (1 << i) not in feasible for i in tight_idx):
                continue  # a one-bit-smaller region is empty, so this one is
            loose_idx = [i for i in range(nexc) if not mask >> i & 1]
            eqs = [forms[i] for i in tight_idx]
            ineqs = [forms[i] for i in loose_idx] + cube
            try:
                sample, implicit = relative_interior_point(ineqs, eqs, r)
            except Infeasible:
                continue
            feasible.add(mask)
            for i in range(mask.bit_length(), nexc):
                heappush(queue, mask | 1 << i)
            if any(k < len(loose_idx) for k in implicit):
                continue  # not tight-closed; the closed mask meets the same set
            if not all(sample):
                continue  # no strictly positive point
            span = tuple(span_equations(eqs + [ineqs[k] for k in implicit], sample))
            cand = _Candidate(span, eqs, ineqs, labels, sample)
            bucket = buckets.setdefault(span, [])
            for known in bucket:
                if _same_face(known, cand):
                    known.merge(eqs, labels)
                    break
            else:
                bucket.append(cand)
                found.append(cand)
    return found


def faces_of_quasiadjunction(data: ResolutionData) -> list[FaceOfQuasiadjunction]:
    """All faces of quasiadjunction of the union, merged across germs.

    A germ enters only through its constraint system, so germs whose
    valuations give the same system share one search and every face it
    finds.  A face is the region of one mask of tight exceptional
    components: those forms vanish, the others are <= 0, inside the cube.
    It is a face of the polytope P the system cuts out of the cube, so it
    is read off P's vertices (see _vertices), with no solve:

    - the region of a mask is the hull of the vertices whose tight sets
      hold it, and a candidate is a mask that equals the meet (the common
      tight set) of its vertices on the forms; such masks are the nonzero
      intersections of vertex tight sets.  Any other nonempty mask has a
      loose form that vanishes on its whole region, and the mask of the
      meet cuts out the same set.
    - it is kept only if it carries a point with every coordinate strictly
      positive, which is when no facet -x_i <= 0 lies in the meet:
      realizable branching parameters (j_i+1)/m_i never vanish, so boundary
      pieces inside the coordinate hyperplanes bound no actual jump.
    - the cube facets in the meet are its implicit equations, which with
      the mask's forms give the span at any of its vertices.
    - two candidates, from two systems, are the same set iff they have the
      same vertices; the second one merges into the first.

    Candidates come in increasing mask order per system.  A span's
    saturated basis depends only on the coefficients of its equations, the
    same in every system, so it is computed once per meet in a search, and
    beta is read off a vertex's integers.

    The labels and witnesses are read at the sample.  A face is crossed
    when some form of some system is negative at one of its vertices and
    positive at another.  An uncrossed face's sample is the centroid of
    its vertices, with no solve: every point of the relative interior is a
    strictly positive combination of all the vertices, so each form has
    one sign on it, and the labels and witnesses are the same at every
    such point.  On a crossed face another germ's region can cover part of
    the relative interior only, so labels read at two points can differ;
    such a face keeps the point relative_interior_point returns on its
    first candidate's region, the call the mask walk makes for that region.

    P can have about 2^r vertices whatever its forms, so a search the
    vertex route cannot afford (MAX_VERTEX_WORK) is run by the mask walk
    (see _walk_candidates), which finds the same faces and samples each at
    its solve's point.  When the corners alone pass the cap, the walk is
    chosen, and its first solve estimated, before the cube is built.
    """
    r, nexc = data.r, len(data.exceptional)
    systems = _systems(data)
    refusal = ("face search needs more than {cap} units of region solve work (%d branches, %d exceptional "
               "components, %d constraint systems)" % (r, nexc, len(systems)))
    with work.ledger(MAX_REGION_WORK=refusal):
        cube = None
        try:
            work.check("MAX_VERTEX_WORK", len(systems) * (r << r), "")
            cube = cube_bounds(r)
            found = _vertex_candidates(data, systems, cube)
        except work.Refused:
            if cube is None:
                work.check("MAX_REGION_WORK", 2 * (nexc + 2 * r) * (r + 1), refusal)
                cube = cube_bounds(r)
            found = _walk_candidates(data, systems, cube)
        faces = []
        for cand in found:
            sample = cand.sample
            if sample is None:
                sample, _ = relative_interior_point(cand.ineqs, cand.tight_forms[:cand.own], r)
            witnesses = _weight_witnesses(data, systems, sample)
            faces.append(
                FaceOfQuasiadjunction(
                    span=cand.span,
                    tight=tuple(cand.tight_forms),
                    ambient=tuple(dict.fromkeys(cand.ineqs)),
                    dim=r - len(cand.span),  # span is a lattice basis of the equations
                    sample=sample,
                    labels={l: len(labels) for l, labels in witnesses.items()},
                    witnesses=witnesses,
                    germ_labels=tuple(g.label for g in data.germs if g.label in cand.germs),
                )
            )
    faces.sort(key=lambda f: (-f.dim, f.span))
    return faces


# ---------------------------------------------------------------------------
# log canonical threshold


@dataclass(frozen=True)
class LogCanonicalBoundary:
    gamma: Fraction                      # largest t with (t, ..., t) log canonical
    face: FaceOfQuasiadjunction | None   # face met by the boundary point, if inside the cube

    def contains_gamma(self, gamma_point) -> bool:
        """Whether a weight vector gamma lies on the boundary face (tested in
        cube coordinates x = 1 - gamma)."""
        x = tuple(1 - rat(g) for g in gamma_point)
        return self.face is not None and self.face.contains(x)


def lct_face(data: ResolutionData, faces=None) -> LogCanonicalBoundary:
    """The unit-germ boundary: gamma* = min_E (c_E + 1) / sum_i a_{i,E}.

    The corresponding cube point is x = 1 - gamma* on the diagonal; when it
    lies in the cube it sits on the face of quasiadjunction cut out by the
    unit germ (the log canonical threshold face).
    """
    unit = data.unit_germ
    gamma = min(Fraction(exc.c + 1, sum(exc.a)) for exc in data.exceptional)
    point = tuple(Fraction(1) - gamma for _ in range(data.r))
    face = None
    if all(0 <= v <= 1 for v in point):
        if faces is None:
            faces = faces_of_quasiadjunction(data)
        for f in faces:
            if unit.label in f.germ_labels and f.contains(point):
                face = f
                break
    return LogCanonicalBoundary(gamma, face)


def faces_stabilized(data: ResolutionData) -> bool:
    """For builtin cone families: whether raising the germ degree bound by
    one leaves the faces (affine spans and labels) unchanged.

    Exact, with no face search.  A germ of degree s of the cone over
    degrees d in C^(n+1) has the single constraint
    sum_i d_i (1 - x_i) <= s + n + 1, which cuts a face with a strictly
    positive point iff s + n + 1 < sum(d), and is tight on no other face.
    So bound + 1 adds a face iff bound + n + 2 < sum(d), and never changes
    the labels of the faces already there.
    """
    if data.family is None or data.family[0] != "cone":
        raise ValueError("stabilization check needs family provenance")
    degrees, n, bound = data.family[1], data.family[2], data.family[3]
    return bound >= sum(degrees) - n - 2
