"""Ideals and faces of quasiadjunction.

For a germ phi and an exceptional component E the controlling inequality is

    a_{1,E}(1 - x_1) + ... + a_{r,E}(1 - x_r)  <=  e_E(phi) + c_E + 1

evaluated at the cube point x_i = (j_i + 1)/m_i of a branching array (j|m).
Strict inequality at every E puts phi in the ideal of quasiadjunction; the
weak version is the logarithmic ideal, and the locus of equality cuts the
faces of quasiadjunction out of the unit cube.  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .ratgeom import (
    AffineForm,
    HalfspaceSystem,
    Infeasible,
    cube_bounds,
    lp_maximize,
    relative_interior_point,
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
    coeffs = tuple(Fraction(-ai) for ai in exc.a)
    return AffineForm(coeffs, Fraction(sum(exc.a) - threshold(exc, germ)))


@dataclass(frozen=True)
class MembershipVerdict:
    in_ideal: bool
    in_log_ideal: bool
    weight: int                       # max incidence fold among all-tight records; 0 unless boundary
    tight_exceptional: tuple[str, ...]
    x: tuple[Fraction, ...]


def _verdict_at(data: ResolutionData, forms: tuple[AffineForm, ...], x) -> MembershipVerdict:
    """Verdict at x for the germ whose constraint forms, one per exceptional
    component, are forms."""
    values = {exc.id: f.value(x) for exc, f in zip(data.exceptional, forms)}
    in_log = all(v <= 0 for v in values.values())
    in_ideal = all(v < 0 for v in values.values())
    tight = tuple(sorted(eid for eid, v in values.items() if v == 0))
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
    return _verdict_at(data, _forms(data, germ), array.x_point())


def multiplier_ideal_membership(data: ResolutionData, germ, gamma) -> bool:
    """phi in J(D_gamma): e_E(phi) + c_E + 1 > sum_i a_{i,E} gamma_i at every E.

    Independent of the cube machinery on purpose; the identity with
    membership(...) under gamma_i = 1 - (j_i + 1)/m_i is a test target.
    """
    if isinstance(germ, str):
        germ = data.germ(germ)
    gamma = [Fraction(g) if not isinstance(g, float) else None for g in gamma]
    if None in gamma:
        raise TypeError("floating point weight rejected")
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
    """weight_witnesses with the systems already built: one verdict per system."""
    weights = {}
    for forms, labels in systems.items():
        weights.update(dict.fromkeys(labels, _verdict_at(data, forms, x).weight))
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
    full inequality system (all contributing germs' constraints plus cube
    facets) so that containment can be tested exactly.
    """

    span: tuple[tuple[tuple[int, ...], Fraction], ...]
    tight: tuple[AffineForm, ...]
    ambient: HalfspaceSystem
    dim: int
    sample: tuple[Fraction, ...]
    labels: dict[int, int]
    witnesses: dict[int, tuple[str, ...]]
    germ_labels: tuple[str, ...]

    def contains(self, x) -> bool:
        # tight and ambient cut out the face's region, which lies on the span
        return all(f.value(x) == 0 for f in self.tight) and self.ambient.contains(x)


class _Candidate:
    __slots__ = ("span", "eqs", "ineqs", "sample", "tight_keys", "tight_forms", "germs")

    def __init__(self, span, eqs, ineqs, sample, tight_forms, germ_labels):
        self.span = span
        self.eqs = list(eqs)
        self.ineqs = list(ineqs)
        self.sample = sample
        self.tight_keys = {f.equation_key() for f in tight_forms}
        self.tight_forms = list(tight_forms)
        self.germs = set(germ_labels)


def _same_face(a: _Candidate, b: _Candidate, r: int) -> bool:
    """Exact set equality of two candidates with equal affine span: each
    one's inequalities hold on the other's set.  One solve per side, and
    both sides always run."""
    same = True
    for first, second in ((a, b), (b, a)):
        # objective den * g.coeffs (g.scaled): g <= 0 holds iff opt <= -den * g.const
        optima = lp_maximize([g.scaled[1] for g in second.ineqs], first.ineqs, first.eqs, r)
        same &= all(opt <= -g.scaled[2] for g, (opt, _) in zip(second.ineqs, optima))
    return same


# region solves (lp_maximize calls) one face search may make before it gives up
MAX_REGION_SOLVES = 100_000


def faces_of_quasiadjunction(data: ResolutionData) -> list[FaceOfQuasiadjunction]:
    """All faces of quasiadjunction of the union, merged across germs.

    A germ enters only through its constraint system, so germs whose
    valuations give the same system share one search and every face it
    finds.  A candidate is kept only if it carries a point with every
    coordinate strictly positive: realizable branching parameters
    (j_i+1)/m_i never vanish, so boundary pieces inside the coordinate
    hyperplanes bound no actual jump.

    Each search walks the masks of tight exceptional components in
    increasing numeric order and solves a mask's region only when every
    mask with one bit cleared has a nonempty region.  Invariant: when a mask
    is taken from the queue, every smaller mask has been decided, and
    `feasible` holds exactly the decided masks (the empty mask included)
    whose region is nonempty.  Skipping is exact, because one more tight
    component adds an equality and so only shrinks the region: a mask
    skipped or found empty has empty supersets.  The walk costs one solve
    per mask with no empty one-bit-smaller mask, plus two per candidate
    comparison; a search that would make more than MAX_REGION_SOLVES
    solves raises ValueError.
    """
    r = data.r
    cube = cube_bounds(r)
    nexc = len(data.exceptional)
    systems = _systems(data)
    buckets: dict[tuple, list[_Candidate]] = {}
    order: list[tuple] = []
    solves = 0

    def spend(count: int) -> None:
        nonlocal solves
        solves += count
        if solves > MAX_REGION_SOLVES:
            raise ValueError(
                "face search needs more than %d region solves (%d exceptional components, %d constraint systems)"
                % (MAX_REGION_SOLVES, nexc, len(systems)))

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
            spend(1)
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
            cube_eqs = [ineqs[k] for k in implicit]
            span = tuple(span_equations(eqs + cube_eqs, sample))
            cand = _Candidate(span, eqs + cube_eqs, ineqs, sample, eqs, labels)
            bucket = buckets.setdefault(span, [])
            if not bucket:
                order.append(span)
            for known in bucket:
                spend(2)
                if _same_face(known, cand, r):
                    known.germs.update(labels)
                    for f in eqs:
                        if f.equation_key() not in known.tight_keys:
                            known.tight_keys.add(f.equation_key())
                            known.tight_forms.append(f)
                    break
            else:
                bucket.append(cand)
    faces = []
    for span in order:
        for cand in buckets[span]:
            witnesses = _weight_witnesses(data, systems, cand.sample)
            faces.append(
                FaceOfQuasiadjunction(
                    span=span,
                    tight=tuple(cand.tight_forms),
                    ambient=HalfspaceSystem(tuple(dict.fromkeys(cand.ineqs))),
                    dim=r - len(span),  # span is a lattice basis of the equations
                    sample=cand.sample,
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
        if self.face is None:
            return False
        x = tuple(Fraction(1) - Fraction(g) for g in gamma_point)
        return self.face.contains(x)


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
