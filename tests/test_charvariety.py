"""Translated subtori, principal components, and the torus polynomial."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import quasiadj.charvariety as charvariety
import quasiadj.cli as cli
import quasiadj.work as work
from quasiadj.charvariety import (
    CharacterPoint,
    PrincipalComponent,
    TranslatedSubtorus,
    classify_essential,
    exp_face,
    make_subtorus,
    polynomial_invariant,
    principal_components,
    principal_f,
    project_subtorus,
    subtorus_contains,
    torsion_characters,
)
from quasiadj.quasiadjunction import faces_of_quasiadjunction
from quasiadj.resolution import cone_over, generic_arrangement

import rational_reference as reference

F = Fraction


def test_character_point_basics():
    chi = CharacterPoint.from_phases((F(5, 4), F(-1, 3), F(0)))
    assert chi.phases == (F(1, 4), F(2, 3), F(0))
    assert chi.r == 3
    assert chi.order == 12
    assert chi.support() == (0, 1)
    assert not chi.is_trivial()
    assert chi.conjugate().phases == (F(3, 4), F(1, 3), F(0))
    assert chi.restrict((0, 2)).phases == (F(1, 4), F(0))
    assert CharacterPoint(4, (2, 2)).phases == (F(1, 2), F(1, 2))
    with pytest.raises(TypeError):
        CharacterPoint.from_phases((0.5,))


def test_torsion_characters_enumeration():
    chars = list(torsion_characters((2, 3)))
    assert len(chars) == 6
    assert len(set(chars)) == 6
    with pytest.raises(ValueError):
        list(torsion_characters((10000, 10000)))  # cap exceeded


def test_character_sweep_work_is_bounded(monkeypatch, capsys):
    # an order-3 sweep of the 4-line arrangement visits 81 characters
    monkeypatch.setattr(work, "MAX_CHARACTERS", 81)
    assert len(list(torsion_characters((3,) * 4))) == 81
    with pytest.raises(ValueError, match="size 82 exceeds cap 81"):
        list(torsion_characters((2, 41)))
    argv = ["oracle", "--arrangement", "4", "--n", "2", "--order", "3"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(work, "MAX_CHARACTERS", 80)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "error: character sweep of size 81 exceeds cap 80" in capsys.readouterr().err


def test_character_canonical_form():
    # equal characters compare and hash equal however they were built
    rng = random.Random(313)
    for _ in range(1000):
        raw = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 6, 12))) for _ in range(rng.randint(0, 5))]
        chi = CharacterPoint.from_phases(raw)
        assert chi.phases == tuple(reference._mod1(p) for p in raw)
        assert chi.order == lcm(*(p.denominator for p in chi.phases))
        assert all(0 <= k < chi.order for k in chi.exponents) and gcd(chi.order, *chi.exponents) == 1
        scale = rng.randint(1, 6)
        same = [CharacterPoint.from_phases([p + rng.randint(-3, 3) for p in raw]),
                CharacterPoint(chi.order * scale, tuple(k * scale + chi.order * scale * rng.randint(-2, 2)
                                                        for k in chi.exponents))]
        for other in same:
            assert other == chi and hash(other) == hash(chi)
            assert other.order == chi.order and other.phases == chi.phases
        assert chi.is_trivial() == (chi.order == 1) == all(p.denominator == 1 for p in raw)


def test_character_refuses_non_integers():
    for order, exponents in ((2.0, (1,)), (2, (1.0,)), (True, (0,)), (2, (0, False)), (F(2), (1,)), (2, (F(1),))):
        with pytest.raises(TypeError):
            CharacterPoint(order, exponents)
    for order in (0, -4):
        with pytest.raises(ValueError, match="order"):
            CharacterPoint(order, (1,))
    with pytest.raises(TypeError, match="floating point"):
        CharacterPoint.from_phases((F(1, 2), 0.25))


def test_character_containment_matches_rational_reference():
    # the integer test (v.k) q = b N mod N q against one Fraction dot product
    # per equation; half the tori are built through a point near the
    # character, so that containment is often true
    rng = random.Random(727)
    cases = contained = 0
    while cases < 2000:
        nvars = rng.randint(1, 5)
        raw = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 6, 12))) for _ in range(nvars)]
        if rng.random() < 0.5:
            near = [p + rng.choice((0, 0, 0, F(1, 2), F(1, 3))) for p in raw]
            vectors = [tuple(rng.randint(-3, 3) for _ in range(nvars)) for _ in range(rng.randint(1, nvars))]
            try:
                torus = make_subtorus(nvars, [(v, sum(c * p for c, p in zip(v, near))) for v in vectors])
            except ValueError:
                continue
        else:
            torus = _random_subtorus(rng, nvars, rng.randint(0, nvars))
            if torus is None:
                continue
        chi = CharacterPoint.from_phases(raw)
        got = torus.contains(chi)
        assert got == reference.torus_contains_phases(torus, raw)
        assert torus.contains(chi.conjugate()) == reference.torus_contains_phases(torus, [-p for p in raw])
        keep = sorted(rng.sample(range(nvars), rng.randint(1, nvars)))
        sub = _random_subtorus(rng, len(keep), rng.randint(0, len(keep)))
        if sub is not None:
            assert sub.contains(chi.restrict(keep)) == reference.torus_contains_phases(sub, [raw[i] for i in keep])
        cases += 1
        contained += got
    assert 400 <= contained <= 1600  # 940 with this seed


def test_make_subtorus_canonicalizes():
    t = make_subtorus(2, [((2, 3), F(5, 2))])
    assert t.equations == (((2, 3), F(1, 2)),)
    assert t.codim == 1 and t.dim == 1
    # a non-saturated exponent lattice describes a disconnected set
    with pytest.raises(ValueError, match="saturated"):
        make_subtorus(2, [((4, 6), F(0))])


def test_exponent_vectors_must_be_ints_of_length_nvars():
    # a float was truncated, a short vector read the identity column as a
    # coordinate, and a long one lost its extra entries
    with pytest.raises(TypeError):
        make_subtorus(2, [((0.5, 1), F(1, 2))])
    with pytest.raises(TypeError):
        make_subtorus(2, [((True, 1), F(0))])
    with pytest.raises(TypeError):
        make_subtorus(2, [((F(1), 1), F(0))])
    with pytest.raises(ValueError, match="has 1 entries, not 2"):
        make_subtorus(2, [((1,), F(1, 2))])
    with pytest.raises(ValueError, match="has 3 entries, not 2"):
        make_subtorus(2, [((1, 2, 3), F(0))])
    with pytest.raises(TypeError):
        TranslatedSubtorus(2, (((0, 1.0), F(1, 3)),))
    with pytest.raises(TypeError):
        TranslatedSubtorus(2, (((0, True), F(1, 3)),))
    with pytest.raises(ValueError, match="has 1 entries, not 2"):
        TranslatedSubtorus(2, (((1,), F(1, 3)),))
    assert TranslatedSubtorus(2, (((0, 1), F(1, 3)),)) == make_subtorus(2, [((0, 1), F(1, 3))])


def test_make_subtorus_reads_phases_off_relations():
    # {t^2 = 1, t^3 = 1} is the connected set {t = 1}
    assert make_subtorus(1, [((2,), 0), ((3,), 0)]).equations == (((1,), F(0)),)
    # {t = 1, t = -1} is empty
    with pytest.raises(ValueError, match="empty"):
        make_subtorus(1, [((1,), 0), ((1,), F(1, 2))])


def test_subtorus_contains():
    big = make_subtorus(3, [((1, 1, 1), F(0))])
    # {t1 = t3, t2 = t3^-2}: on it t1 t2 t3 = 1 exactly when t3^0 = 1, always
    small = make_subtorus(3, [((1, 0, -1), F(0)), ((0, 1, 2), F(0))])
    assert subtorus_contains(big, small)
    nested_in = make_subtorus(3, [((1, 1, 1), F(0)), ((1, 0, 0), F(1, 2))])
    assert subtorus_contains(big, nested_in)
    assert not subtorus_contains(nested_in, big)
    shifted = make_subtorus(3, [((1, 1, 1), F(1, 2))])
    assert not subtorus_contains(big, shifted)


def test_project_subtorus():
    t = make_subtorus(3, [((1, 0, 0), F(0)), ((0, 1, 1), F(1, 2))])
    assert project_subtorus(t, 0).equations == (((1, 1), F(1, 2)),)
    free = make_subtorus(3, [((1, 1, 0), F(1, 2))])
    with pytest.raises(ValueError, match="not identically 1"):
        project_subtorus(free, 0)
    for index in (-1, 3):  # -1 used to drop the wrong phase silently
        with pytest.raises(IndexError):
            project_subtorus(t, index)


def test_exp_face_on_cone():
    data = cone_over((2, 3), 2, 3)
    faces = faces_of_quasiadjunction(data)
    tori = {exp_face(f, data.r).equations for f in faces}
    # both integer levels exponentiate onto the same torus t1^2 t2^3 = 1
    assert tori == {(((2, 3), F(0)),)}


def test_exp_face_keeps_translation():
    data = cone_over((2, 4), 2, 2)
    tori = {exp_face(f, data.r).equations for f in faces_of_quasiadjunction(data)}
    assert (((1, 2), F(0)),) in tori     # even level
    assert (((1, 2), F(1, 2)),) in tori  # odd level


def test_principal_components_cone():
    comps = principal_components(cone_over((2, 3), 2, 3))
    assert len(comps) == 1
    comp = comps[0]
    assert comp.torus.equations == (((2, 3), F(0)),)
    assert comp.k == 3 and comp.l == 1
    assert comp.contributions == ((1, 1), (1, 3))


def test_principal_components_arrangement():
    comps = principal_components(generic_arrangement(4, 2))
    assert len(comps) == 1
    assert comps[0].torus.equations == (((1, 1, 1, 1), F(0)),)
    assert comps[0].k == 1


def test_eigenvalue_points_of_one_variable_cone():
    comps = principal_components(cone_over((6,), 1, 3))
    table = {c.torus.equations[0][1]: c.k for c in comps}
    assert table == {F(1, 6): 4, F(1, 3): 3, F(1, 2): 2, F(2, 3): 1}


def test_principal_f_values():
    a4 = generic_arrangement(4, 2)
    comps = principal_components(a4)
    assert principal_f(CharacterPoint(4, (1,) * 4), comps) == 1
    assert principal_f(CharacterPoint.from_phases((F(1, 2), F(1, 2), F(0), F(0))), comps) == 1
    assert principal_f(CharacterPoint.from_phases((F(1, 2), F(0), F(0), F(0))), comps) == 0
    assert principal_f(CharacterPoint.from_phases((F(0),) * 4), comps) == 1  # trivial lies on the torus


def test_polynomial_invariant_exact():
    assert str(polynomial_invariant(principal_components(generic_arrangement(4, 2)), 4)) == "t1*t2*t3*t4 - 1"
    assert str(polynomial_invariant(principal_components(cone_over((2, 3), 2, 0)), 2)) == "t1^2*t2^3 - 1"
    cubed = polynomial_invariant(principal_components(cone_over((2, 3), 2, 3)), 2)
    base = polynomial_invariant(principal_components(cone_over((2, 3), 2, 0)), 2)
    assert cubed == base ** 3


def test_polynomial_invariant_galois_closure():
    # components at +1 and -1 of t1 t2^2 with k = 3 and 6
    poly = polynomial_invariant(principal_components(cone_over((2, 4), 2, 2)), 2)
    t1t2sq_plus = "t1*t2^2 + 1"
    factors = {}
    comps = principal_components(cone_over((2, 4), 2, 2))
    ks = {c.torus.equations[0][1]: c.k for c in comps}
    assert ks == {F(0): 3, F(1, 2): 6}
    # (v + 1)^6 (v - 1)^3 with v = t1 t2^2, exactly
    from quasiadj.cyclotomic import LaurentPoly

    v = LaurentPoly.monomial((1, 2), 1)
    one = LaurentPoly.constant(2, 1)
    assert poly == ((v + one) ** 6 * (v - one) ** 3).normalized()


def test_polynomial_invariant_needs_codimension_one():
    point = make_subtorus(2, [((1, 0), F(1, 2)), ((0, 1), F(1, 2))])
    comp = PrincipalComponent(torus=point, k=1, l=1, contributions=((1, 1),))
    with pytest.raises(ValueError):
        polynomial_invariant([comp], 2)


def test_classify_essential():
    rep = classify_essential(cone_over((1, 1, 1, 1), 2, 0))
    assert len(rep.essential) == 1 and not rep.nonessential
    rep2 = classify_essential(cone_over((2, 3, 4), 2, 0))
    assert len(rep2.essential) == 1 and not rep2.nonessential


def test_classify_essential_propagates_unexpected_errors(monkeypatch):
    # the subunion is built only for a branch the torus projects along, so
    # the component has to lie in a slice {t_i = 1} for the error to surface
    import quasiadj.charvariety as cv

    def broken(degrees, n, bound):
        raise KeyError(degrees)

    monkeypatch.setattr(cv, "cone_over", broken)
    torus = make_subtorus(3, [((0, 0, 1), F(0)), ((2, 3, 0), F(0))])
    with pytest.raises(KeyError):
        classify_essential(cone_over((2, 3, 4), 2, 0), components=[PrincipalComponent(torus, 1, 1, ((1, 1),))])


def test_classify_essential_projects_onto_subunion():
    data = cone_over((2, 3, 4), 2, 0)

    def component(phase3, phase12):
        torus = make_subtorus(3, [((0, 0, 1), phase3), ((2, 3, 0), phase12)])
        return PrincipalComponent(torus, 1, 1, ((1, 1),))

    # {t3 = 1, t1^2 t2^3 = 1} projects onto the component of branches 1, 2
    comp = component(F(0), F(0))
    rep = classify_essential(data, components=[comp])
    assert not rep.essential
    ((got, index, witness),) = rep.nonessential
    assert got == comp and index == 2
    assert witness.torus == make_subtorus(2, [((2, 3), F(0))])
    # t3 = -1 is not the slice t3 = 1; t1^2 t2^3 = -1 is in no subunion component
    for phases in ((F(1, 2), F(0)), (F(0), F(1, 2))):
        comp = component(*phases)
        rep = classify_essential(data, components=[comp])
        assert rep.essential == (comp,) and not rep.nonessential


def _random_subtorus(rng, nvars, count):
    eqs = [(tuple(rng.randint(-3, 3) for _ in range(nvars)), F(rng.randint(0, 5), rng.choice((1, 2, 3, 4, 6))))
           for _ in range(count)]
    try:
        return make_subtorus(nvars, eqs)
    except ValueError:
        return None  # disconnected or empty


def test_subtorus_contains_matches_rational_reference():
    rng = random.Random(616)
    pairs = contained = 0
    while pairs < 1000:
        nvars = rng.randint(1, 4)
        inner = _random_subtorus(rng, nvars, rng.randint(0, nvars))
        if inner is None:
            continue
        if inner.equations and rng.random() < 0.5:
            # integer combinations of inner's equations, with their phases or shifted
            combos = [[rng.randint(-2, 2) for _ in inner.equations] for _ in range(rng.randint(1, inner.codim))]
            eqs = [(tuple(sum(c * v[j] for c, (v, _) in zip(row, inner.equations)) for j in range(nvars)),
                    sum(c * b for c, (_, b) in zip(row, inner.equations)) + rng.choice((0, 0, F(1, 2))))
                   for row in combos]
            try:
                outer = make_subtorus(nvars, eqs)
            except ValueError:
                continue
        else:
            outer = _random_subtorus(rng, nvars, rng.randint(0, nvars))
            if outer is None:
                continue
        got = subtorus_contains(outer, inner)
        assert got == reference.subtorus_contains(outer, inner)
        pairs += 1
        contained += got
    assert contained >= 100  # 586 of the 1000 with this seed


def test_containment_properties_randomized():
    rng = random.Random(444)
    comps = principal_components(generic_arrangement(4, 2))
    big = make_subtorus(3, [((1, 1, 1), F(0))])
    cases = 0
    while cases < 1000:
        phases = tuple(F(rng.randint(0, 5), rng.choice((1, 2, 3, 4, 6))) for _ in range(4))
        chi = CharacterPoint.from_phases(phases)
        # containment is conjugation-symmetric for these self-conjugate tori
        for comp in comps:
            assert comp.contains(chi) == comp.contains(chi.conjugate())
            assert comp.contains(chi) == (sum(chi.phases) % 1 == 0)
        chi3 = CharacterPoint.from_phases(phases[:3])
        assert big.contains(chi3) == (sum(chi3.phases) % 1 == 0)
        cases += 1


def test_slice_consistency_after_deletion():
    # sub-family components extended by phase 0 stay inside full components
    degrees = (2, 3, 4)
    data = cone_over(degrees, 2, 0)
    full = principal_components(data)
    for index in range(data.r):
        sub = cone_over(degrees[:index] + degrees[index + 1:], 2, 0)
        for comp in principal_components(sub):
            for chi in torsion_characters((4,) * sub.r):
                if not comp.contains(chi):
                    continue
                extended = CharacterPoint.from_phases(chi.phases[:index] + (F(0),) + chi.phases[index:])
                assert any(c.contains(extended) for c in full)
