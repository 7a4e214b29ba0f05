"""Resolution data model, validation, and the document format."""

import io
import random
from fractions import Fraction

import pytest

from quasiadj.resolution import (
    ExceptionalComponent,
    GermBasisElement,
    IncidenceRecord,
    QuasiArray,
    ResolutionData,
    ResolutionError,
    cone_over,
    delete_component,
    generic_arrangement,
    is_generic_arrangement,
    load_resolution,
    serialize_resolution,
    validate_resolution,
)

F = Fraction


def test_cone_over_shape():
    data = cone_over((2, 3), 2, 3)
    assert data.r == 2 and data.n == 2
    assert len(data.exceptional) == 1
    exc = data.exceptional[0]
    assert exc.a == (2, 3) and exc.c == 2
    # monomials in n+1 = 3 variables of total degree <= 3
    assert len(data.germs) == 1 + 3 + 6 + 10
    assert data.unit_germ.degree == 0
    assert data.family == ("cone", (2, 3), 2, 3)


def test_generic_arrangement_is_unit_degree_cone():
    data = generic_arrangement(4, 2)
    assert data.r == 4
    assert data.exceptional[0].a == (1, 1, 1, 1)
    assert is_generic_arrangement(data)
    assert not is_generic_arrangement(cone_over((2, 3), 2))


def test_quasi_array():
    q = QuasiArray((0, 1), (2, 3))
    assert q.x_point() == (F(1, 2), F(2, 3))
    with pytest.raises(ResolutionError):
        QuasiArray((2, 0), (2, 3))  # j must stay below m
    with pytest.raises(ResolutionError):
        QuasiArray((0,), (0,))


def test_germ_lookup():
    data = cone_over((2, 3), 2, 2)
    g = data.germ("x0*x1")
    assert g.degree == 2
    with pytest.raises(KeyError):
        data.germ("x9")


def test_validate_rejects_bad_data():
    base = cone_over((2, 3), 2, 1)
    dup = ResolutionData(
        r=base.r, n=base.n, component_names=("b1", "b1"),
        exceptional=base.exceptional, incidence=base.incidence,
        germs=base.germs, family=None,
    )
    with pytest.raises(ResolutionError, match="duplicate names"):
        validate_resolution(dup)
    zero_a = ResolutionData(
        r=2, n=2, component_names=("b1", "b2"),
        exceptional=(ExceptionalComponent("E0", (0, 0), 1),),
        incidence=(IncidenceRecord(frozenset({"E0"}), 1),),
        germs=base.germs, family=None,
    )
    with pytest.raises(ResolutionError, match="all multiplicities zero"):
        validate_resolution(zero_a)
    ghost = ResolutionData(
        r=2, n=2, component_names=("b1", "b2"),
        exceptional=base.exceptional,
        incidence=base.incidence + (IncidenceRecord(frozenset({"E9"}), 1),),
        germs=base.germs, family=None,
    )
    with pytest.raises(ResolutionError, match="unknown"):
        validate_resolution(ghost)


def test_serialize_round_trip():
    for data in (cone_over((2, 3), 2, 3), generic_arrangement(5, 3, 1), cone_over((6,), 1, 2)):
        text = serialize_resolution(data)
        back = load_resolution(io.StringIO(text))
        assert back == data


def test_round_trip_property():
    rng = random.Random(715)
    for _ in range(1000):
        r = rng.randint(1, 4)
        degrees = tuple(rng.randint(1, 5) for _ in range(r))
        n = rng.randint(1, 3)
        bound = rng.randint(0, 2)
        data = cone_over(degrees, n, bound)
        assert load_resolution(io.StringIO(serialize_resolution(data))) == data


def test_load_rejects_unknown_fields():
    doc = serialize_resolution(cone_over((2,), 1, 0))
    with pytest.raises(ResolutionError, match="unknown field"):
        load_resolution(io.StringIO(doc + "\nwhatever: 3\n"))


def test_load_rejects_malformed_documents():
    bad_cases = [
        ("r: 1\n", "missing field"),          # missing required field
        ("r: one\nn: 1\ncomponents: [b1]\nexceptional: []\nincidence: []\ngerms: []\n",
         "expected an integer"),               # type error
    ]
    for text, needle in bad_cases:
        with pytest.raises(ResolutionError, match=needle):
            load_resolution(io.StringIO(text))
    with pytest.raises(ResolutionError):
        load_resolution(io.StringIO("- just\n- a list\n"))


def test_load_checks_incidence_closure():
    data = cone_over((2, 3), 2, 0)
    doc = serialize_resolution(data)
    # an incidence pair over unknown ids must be refused
    broken = doc.replace("incidence:", "incidence:\n- members: [E0, E7]\n  fold: 2")
    with pytest.raises(ResolutionError, match="E7"):
        load_resolution(io.StringIO(broken))


def test_load_rejects_family_tag_that_mismatches_data():
    doc = serialize_resolution(cone_over((1, 1, 1, 1), 2, 0))
    assert load_resolution(io.StringIO(doc)).family == ("cone", (1, 1, 1, 1), 2, 0)
    # the tag would make a (5, 7, 1, 1) chart pass for a generic arrangement
    with pytest.raises(ResolutionError, match="family .* exceptional"):
        load_resolution(io.StringIO(doc.replace("a: [1, 1, 1, 1]", "a: [5, 7, 1, 1]")))
    with pytest.raises(ResolutionError, match="family .* germs"):
        load_resolution(io.StringIO(serialize_resolution(cone_over((2, 3), 2, 1)).replace("- 1\n", "- 0\n")))


def test_delete_component_cone_family():
    data = cone_over((2, 3, 4), 2, 1)
    sub = delete_component(data, 1)
    assert sub.r == 2
    assert sub.exceptional[0].a == (2, 4)
    assert sub.family == ("cone", (2, 4), 2, 1)
    validate_resolution(sub)


def test_delete_component_needs_family_or_flag():
    data = cone_over((2, 3), 2, 0)
    bare = ResolutionData(
        r=data.r, n=data.n, component_names=data.component_names,
        exceptional=data.exceptional, incidence=data.incidence,
        germs=data.germs, family=None,
    )
    with pytest.raises(ResolutionError):
        delete_component(bare, 0)
    sub = delete_component(bare, 0, allow_user_data=True)
    assert sub.r == 1


def test_unit_germ_always_present():
    data = cone_over((3, 3), 2, 0)
    assert data.unit_germ.degree == 0
    assert data.unit_germ.e == ()
