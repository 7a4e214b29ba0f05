"""Resolution data model, validation, and the document format."""

import io
import random
import re
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import quasiadj.charvariety as cv
import quasiadj.cli as cli
import quasiadj.resolution as resolution
import quasiadj.work as work
from quasiadj.charvariety import PrincipalComponent, classify_essential, make_subtorus
from quasiadj.covers import betti_tables
from quasiadj.resolution import (
    ExceptionalComponent,
    GermBasisElement,
    IncidenceRecord,
    QuasiArray,
    ResolutionData,
    ResolutionError,
    cone_over,
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


def test_data_model_refuses_floats_and_bools():
    # truncating 1.9 to 1 would silently change an invariant
    base = cone_over((2, 3), 2, 0)
    cases = [
        lambda: ExceptionalComponent("E0", (1.9, 2), 1),
        lambda: ExceptionalComponent("E0", (True, 2), 1),
        lambda: ExceptionalComponent("E0", (1, 2), 1.0),
        lambda: GermBasisElement("g", 1, (("E0", 1.9),)),
        lambda: GermBasisElement("g", 1, (("E0", False),)),
        lambda: GermBasisElement("g", 1.0, ()),
        lambda: GermBasisElement("g", True, ()),
        lambda: GermBasisElement("g", 1, ((0, 1),)),  # e keys are exceptional ids
        lambda: QuasiArray((0.9,), (2.5,)),
        lambda: QuasiArray((0,), (True,)),
        lambda: cone_over((2.5, 1), 1),
        lambda: cone_over((True, 1), 1),
        lambda: cone_over((2, 1), 1.5, 0),  # used to recurse without end
        lambda: cone_over((2, 1), 1, 0.5),
        lambda: cone_over((2, 1), 1, False),
        # ids, labels and names are strings, or load(serialize(d)) refuses d
        lambda: ExceptionalComponent(7, (2, 3), 2),
        lambda: GermBasisElement(1, 0, ()),
        lambda: IncidenceRecord(frozenset(["E0", 7]), 2),
        lambda: replace(base, component_names=("D1", 2)),
        lambda: IncidenceRecord(frozenset(["E0", "E1"]), 2.5),  # a face would report l=2.5
        lambda: replace(base, r=2.0),  # used to fail later in cube_bounds
        lambda: replace(base, n=True),
    ]
    for make in cases:
        with pytest.raises(ResolutionError, match="expected an integer|expected a string"):
            make()
    assert GermBasisElement("g", 1, {"E0": 2}).e == (("E0", 2),)


def test_principal_side_refuses_int_subclasses():
    # PyYAML's safe dumper cannot represent an int subclass, so none may enter
    D = IntEnum("D", {"TWO": 2, "THREE": 3})
    with pytest.raises(ResolutionError, match=r"cone family: degrees\[0\]: expected an integer"):
        cone_over((D.TWO, D.THREE), 2, 1)
    with pytest.raises(ResolutionError, match=r"order\[0\]: expected an integer"):
        next(cv.torsion_characters((D.TWO, 2)))
    with pytest.raises(ResolutionError, match=r"m\[0\]: expected an integer"):
        betti_tables(cone_over((2, 3), 2, 1), (D.TWO, 2))


def test_cone_germ_basis_is_bounded(monkeypatch, capsys):
    # degree <= 3 in 3 variables is C(6, 3) = 20 monomials, degree <= 4 is 35
    monkeypatch.setattr(work, "MAX_GERMS", 20)
    assert len(cone_over((2, 3), 2, 3).germs) == 20
    with pytest.raises(ResolutionError, match="35 germs .* exceed cap 20"):
        cone_over((2, 3), 2, 4)
    assert cli.main(["faces", "--cone", "2,3", "--n", "2", "--bound", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["faces", "--cone", "2,3", "--n", "2", "--bound", "4"]) == 1
    assert "error: cone family: 35 germs" in capsys.readouterr().err


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


def _two_branch_data():
    """Valid data: two branches, two exceptional components that meet
    with fold 2, the unit germ and one germ of degree 1."""
    e1, e2 = ExceptionalComponent("E1", (1, 2), 1), ExceptionalComponent("E2", (2, 1), 0)
    return ResolutionData(
        r=2, n=1, component_names=("D1", "D2"), exceptional=(e1, e2),
        incidence=(IncidenceRecord(frozenset({"E1"}), 1), IncidenceRecord(frozenset({"E2"}), 1),
                   IncidenceRecord(frozenset({"E1", "E2"}), 2)),
        germs=(GermBasisElement("1", 0, ()), GermBasisElement("g", 1, (("E1", 1),))),
    )


def test_resolution_refusals_pin_their_messages():
    # one row per refusal of the data model, the loader and the builtin
    # families, each reached from otherwise valid input
    base = _two_branch_data()
    e1, e2 = base.exceptional
    single1, single2, pair = base.incidence
    unit, g = base.germs

    def validate(**changes):
        return lambda: validate_resolution(replace(base, **changes))

    doc = serialize_resolution(cone_over((1, 2), 1, 1))
    exceptional = "exceptional:\n- id: E0\n  a: [1, 2]\n  c: 1\n"
    germ = "- label: x1\n  degree: 1\n  e: {E0: 1}\n"
    incidence = "incidence:\n- members: [E0]\n  fold: 1\n"
    family = "family:\n- cone\n- [1, 2]\n- 1\n- 1\n"
    assert all(part in doc for part in (exceptional, germ, incidence, family))

    def load(old, new):
        return lambda: load_resolution(io.StringIO(doc.replace(old, new)))

    rows = [
        (validate(r=0), "r = 0 < 1"),
        (validate(n=0), "n = 0 < 1"),
        (validate(component_names=("D1",)), "components: 1 names for r = 2"),
        (validate(exceptional=()), "exceptional: empty"),
        (validate(exceptional=(e1, replace(e2, id="E1"))), "exceptional: duplicate ids"),
        (validate(exceptional=(e1, replace(e2, a=(2,)))), r"exceptional\[1\]: a has length 1, expected r = 2"),
        (validate(exceptional=(e1, replace(e2, a=(3, -1)))), r"exceptional\[1\]: negative multiplicity"),
        (validate(exceptional=(e1, replace(e2, c=-1))), r"exceptional\[1\]: c = -1 < 0"),
        (validate(incidence=(IncidenceRecord(frozenset(), 1),) + base.incidence),
         r"incidence\[0\]: empty member set"),
        (validate(incidence=(single1, single2, replace(pair, fold=0))), r"incidence\[2\]: fold 0 < 1"),
        (validate(incidence=(replace(single1, fold=2), single2, pair)), r"incidence\[0\]: singleton fold must be 1"),
        (validate(incidence=base.incidence + (pair,)), r"incidence\[3\]: duplicate member set"),
        (validate(incidence=(single1, pair)), r"incidence: missing singleton \{E2\}"),
        (validate(exceptional=(e1, e2, replace(e2, id="E3")),
                  incidence=base.incidence + (IncidenceRecord(frozenset({"E3"}), 1),
                                              IncidenceRecord(frozenset({"E1", "E2", "E3"}), 3))),
         r"incidence: not subset-closed, missing \{E1, E3\}"),
        (validate(germs=(unit, g, replace(g, degree=2))), "germs: duplicate labels"),
        (validate(germs=(unit, replace(g, degree=-1))), r"germs\[1\]: negative degree"),
        (validate(germs=(unit, GermBasisElement("g", 1, (("E2", -1),)))), r"germs\[1\]: negative valuation for 'E2'"),
        (validate(germs=(g,)), "no unit germ present"),
        (lambda: replace(base, germs=(g,)).unit_germ, "no unit germ present"),
        (load(exceptional, exceptional.replace("  c: 1\n", "")), r"exceptional\[0\]: missing field 'c'"),
        (load(germ, germ.replace("  degree: 1\n", "")), r"germs\[1\]: missing field 'degree'"),
        (load(incidence, "incidence:\n- {fold: 1}\n"), r"incidence\[0\]: missing field 'members'"),
        (load(exceptional, "exceptional: 3\n"), "exceptional: expected a list"),
        (load(germ, germ.replace("{E0: 1}", "[1]")), r"germs\[1\]\.e: expected a mapping"),
        (load(family, "family:\n- sphere\n"), r"family: only \['cone', \[degrees\], n, bound\] is understood"),
        (load(family, "family:\n- cone\n- [1, 2]\n- 1\n"), r"family: expected \['cone', \[degrees\], n, bound\]"),
        (lambda: QuasiArray((0, 1), (2,)), "quasi array: j and m have different lengths"),
        (lambda: cone_over((1, 2), 0), "cone family: n = 0 < 1"),
        (lambda: cone_over((1, 2), 1, -1), "cone family: degree bound -1 < 0"),
        (lambda: generic_arrangement(0, 1), "arrangement: r = 0 < 1"),
    ]
    validate_resolution(base)
    for refuse, message in rows:
        with pytest.raises(ResolutionError, match="^%s$" % message):
            refuse()


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
    family = "family:\n- cone\n- [1, 1, 1]\n"
    doc = serialize_resolution(cone_over((1, 1, 1), 2, 0))
    assert family in doc
    bad_cases += [
        (doc.replace(family, "family:\n- cone\n- [1.9, 1, true]\n"), r"family\[1\]\[0\]: expected an integer"),
        (doc.replace(family, "family:\n- cone\n- [1, 1, true]\n"), r"family\[1\]\[2\]: expected an integer"),
        (doc.replace(family, "family:\n- cone\n- [a, 1, 1]\n"), r"family\[1\]\[0\]: expected an integer"),
        (doc.replace("n: 2\n", "n: 2.0\n"), "n: expected an integer"),
    ]
    for text, needle in bad_cases:
        with pytest.raises(ResolutionError, match=needle):
            load_resolution(io.StringIO(text))
    with pytest.raises(ResolutionError):
        load_resolution(io.StringIO("- just\n- a list\n"))


def test_load_rejects_duplicate_keys():
    doc = serialize_resolution(cone_over((3, 2), 2, 1))
    assert doc.startswith("r: 2\n") and "  c: 2\n" in doc and "- label: x0\n" in doc
    for text in (
        "r: 3\n" + doc,
        doc.replace("  c: 2\n", "  c: 2\n  c: 1\n"),
        doc.replace("- label: x0\n", "- label: x0\n  label: x0\n"),
        doc.replace("e: {E0: 1}", "e: {E0: 1, E0: 0}", 1),
    ):
        with pytest.raises(ResolutionError, match="duplicate key"):
            load_resolution(io.StringIO(text))
    # merge keys are not duplicates: an explicit key overrides a merged one
    merged = "r: 1\nn: 1\nexceptional:\n- <<: {id: E0, a: [2], c: 0}\n  c: 1\ngerms: []\n"
    assert load_resolution(io.StringIO(merged)).exceptional[0].c == 1


def test_load_rejects_non_string_valuation_keys():
    doc = serialize_resolution(cone_over((2,), 1, 1))
    with pytest.raises(ResolutionError, match=r"germs\[1\]\.e key 0: expected a string"):
        load_resolution(io.StringIO(doc.replace("e: {E0: 1}", "e: {0: 1}", 1)))


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


def _count_subunions(monkeypatch):
    """Record the arguments of every cone_over call classify_essential makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return cone_over(*args)

    monkeypatch.setattr(cv, "cone_over", counted)
    return calls


def _slice_component(r, index):
    """A component inside the slice {t_index = 1}, so classify_essential
    projects it along branch index."""
    unit = tuple(int(j == index) for j in range(r))
    return PrincipalComponent(make_subtorus(r, [(unit, F(0))]), 1, 1, ((1, 1),))


def test_classify_essential_builds_subunion_as_cone_over_kept_degrees(monkeypatch):
    calls = _count_subunions(monkeypatch)
    data = cone_over((2, 3, 4), 2, 1)
    comp = _slice_component(3, 1)
    classify_essential(data, components=[comp])
    # the subunion without branch 2 is the cone over (2, 4), with the family's n and bound
    assert calls == [((2, 4), 2, 1)]
    validate_resolution(cone_over(*calls[0]))


def test_classify_essential_without_family_or_with_one_branch(monkeypatch):
    calls = _count_subunions(monkeypatch)
    data = cone_over((2, 3), 2, 0)
    bare = ResolutionData(
        r=data.r, n=data.n, component_names=data.component_names,
        exceptional=data.exceptional, incidence=data.incidence,
        germs=data.germs, family=None,
    )
    for d in (bare, cone_over((3,), 2, 0)):
        comps = [_slice_component(d.r, 0)]
        rep = classify_essential(d, components=comps)
        assert rep.essential == tuple(comps) and rep.nonessential == ()
    assert calls == []


def test_unit_germ_always_present():
    data = cone_over((3, 3), 2, 0)
    assert data.unit_germ.degree == 0
    assert data.unit_germ.e == ()


# ---------------------------------------------------------------------------
# loader fuzzing

NAMES = st.text(alphabet="aEy0-: '#", min_size=1, max_size=4)


@st.composite
def charts(draw, typed=True):
    """Valid chart data built in Python.  Unless typed, any field may be
    swapped for a look-alike of another type (1 -> 1.0, True, '1';
    'E0' -> 7, False, None)."""

    def field(value):
        if typed or draw(st.integers(0, 39)):
            return value
        if isinstance(value, str):
            return draw(st.sampled_from([7, False, None]))
        return draw(st.sampled_from([float(value), bool(value), str(value)]))

    r = draw(st.integers(1, 3))
    ids = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    multiplicities = st.lists(st.integers(0, 5), min_size=r, max_size=r).filter(any)
    exceptional = tuple(
        ExceptionalComponent(field(i), tuple(map(field, draw(multiplicities))), field(draw(st.integers(0, 3))))
        for i in ids)
    incidence = [IncidenceRecord(frozenset([field(i)]), field(1)) for i in ids]
    if len(ids) > 1 and draw(st.booleans()):
        incidence.append(IncidenceRecord(frozenset(map(field, ids[:2])), field(draw(st.integers(1, 3)))))
    incidence.sort(key=lambda rec: (len(rec.members), sorted(rec.members)))  # the serialized order
    germs = [GermBasisElement("1", 0, ())]
    for label in draw(st.lists(NAMES.filter(lambda s: s != "1"), max_size=4, unique=True)):
        e = tuple((field(i), field(draw(st.integers(0, 4)))) for i in ids if draw(st.booleans()))
        germs.append(GermBasisElement(field(label), field(draw(st.integers(1, 3))), e))
    names = tuple(map(field, draw(st.lists(NAMES, min_size=r, max_size=r, unique=True))))
    n = draw(st.integers(1, 3))
    return ResolutionData(field(r), field(n), names, exceptional, tuple(incidence), tuple(germs))


resolutions = st.one_of(
    charts(),
    st.builds(cone_over, st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 3), st.integers(0, 2)),
)


@st.composite
def python_built(draw):
    """Charts with look-alike fields, or None where the data model refuses one."""
    try:
        data = draw(charts(typed=False))
        validate_resolution(data)
    except ResolutionError:
        return None
    return data


@settings(max_examples=150, deadline=None)
@given(st.one_of(resolutions, python_built()))
def test_serialize_round_trip_fuzzed(data):
    # what the data model accepts, the loader must accept back unchanged
    if data is not None:
        assert load_resolution(io.StringIO(serialize_resolution(data))) == data


def _leaves(node):
    """(container, key) of every scalar leaf of a parsed document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value)
        else:
            yield node, key


def _mappings(node):
    if isinstance(node, dict):
        yield node
    for value in node.values() if isinstance(node, dict) else node:
        if isinstance(value, (dict, list)):
            yield from _mappings(value)


@settings(max_examples=150, deadline=None)
@given(resolutions, st.data())
def test_load_rejects_mutated_documents(data, draw):
    text = serialize_resolution(data)
    doc = yaml.safe_load(text)
    kind = draw.draw(st.sampled_from(["leaf", "key", "field", "duplicate"]))
    if kind == "leaf":
        # an integer turned float or bool, or a string turned integer
        node, key = draw.draw(st.sampled_from(list(_leaves(doc))))
        value = node[key]
        if isinstance(value, str):
            node[key] = 7
        else:
            node[key] = draw.draw(st.sampled_from([float(value), value + 0.5, True, False]))
    elif kind == "key":
        germ = draw.draw(st.sampled_from([g for g in doc["germs"] if g["e"]] or [None]))
        if germ is None:
            doc["r"] = float(doc["r"])
        else:
            key = draw.draw(st.sampled_from(sorted(germ["e"])))
            germ["e"][7] = germ["e"].pop(key)
    elif kind == "field":
        draw.draw(st.sampled_from(list(_mappings(doc))))["zz"] = 1
    if kind != "duplicate":
        text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
    else:
        lines = text.splitlines()
        keyed = [(k, m) for k, m in enumerate(re.match(r"( *)(- )?([a-z]+:.*)$", line) for line in lines) if m]
        k, m = draw.draw(st.sampled_from(keyed))
        lines.insert(k + 1, " " * (len(m.group(1)) + len(m.group(2) or "")) + m.group(3))
        text = "\n".join(lines) + "\n"
    with pytest.raises(ResolutionError):
        load_resolution(io.StringIO(text))
