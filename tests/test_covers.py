"""Homology ranks of abelian covers and Milnor fiber monodromy."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
import yaml

from quasiadj.covers import (
    ORACLE,
    PRINCIPAL,
    betti_dict,
    betti_tables,
    milnor_dict,
    milnor_fiber,
    sweep,
)
import quasiadj.charvariety as charvariety
import quasiadj.cli as cli
import quasiadj.covers as covers
import quasiadj.koszul as koszul
import quasiadj.work as work
from quasiadj.charvariety import principal_components, principal_f, torsion_characters
from quasiadj.koszul import oracle_f
from quasiadj.resolution import ResolutionError, cone_over, generic_arrangement, load_resolution, serialize_resolution

F = Fraction


def test_unbranched_arrangement_exact():
    a4 = generic_arrangement(4, 2)
    table = betti_tables(a4, (3, 3, 3, 3), f_mode=ORACLE)[0]
    assert table.ranks == (1, 4, 29)
    assert table.audit["characters"] == 81
    assert table.audit["top_from_nontrivial"] == 26
    assert table.audit["top_from_trivial"] == 3
    assert table.unresolved_trivial
    lower = betti_tables(a4, (3, 3, 3, 3), f_mode=PRINCIPAL)[0]
    assert lower.ranks == (1, 4, 27)
    assert lower.ranks[-1] <= table.ranks[-1]


def test_unbranched_low_degrees_are_binomial():
    table = betti_tables(generic_arrangement(5, 3), (2, 2, 2, 2, 2))[0]
    assert table.ranks[:3] == (1, 5, 10)


def test_unbranched_one_dimensional_cone():
    table = betti_tables(cone_over((2, 3), 2, 3), (6, 6))[0]
    assert table.ranks == (1, 2, 18)


def test_branched_values():
    a4 = generic_arrangement(4, 2)
    assert betti_tables(a4, (1, 1, 1, 1))[1].ranks == (1, 0, 0)
    for mode in (PRINCIPAL, ORACLE):
        assert betti_tables(a4, (2, 2, 2, 2), f_mode=mode)[1].ranks == (1, 0, 1)
    t3 = betti_tables(a4, (3, 3, 3, 3), f_mode=ORACLE)[1]
    assert t3.ranks == (1, 0, 6)
    assert t3.audit["buckets"]["1,2,3,4"] == 6
    assert betti_tables(cone_over((2, 3), 2, 3), (2, 2))[1].ranks == (1, 0, 0)


def test_branched_r2_smooth_cover():
    # z^2 = x, w^2 = y: the cover is smooth, no reduced homology anywhere
    table = betti_tables(generic_arrangement(2, 3), (2, 2))[1]
    assert table.ranks == (1, 0, 0, 0)


def test_milnor_arrangement_exact():
    table = milnor_fiber(generic_arrangement(4, 2), 4, f_mode=ORACLE)
    assert table.ranks == (1, 3, 3)
    assert table.multiplicities == {F(1, 4): 1, F(1, 2): 1, F(3, 4): 1}
    assert table.factors == ((2, 1), (4, 1))
    assert table.polynomial_string() == "t^3 + t^2 + t + 1"
    assert table.unresolved_at_1
    lower = milnor_fiber(generic_arrangement(4, 2), 4, f_mode=PRINCIPAL)
    assert lower.factors == table.factors


def test_milnor_cone_exact():
    table = milnor_fiber(cone_over((2, 3), 2, 3), 5)
    assert table.ranks == (1, 1, 12)
    assert table.multiplicities == {F(k, 5): 3 for k in range(1, 5)}
    assert table.factors == ((5, 3),)
    assert table.f_source == PRINCIPAL


def test_milnor_order_one_has_no_nontrivial_eigenvalues():
    table = milnor_fiber(generic_arrangement(4, 2), 1, f_mode=ORACLE)
    assert table.ranks == (1, 3, 0)
    assert table.multiplicities == {}
    assert table.factors == ()
    assert table.polynomial_string() == "1"


def test_lower_bound_mode_can_undercount():
    # the one-branch quadric cone has no face data at bound 0, so the
    # principal estimate at -1 is 0 even though the true value is positive
    table = milnor_fiber(cone_over((2,), 1, 0), 2)
    assert table.f_source == PRINCIPAL
    assert table.multiplicities[F(1, 2)] == 0


def test_mode_validation():
    a4 = generic_arrangement(4, 2)
    with pytest.raises(ValueError):
        betti_tables(a4, (2, 2, 2, 2), f_mode="guess")
    with pytest.raises(ValueError):
        betti_tables(a4, (2, 2), f_mode=PRINCIPAL)  # m arity
    with pytest.raises(ValueError, match="generic arrangements"):
        betti_tables(cone_over((2, 3), 2, 3), (2, 2), f_mode=ORACLE)


def test_cover_orders_must_be_integers():
    # floats were truncated and bools taken as 1; nothing may be rounded
    with pytest.raises(ResolutionError, match=r"m\[0\]"):
        betti_tables(generic_arrangement(3, 1), (2.9, 2, 2))
    with pytest.raises(ResolutionError, match=r"order\[0\]"):
        list(torsion_characters((2.5, 3)))
    with pytest.raises(ResolutionError, match=r"m\[0\]"):
        betti_tables(cone_over((1, 2), 1, 0), (True, 2))
    with pytest.raises(ResolutionError, match="order bound"):
        milnor_fiber(generic_arrangement(4, 2), 3.5)


def test_milnor_sweep_work_is_bounded(monkeypatch, capsys):
    # order bound M visits the M - 1 diagonal characters omega != 1
    monkeypatch.setattr(work, "MAX_CHARACTERS", 5)
    assert len(milnor_fiber(cone_over((2, 3), 2), 6).multiplicities) == 5
    with pytest.raises(ValueError, match="6 diagonal characters exceeds cap 5"):
        milnor_fiber(cone_over((2, 3), 2), 7)
    assert cli.main(["milnor", "--cone", "2,3", "--n", "2", "--order", "6"]) == 0
    capsys.readouterr()
    assert cli.main(["milnor", "--cone", "2,3", "--n", "2", "--order", "7"]) == 1
    assert "error: Milnor fiber sweep of 6 diagonal characters exceeds cap 5" in capsys.readouterr().err


def test_tables_serialize():
    a4 = generic_arrangement(4, 2)
    doc = yaml.safe_dump(betti_dict(betti_tables(a4, (2, 2, 2, 2))[0]))
    assert yaml.safe_load(doc)["ranks"] == [1, 4, 8]
    mdoc = yaml.safe_dump(milnor_dict(milnor_fiber(a4, 2)))
    assert yaml.safe_load(mdoc)["unresolved_at_1"] is True


def test_cover_rank_properties_randomized():
    rng = random.Random(777)
    for _ in range(1000):
        r = rng.randint(1, 4)
        n = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 3) for _ in range(r))
        data = cone_over(degrees, n, rng.randint(0, 1))
        m = tuple(rng.randint(1, 3) for _ in range(r))
        table, branched = betti_tables(data, m)
        assert len(table.ranks) == n + 1
        assert table.ranks[:n] == tuple(comb(r, p) for p in range(n))
        assert table.ranks[n] >= 0
        expected = 1
        for v in m:
            expected *= v
        assert table.audit["characters"] == expected
        assert branched.ranks[0] == 1
        assert all(v == 0 for v in branched.ranks[1:n])
        assert branched.ranks[n] >= 0


def test_betti_shares_face_searches_within_one_call(monkeypatch, tmp_path):
    # the full support is searched once for both tables, and the branched
    # table searches one subunion per family tuple: degrees (3, 1, 4, 4)
    # give 1 + 3 + 4 + 3 = 11 searches, where one per support gave 1 + 15;
    # the report is the one that per-support searches wrote
    calls = []
    inner = charvariety.principal_components

    def counted(data):
        calls.append(data.family)
        return inner(data)

    monkeypatch.setattr(covers, "principal_components", counted)
    monkeypatch.setattr(cli, "principal_components", counted)
    out = tmp_path / "betti.yaml"
    assert cli.main(["betti", "--cone", "3,1,4,4", "--n", "3", "--bound", "1", "--m", "24,3,3,2",
                     "--format", "structured", "--out", str(out)]) == 0
    assert len(calls) == len(set(calls)) == 11
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ae61d46413230cd7fcfde34f3c7630ccc4ee9e39a5b02e0d38d55bc0b6ff3b79")


def test_betti_sweeps_the_characters_once(monkeypatch, capsys):
    # both tables come from one torsion_characters pass, and the branched
    # table reuses f at each of the 2^4 full-support characters of
    # (3, 3, 3, 3) instead of evaluating the oracle there a second time
    passes = []
    full_support = []
    sweep, oracle = covers.torsion_characters, covers.oracle_f

    def counted_sweep(orders):
        passes.append(tuple(orders))
        return sweep(orders)

    def counted_oracle(r, n, order, exponents):
        if r == 4 and all(exponents):
            full_support.append(exponents)
        return oracle(r, n, order, exponents)

    monkeypatch.setattr(covers, "torsion_characters", counted_sweep)
    monkeypatch.setattr(covers, "oracle_f", counted_oracle)
    assert cli.main(["betti", "--arrangement", "4", "--n", "2", "--m", "3,3,3,3"]) == 0
    assert "branched cover, m=(3,3,3,3): ranks [1, 0, 6]" in capsys.readouterr().out
    assert passes == [(3, 3, 3, 3)]
    assert len(full_support) == len(set(full_support)) == 16


def test_sweep_pairs_each_character_with_its_f_values():
    # torsion_characters' order, f under each mode in the order given
    data = generic_arrangement(4, 2)
    components = principal_components(data)
    rows = list(sweep(data, (2, 3, 3, 2), PRINCIPAL, ORACLE))
    assert [chi for chi, _, _ in rows] == list(torsion_characters((2, 3, 3, 2)))
    for chi, pf, of in rows:
        assert pf == principal_f(chi, components)
        assert of == oracle_f(4, 2, chi.order, chi.exponents)
    assert list(sweep(data, (2, 3, 3, 2), ORACLE)) == [(chi, of) for chi, _, of in rows]
    assert any(pf != of for _, pf, of in rows)  # so the order of the modes shows


def test_sweep_refuses_before_any_f_source(monkeypatch, capsys):
    # the character cap, an order below 1 and, for the oracle, check_sweep
    # come before the principal components are built, so a refused betti or
    # check query runs no face search; check_sweep comes first
    def no_components(data):
        raise AssertionError("principal components built")

    monkeypatch.setattr(covers, "principal_components", no_components)
    cone = cone_over((2, 3), 2, 3)
    with pytest.raises(ValueError, match="^character sweep of size 1002001 exceeds cap 1000000$"):
        sweep(cone, (1001, 1001), PRINCIPAL)
    with pytest.raises(ValueError, match="^order 0 < 1$"):
        sweep(cone, (0, 3), PRINCIPAL)
    with pytest.raises(ValueError, match=r"^m has length 1, expected r = 2$"):
        sweep(cone, (3,), PRINCIPAL)
    assert cli.main(["check", "--cone", "2,3", "--n", "2", "--bound", "3", "--order", "1001"]) == 1
    assert capsys.readouterr().err == "error: character sweep of size 1002001 exceeds cap 1000000\n"
    assert cli.main(["betti", "--cone", "2,3", "--n", "2", "--bound", "3", "--m", "1001,1001"]) == 1
    assert capsys.readouterr().err == "error: character sweep of size 1002001 exceeds cap 1000000\n"
    monkeypatch.setattr(work, "MAX_SWEEP_WORK", 10)
    monkeypatch.setattr(work, "MAX_CHARACTERS", 10)
    with pytest.raises(ValueError, match="^oracle sweep of 81 characters of order dividing 3 exceeds cap 10 "):
        sweep(generic_arrangement(4, 2), (3,) * 4, PRINCIPAL, ORACLE)
    assert cli.main(["check", "--arrangement", "4", "--n", "2", "--order", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: oracle sweep of 81 characters")


def test_betti_without_family_has_no_branched_table(capsys, tmp_path):
    # subunions need the family provenance; the unbranched table does not
    data = cone_over((2, 3), 2, 3)
    bare = load_resolution(serialize_resolution(replace(data, family=None)))
    table, branched = betti_tables(bare, (6, 6))
    assert branched is None
    assert betti_dict(table) == betti_dict(betti_tables(data, (6, 6))[0])
    chart = tmp_path / "chart.yaml"
    chart.write_text(serialize_resolution(bare))
    assert cli.main(["betti", "--input", str(chart), "--m", "6,6"]) == 0
    out = capsys.readouterr().out
    assert "branched table skipped: needs builtin family provenance" in out
    assert "unbranched cover, m=(6,6): ranks [1, 2, 18]" in out


def test_oracle_dominates_principal_property():
    rng = random.Random(888)
    for _ in range(1000):
        r = rng.randint(2, 4)
        n = rng.randint(1, r - 1)
        data = generic_arrangement(r, n)
        m = tuple(rng.randint(1, 3) for _ in range(r))
        upper = betti_tables(data, m, f_mode=ORACLE)[0]
        lower = betti_tables(data, m, f_mode=PRINCIPAL)[0]
        assert lower.ranks[-1] <= upper.ranks[-1]
        assert lower.ranks[:-1] == upper.ranks[:-1]
