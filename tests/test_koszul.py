"""Truncated Koszul complexes and the independent homology oracle."""

import random
from fractions import Fraction
from math import comb

import pytest

from quasiadj.charvariety import CharacterPoint, torsion_characters
from quasiadj.cyclotomic import LaurentPoly
from quasiadj.koszul import (
    _exponents,
    composition_is_zero,
    cone_support,
    evaluate_at,
    field_for,
    homology_ranks_at,
    on_support,
    oracle_f,
    truncated_koszul,
)

F = Fraction


def test_truncated_koszul_shape():
    spec = truncated_koszul(4, 2)
    assert spec.dims == (1, 4, 6)
    # rows index the domain basis: d2 is 6x4, d1 is 4x1
    assert len(spec.differential(2)) == 6 and len(spec.differential(2)[0]) == 4
    assert len(spec.differential(1)) == 4 and len(spec.differential(1)[0]) == 1


def test_first_differential_entries():
    spec = truncated_koszul(2, 1)
    t1 = LaurentPoly.variable(0, 2)
    t2 = LaurentPoly.variable(1, 2)
    one = LaurentPoly.constant(2, 1)
    assert spec.differential(1) == ((t1 - one,), (t2 - one,))


def test_composition_is_zero_all_sizes():
    for params in range(1, 6):
        for top in range(0, min(params, 4) + 1):
            assert composition_is_zero(truncated_koszul(params, top))


def test_homology_full_vs_truncated():
    # full Koszul complex of r parameters at a nontrivial character is exact
    spec = truncated_koszul(3, 3)
    nontrivial = (F(1, 2), F(0), F(0))
    assert homology_ranks_at(spec, nontrivial) == (0, 0, 0, 0)
    # truncation keeps the kernel of the missing differential in top degree
    trunc = truncated_koszul(3, 2)
    assert homology_ranks_at(trunc, nontrivial) == (0, 0, 1)
    trivial = (F(0), F(0), F(0))
    assert homology_ranks_at(trunc, trivial) == (1, 3, 3)


def test_oracle_f_known_values():
    # diagonal and generic order-4 characters on the 4-line arrangement
    assert oracle_f(4, 2, (F(1, 4),) * 4) == 1
    assert oracle_f(4, 2, (F(1, 2),) * 4) == 1
    assert oracle_f(4, 2, (F(3, 4),) * 4) == 1
    assert oracle_f(4, 2, (F(1, 2), F(1, 2), F(1, 2), F(1, 2))) == 1
    assert oracle_f(4, 2, (F(1, 2), F(1, 2), F(0), F(0))) == 1
    assert oracle_f(4, 2, (F(1, 4), F(1, 4), F(1, 4), F(0))) == 0  # off support
    assert oracle_f(4, 2, (F(0),) * 4) == 3  # trivial: elimination output
    assert oracle_f(5, 2, (F(1, 5),) * 5) == comb(3, 2)
    with pytest.raises(ValueError):
        oracle_f(4, 4, (F(0),) * 4)
    with pytest.raises(TypeError):
        oracle_f(4, 2, (0.25, 0.25, 0.25, 0.25))


def test_character_sweep_support_law():
    rows = [(chi.phases, oracle_f(4, 2, chi.phases)) for chi in torsion_characters((3,) * 4)]
    assert len(rows) == 81
    for phases, f in rows:
        assert (f > 0) == on_support(phases)
    total = sum(f for _, f in rows)
    # 26 nontrivial on-support characters with f = 1, trivial contributes 3
    assert total == 29


def test_support_predicates():
    assert on_support((F(1, 2), F(1, 2)))
    assert not on_support((F(1, 2), F(0)))
    assert cone_support((2, 3), (F(1, 2), F(1, 3)))
    assert not cone_support((2, 3), (F(1, 2), F(1, 2)))


def test_cone_support_refuses_non_integer_degrees():
    # a float or bool degree is refused, not read as the integer it equals
    for degrees, phases in (((2.0, 3), (F(1, 2), F(1, 3))), ((True, 1), (F(1, 2), F(1, 2))),
                            ((2, F(3)), (F(1, 2), F(1, 3)))):
        with pytest.raises(TypeError, match="degree"):
            cone_support(degrees, phases)


def test_conjugation_invariance_property():
    rng = random.Random(555)
    for _ in range(1000):
        r = rng.randint(2, 5)
        n = rng.randint(1, r - 1)
        phases = tuple(F(rng.randint(0, 5), rng.choice((1, 2, 3, 6))) for _ in range(r))
        chi = CharacterPoint.from_phases(phases)
        assert oracle_f(r, n, chi.phases) == oracle_f(r, n, chi.conjugate().phases)


def test_numeric_composition_vanishes_property():
    rng = random.Random(666)
    for _ in range(1000):
        params = rng.randint(2, 4)
        top = rng.randint(1, min(params, 3))
        spec = truncated_koszul(params, top)
        phases = tuple(F(rng.randint(0, 5), rng.choice((1, 2, 3, 4, 6))) for _ in range(params))
        field, mats = evaluate_at(spec, phases)
        for p in range(2, top + 1):
            upper, lower = mats[p], mats[p - 1]
            # (d_{p-1} after d_p) must vanish entrywise
            for row in upper:
                composed = [field.zero] * len(lower[0])
                for j, entry in enumerate(row):
                    for k2, down in enumerate(lower[j]):
                        composed[k2] = field.add(composed[k2], field.mul(entry, down))
                assert all(field.is_zero(v) for v in composed)
        ranks = homology_ranks_at(spec, phases)
        assert all(v >= 0 for v in ranks)


def test_exponents_clear_phase_denominators():
    assert _exponents((F(1, 2), F(-1, 3))) == (6, (3, 4))
    assert _exponents((F(0),)) == (1, (0,))
    with pytest.raises(TypeError):
        _exponents((F(1, 2), 0.5))


def test_field_for_uses_phase_orders():
    assert field_for((F(1, 2), F(1, 3))).order == 6
    assert field_for((F(0),)).order == 1
