"""Truncated Koszul complexes and the independent homology oracle."""

import ast
import random
import time
from fractions import Fraction
from pathlib import Path
from math import comb

import pytest
import yaml

import quasiadj.cli as cli
import quasiadj.covers as covers
import quasiadj.koszul as koszul
import quasiadj.work as work
from quasiadj.charvariety import CharacterPoint, torsion_characters
from quasiadj.cyclotomic import LaurentPoly
from quasiadj.koszul import (
    check_sweep,
    composition_is_zero,
    cone_support,
    evaluate_at,
    homology_ranks_at,
    on_support,
    oracle_f,
    truncated_koszul,
)

F = Fraction


def _imports(module):
    """The package modules and the outside top-level modules a module imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    package, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "quasiadj"):
            if node.module:
                package.add("." * node.level + node.module)
            else:  # from . import name
                package.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            package.update(alias.name for alias in node.names if alias.name.split(".")[0] == "quasiadj")
            outside.update(alias.name.split(".")[0] for alias in node.names)
    return package, outside


def test_oracle_imports_only_the_cyclotomic_substrate():
    # the oracle shares no code path with the face and torus machinery: its
    # imports from the package are .cyclotomic and the work ledger, which
    # imports nothing from the package; and characters cross into it as
    # integers, so it never imports fractions
    package, outside = _imports(koszul)
    assert package == {".cyclotomic", ".work"}
    assert "fractions" not in outside
    assert _imports(work)[0] == set()


def test_truncated_koszul_shape():
    spec = truncated_koszul(4, 2)
    assert spec.dims == (1, 4, 6)
    # rows index the domain basis: d2 is 6x4, d1 is 4x1
    assert len(spec.differential(2)) == 6 and len(spec.differential(2)[0]) == 4
    assert len(spec.differential(1)) == 4 and len(spec.differential(1)[0]) == 1


def test_koszul_build_work_is_bounded(monkeypatch, capsys):
    # one character, but C(29, 14) degree-14 generators: refused before any
    # basis is built, by the build bound and, on the command line, first by
    # the sweep bound, which counts the entries of d_14
    with pytest.raises(ValueError, match="Koszul complex on 29 parameters truncated at 14 needs"):
        truncated_koszul(29, 14)
    assert cli.main(["oracle", "--arrangement", "30", "--n", "14", "--order", "1"]) == 1
    assert "error: oracle sweep of 1 characters" in capsys.readouterr().err
    # truncated_koszul(3, 2): 3 + 9 differential entries and 3 * 3 * 1 products
    truncated_koszul.cache_clear()
    monkeypatch.setattr(work, "MAX_KOSZUL_WORK", 20)
    with pytest.raises(ValueError, match="needs 21 entries and products, over cap 20"):
        truncated_koszul(3, 2)
    argv = ["oracle", "--arrangement", "4", "--n", "2", "--order", "1"]
    assert cli.main(argv) == 1
    assert "error: Koszul complex on 3 parameters truncated at 2 needs 21" in capsys.readouterr().err
    monkeypatch.setattr(work, "MAX_KOSZUL_WORK", 21)
    assert truncated_koszul(3, 2).dims == (1, 3, 3)
    assert cli.main(argv) == 0


def test_oracle_sweep_work_is_bounded(monkeypatch, capsys):
    # 10^6 characters, each in Z[zeta_1000] of degree phi(1000) = 400:
    # refused before the first oracle call
    def no_oracle(*args):
        raise AssertionError("oracle called")

    monkeypatch.setattr(covers, "oracle_f", no_oracle)
    assert cli.main(["betti", "--arrangement", "3", "--n", "2", "--m", "1000,1000,1"]) == 1
    assert "error: oracle sweep of 1000000 characters of order dividing 1000 exceeds cap" in capsys.readouterr().err
    monkeypatch.undo()
    # every oracle sweep passes at its bound and is refused just over it:
    # per character on the support, phi of the sweep's common order times
    # the entries of d_n plus the order, for its field table (a 2 x 1 or
    # 1 x 1 d_n, or phi = 1, builds no Bareiss divider).  27 characters of
    # order 3 on 3 hyperplanes have 9 on the support, 16 of order 2 on 4
    # have 8, and 24 of orders (2, 3, 4) have 2, each ranked once more on
    # the 1 x 1 d_1 of its 2 hyperplanes for the branched table; a Milnor
    # sweep at order 6 on 3 hyperplanes has 2 characters on the support, of
    # order 3
    sweeps = [
        (["oracle", "--arrangement", "3", "--n", "1", "--order", "3"], 9 * 2 * (2 * 1 + 3)),
        (["oracle", "--arrangement", "4", "--n", "2", "--order", "2"], 8 * 1 * (3 * 3 + 2)),
        (["check", "--arrangement", "3", "--n", "1", "--order", "3"], 9 * 2 * (2 * 1 + 3)),
        (["betti", "--arrangement", "3", "--n", "1", "--m", "2,3,4"], 2 * 4 * (2 * 1 + 12 + 1 * 1 + 12)),
        (["milnor", "--arrangement", "3", "--n", "1", "--order", "6"], 2 * 2 * (2 * 1 + 3)),
    ]
    for argv, units in sweeps:
        monkeypatch.setattr(work, "MAX_SWEEP_WORK", units - 1)
        assert cli.main(argv) == 1, argv
        assert "error: oracle sweep of" in capsys.readouterr().err
        monkeypatch.setattr(work, "MAX_SWEEP_WORK", units)
        assert cli.main(argv) == 0, argv
    monkeypatch.setattr(work, "MAX_SWEEP_WORK", 90)
    check_sweep(27, 3, 3, 1)
    monkeypatch.setattr(work, "MAX_SWEEP_WORK", 89)
    with pytest.raises(ValueError, match="27 characters of order dividing 3 exceeds cap 89 on 9 ranks, .* the 2 x 1 entries"):
        check_sweep(27, 3, 3, 1)
    assert [koszul._totient(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert koszul._totient(1000) == 400


def test_oracle_f_refuses_a_rank_whose_dividers_pass_the_cap():
    # phi(401) = 400: each of the two Bareiss dividers of a 3 x 3 rank is a
    # product of 399 conjugates of degree 400, together about 1.3 * 10^8
    # units: refused before the field is built, where the rank took seconds
    start = time.perf_counter()
    with pytest.raises(ValueError, match="1 characters of order dividing 401 exceeds cap .* Bareiss divider"):
        oracle_f(4, 2, 401, (1, 2, 3, 395))
    assert time.perf_counter() - start < 0.1
    assert oracle_f(4, 2, 401, (1, 2, 3, 394)) == 0  # off the support: no rank, no charge
    assert oracle_f(4, 2, 7, (1, 2, 3, 1)) == 1      # a small order passes the bound unchecked


def test_oracle_sweep_charges_dividers_per_rank(monkeypatch, capsys):
    # r = 4, n = 2: d_2 is 3 x 3, so a rank builds 2 dividers.  An order-3
    # sweep has 81 characters, 27 of them on the support, with phi = 2:
    # 27 * 2 * 9 for the entries, 27 * 3 * 2 for the field tables and
    # 27 * 2 * (2 - 1) * 2^2 for the dividers
    units = 27 * 2 * 9 + 27 * 3 * 2 + 27 * 2 * 1 * 4
    argv = ["oracle", "--arrangement", "4", "--n", "2", "--order", "3"]
    monkeypatch.setattr(work, "MAX_SWEEP_WORK", units - 1)
    assert cli.main(argv) == 1
    assert "81 characters of order dividing 3 exceeds cap %d" % (units - 1) in capsys.readouterr().err
    monkeypatch.setattr(work, "MAX_SWEEP_WORK", units)
    assert cli.main(argv) == 0
    # a Milnor sweep's diagonal characters at order 41 are all off the
    # support of 5 hyperplanes: its 40 characters are charged nothing
    monkeypatch.setattr(work, "MAX_SWEEP_WORK", 0)
    assert cli.main(["milnor", "--arrangement", "5", "--n", "2", "--order", "41"]) == 0


def test_milnor_sweep_charges_only_characters_on_the_support(tmp_path):
    # 999 diagonal characters of order dividing 1000 on 5 hyperplanes: the
    # 4 with 5k = 0 mod 1000 are on the support and take a rank, of order
    # dividing 5, and have multiplicity C(3, 2); the other 995 are 0
    out = tmp_path / "milnor.yaml"
    argv = ["milnor", "--arrangement", "5", "--n", "2", "--order", "1000", "--format", "structured", "--out", str(out)]
    assert cli.main(argv) == 0
    mults = {Fraction(phase): v for phase, v in yaml.safe_load(out.read_text())["multiplicities"].items()}
    assert mults == {Fraction(k, 1000): comb(3, 2) if 5 * k % 1000 == 0 else 0 for k in range(1, 1000)}


def test_oracle_f_charges_its_field_table(monkeypatch):
    # Z[zeta_10007] has degree 10006, so the table of 10007 powers of zeta
    # would hold about 10^8 integers: refused before the field is built,
    # though the 1 x 1 d_1 builds no Bareiss divider
    def no_field(order):
        raise AssertionError("field of order %d built" % order)

    monkeypatch.setattr(koszul, "CyclotomicField", no_field)
    with pytest.raises(ValueError, match="1 characters of order dividing 10007 exceeds cap .* per field table"):
        oracle_f(2, 1, 10007, (1, 10006))


def test_oracle_sweep_bound_sees_the_size_of_d_n(monkeypatch, capsys):
    # 2^19 characters of order 2 (phi = 1), 2^18 of them on the support,
    # each a rank of the 153 x 18 matrix d_2: about 7.2 * 10^8 units,
    # refused before the first character
    def no_oracle(*args):
        raise AssertionError("oracle called")

    monkeypatch.setattr(covers, "oracle_f", no_oracle)
    assert cli.main(["oracle", "--arrangement", "19", "--n", "2", "--order", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: oracle sweep of 524288 characters of order dividing 2 exceeds cap")
    assert "the 153 x 18 entries of d_n" in err
    assert 2 ** 18 * 153 * 18 > work.MAX_SWEEP_WORK


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
    assert homology_ranks_at(spec, 2, (1, 0, 0)) == (0, 0, 0, 0)
    # truncation keeps the kernel of the missing differential in top degree
    trunc = truncated_koszul(3, 2)
    assert homology_ranks_at(trunc, 2, (1, 0, 0)) == (0, 0, 1)
    assert homology_ranks_at(trunc, 1, (0, 0, 0)) == (1, 3, 3)


def test_oracle_f_known_values():
    # diagonal and generic order-4 characters on the 4-line arrangement
    assert oracle_f(4, 2, 4, (1,) * 4) == 1
    assert oracle_f(4, 2, 2, (1,) * 4) == 1
    assert oracle_f(4, 2, 4, (3,) * 4) == 1
    assert oracle_f(4, 2, 4, (2, 2, 2, 2)) == 1  # order 2, not in lowest terms
    assert oracle_f(4, 2, 2, (1, 1, 0, 0)) == 1
    assert oracle_f(4, 2, 4, (1, 1, 1, 0)) == 0  # off support
    assert oracle_f(4, 2, 1, (0,) * 4) == 3  # trivial: elimination output
    assert oracle_f(5, 2, 5, (1,) * 5) == comb(3, 2)
    with pytest.raises(ValueError):
        oracle_f(4, 4, 1, (0,) * 4)


def test_character_sweep_support_law():
    rows = [(chi, oracle_f(4, 2, chi.order, chi.exponents)) for chi in torsion_characters((3,) * 4)]
    assert len(rows) == 81
    for chi, f in rows:
        assert (f > 0) == on_support(chi.order, chi.exponents)
    total = sum(f for _, f in rows)
    # 26 nontrivial on-support characters with f = 1, trivial contributes 3
    assert total == 29


def test_support_predicates():
    assert on_support(2, (1, 1))
    assert not on_support(2, (1, 0))
    assert cone_support((2, 3), 6, (3, 2))
    assert not cone_support((2, 3), 2, (1, 1))


def test_cone_support_refuses_non_integer_degrees():
    # a float or bool degree is refused, not read as the integer it equals
    for degrees, order, exponents in (((2.0, 3), 6, (3, 2)), ((True, 1), 2, (1, 1)), ((2, F(3)), 6, (3, 2))):
        with pytest.raises(TypeError, match="degree"):
            cone_support(degrees, order, exponents)


def test_conjugation_invariance_property():
    rng = random.Random(555)
    for _ in range(1000):
        r = rng.randint(2, 5)
        n = rng.randint(1, r - 1)
        phases = tuple(F(rng.randint(0, 5), rng.choice((1, 2, 3, 6))) for _ in range(r))
        chi = CharacterPoint.from_phases(phases)
        bar = chi.conjugate()
        assert oracle_f(r, n, chi.order, chi.exponents) == oracle_f(r, n, bar.order, bar.exponents)


def test_numeric_composition_vanishes_property():
    rng = random.Random(666)
    for _ in range(1000):
        params = rng.randint(2, 4)
        top = rng.randint(1, min(params, 3))
        spec = truncated_koszul(params, top)
        chi = CharacterPoint.from_phases(F(rng.randint(0, 5), rng.choice((1, 2, 3, 4, 6))) for _ in range(params))
        field, mats = evaluate_at(spec, chi.order, chi.exponents)
        for p in range(2, top + 1):
            upper, lower = mats[p], mats[p - 1]
            # (d_{p-1} after d_p) must vanish entrywise
            for row in upper:
                composed = [field.zero] * len(lower[0])
                for j, entry in enumerate(row):
                    for k2, down in enumerate(lower[j]):
                        composed[k2] = field.add(composed[k2], field.mul(entry, down))
                assert all(field.is_zero(v) for v in composed)
        ranks = homology_ranks_at(spec, chi.order, chi.exponents)
        assert all(v >= 0 for v in ranks)


def test_exponents_clear_phase_denominators():
    # a character (N, k) is reduced to lowest terms, as clearing the phases'
    # denominators did: divide by gcd(N, *k), then reduce each k mod N
    assert koszul._character(12, (6, 4)) == (6, (3, 2))
    assert koszul._character(5, (0,)) == (1, (0,))
    # negative exponents reduce mod N
    assert koszul._character(6, (-3, -4)) == (6, (3, 2))
    assert koszul._character(12, (-6, 4)) == (6, (3, 2))
    assert oracle_f(3, 1, 6, (-1, -2, 3)) == oracle_f(3, 1, 6, (5, 4, 3)) == 1


def test_field_for_uses_phase_orders():
    # (12, (6, 4)) is the character (6, (3, 2)): its entries lie in Z[zeta_6]
    field, mats = evaluate_at(truncated_koszul(2, 1), 12, (6, 4))
    assert field.order == 6
    assert mats == evaluate_at(truncated_koszul(2, 1), 6, (3, 2))[1]
    assert evaluate_at(truncated_koszul(2, 1), 6, (-3, -4))[1] == mats
    assert evaluate_at(truncated_koszul(1, 1), 5, (0,))[0].order == 1


def test_oracle_refuses_non_integer_characters():
    # a float, bool or Fraction order or exponent is refused, never read as
    # the integer it equals, and so are orders below 1 and wrong arities
    bad = ((2.0, (1, 1)), (True, (0, 0)), (F(2), (1, 1)), (2, (1.0, 1)), (2, (1, False)), (2, (F(1), 1)))
    for order, exponents in bad:
        for call in (lambda: oracle_f(2, 1, order, exponents), lambda: on_support(order, exponents),
                     lambda: cone_support((1, 1), order, exponents),
                     lambda: evaluate_at(truncated_koszul(2, 1), order, exponents),
                     lambda: homology_ranks_at(truncated_koszul(2, 1), order, exponents)):
            with pytest.raises(TypeError, match="integers"):
                call()
    for order in (0, -2):
        for call in (lambda: oracle_f(2, 1, order, (1, 1)), lambda: on_support(order, (1, 1)),
                     lambda: cone_support((1, 1), order, (1, 1)),
                     lambda: evaluate_at(truncated_koszul(2, 1), order, (1, 1))):
            with pytest.raises(ValueError, match="order"):
                call()
    for call in (lambda: oracle_f(3, 1, 2, (1, 1)), lambda: cone_support((1, 1, 1), 2, (1, 1)),
                 lambda: evaluate_at(truncated_koszul(3, 1), 2, (1, 1))):
        with pytest.raises(ValueError, match="arity"):
            call()


def test_oracle_is_invariant_under_scaling_the_character_property():
    # (g N, g k) is the character (N, k): the same field, the same f
    rng = random.Random(1616)
    for _ in range(400):
        r = rng.randint(2, 5)
        n = rng.randint(1, r - 1)
        order = rng.randint(1, 12)
        k = [rng.randint(-2 * order, 2 * order) for _ in range(r)]
        if rng.random() < 0.7:
            k[-1] = -sum(k[:-1])
        g = rng.randint(1, 6)
        assert oracle_f(r, n, order, k) == oracle_f(r, n, g * order, [g * v for v in k])


def test_oracle_top_rank_matches_full_complex_property():
    # h_n from the rank of d_n alone equals the all-degree homology of the
    # truncated skeleton complex at the first r - 1 phases, and 0 off support
    rng = random.Random(1212)
    on = off = 0
    for _ in range(600):
        r = rng.randint(2, 6)
        n = rng.randint(1, r - 1)
        order = rng.randint(1, 12)
        k = [rng.randrange(order) for _ in range(r)]
        if rng.random() < 0.7:
            k[-1] = -sum(k[:-1]) % order
        chi = CharacterPoint(order, tuple(k))
        for c in (chi, chi.conjugate()):
            if on_support(c.order, c.exponents):
                on += 1
                full = homology_ranks_at(truncated_koszul(r - 1, n), c.order, c.exponents[: r - 1])
                assert oracle_f(r, n, c.order, c.exponents) == full[n]
            else:
                off += 1
                assert oracle_f(r, n, c.order, c.exponents) == 0
    assert on > 600 and off > 200
