"""Exact rational geometry: forms, integer lattices, and the simplex."""

import ast
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from quasiadj.ratgeom import (
    AffineForm,
    Infeasible,
    Unbounded,
    cube_bounds,
    hnf_rows,
    integer_kernel,
    is_saturation_basis,
    lp_maximize,
    rat,
    relative_interior_point,
    saturation_basis,
    span_equations,
)

import quasiadj.ratgeom as ratgeom
import rational_reference
from rational_reference import rational_rank, solve_row_combination

F = Fraction


def rand_frac(rng, num=6, den=6):
    return F(rng.randint(-num, num), rng.randint(1, den))


def integer_vector(values):
    """Rationals times their least common denominator, as ints."""
    den = lcm(*(F(v).denominator for v in values))
    return [int(v * den) for v in values]


def integer_form(coeffs, const):
    """The form with these rational coefficients, denominators cleared."""
    *coeffs, const = integer_vector((*coeffs, const))
    return AffineForm(tuple(coeffs), const)


def test_rat_coercions():
    assert rat("2/3") == F(2, 3)
    assert rat(5) == 5
    assert rat(F(1, 7)) == F(1, 7)
    with pytest.raises(TypeError):
        rat(0.5)


def test_affine_form_value_and_scaling():
    f = AffineForm((2, 3), -1)
    assert f.value((F(1, 2), F(1, 3))) == 1
    assert AffineForm((1, 2), -1).value((F(1, 2), F(1, 3))) == F(1, 6)
    with pytest.raises(ValueError):
        f.value((F(1),))


def test_forms_and_objectives_refuse_non_integers():
    # a Fraction is never truncated, a float never rounded, a bool never read as 0/1
    for bad in (F(3, 2), F(2), 0.5, 1.0, True, False):
        with pytest.raises(TypeError):
            AffineForm((bad, 1), 0)
        with pytest.raises(TypeError):
            AffineForm((1, 1), bad)
        with pytest.raises(TypeError):
            lp_maximize([[1, 0], [bad, 1]], cube_bounds(2))


def test_equation_key_is_scale_invariant():
    rng = random.Random(101)
    for _ in range(1000):
        r = rng.randint(1, 4)
        f = integer_form(tuple(rand_frac(rng) for _ in range(r)), rand_frac(rng))
        factor = F(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            factor = -factor
        key = f.equation_key()
        assert integer_form(tuple(c * factor for c in f.coeffs), f.const * factor).equation_key() == key
        # primitive integers, first nonzero positive
        g = 0
        for v in key:
            g = gcd(g, v)
        assert g in (0, 1)
        lead = next((v for v in key if v), 0)
        assert lead >= 0


def test_rational_rank_known():
    assert rational_rank([]) == 0
    assert rational_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rational_rank([[F(1), F(0)], [F(0), F(1)]]) == 2


def test_integer_kernel_orthogonality_property():
    rng = random.Random(202)
    for _ in range(1000):
        width = rng.randint(1, 5)
        nrows = rng.randint(0, 3)
        rows = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(nrows)
                ]
        ker = integer_kernel(rows, width)
        for v in ker:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # rank-nullity over Q
        assert len(ker) == width - rational_rank([[F(a) for a in row] for row in rows])


def test_hnf_rows_canonical_property():
    rng = random.Random(303)
    for _ in range(1000):
        width = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(nrows)]
        h = hnf_rows(rows)
        assert hnf_rows([list(v) for v in h]) == h
        # unimodular row mixes leave the lattice, hence the basis, unchanged
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        if len(mixed) > 1:
            i, j = rng.sample(range(len(mixed)), 2)
            factor = rng.randint(-3, 3)
            mixed[i] = [a + factor * b for a, b in zip(mixed[i], mixed[j])]
        if mixed:
            k = rng.randrange(len(mixed))
            mixed[k] = [-a for a in mixed[k]]
        assert hnf_rows(mixed) == h
        # Hermite shape: positive pivots, entries above a pivot reduced
        pivots = []
        for row in h:
            lead = next(i for i, v in enumerate(row) if v)
            assert row[lead] > 0
            pivots.append((lead, row[lead]))
        for upper in range(len(h)):
            for lower in range(upper + 1, len(h)):
                lead, piv = pivots[lower]
                assert 0 <= h[upper][lead] < piv


def test_saturation_basis_known():
    assert saturation_basis([[2, 4]], 2) == [(1, 2)]
    assert saturation_basis([[2, 3]], 2) == [(2, 3)]
    assert saturation_basis([[3, 2]], 2) == [(3, 2)]
    assert saturation_basis([], 2) == []


def test_saturation_contains_original_rows_property():
    rng = random.Random(404)
    for _ in range(1000):
        width = rng.randint(1, 4)
        rows = [integer_vector([rand_frac(rng, 4, 3) for _ in range(width)]) for _ in range(rng.randint(1, 3))]
        sat = saturation_basis(rows, width)
        for row in rows:
            coeffs = solve_row_combination(sat, row)
            assert coeffs is not None
            for c in coeffs:
                assert c.denominator == 1  # saturated lattice holds every integer row


def test_solve_row_combination_property():
    rng = random.Random(505)
    for _ in range(1000):
        width = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [[rand_frac(rng, 3, 2) for _ in range(width)] for _ in range(nrows)]
        weights = [rng.randint(-3, 3) for _ in range(nrows)]
        target = [sum(w * rows[i][j] for i, w in enumerate(weights)) for j in range(width)]
        coeffs = solve_row_combination(rows, target)
        assert coeffs is not None
        rebuilt = [sum(c * rows[i][j] for i, c in enumerate(coeffs)) for j in range(width)]
        assert rebuilt == [F(t) for t in target]
    assert solve_row_combination([[F(1), F(0)]], [F(0), F(1)]) is None
    assert solve_row_combination([], [F(0), F(0)]) == []
    assert solve_row_combination([], [F(1)]) is None


def test_span_equations_point_check():
    eqs = [AffineForm((2, 3), -1)]
    point = (F(1, 2), F(0))
    assert span_equations(eqs, point) == [((2, 3), F(1))]
    with pytest.raises(ValueError):
        span_equations(eqs, (F(0), F(0)))


def test_lp_known_values():
    # max x + y over the triangle x, y >= 0, x + y <= 1
    ineqs = cube_bounds(2) + [AffineForm((1, 1), -1)]
    [(value, point)] = lp_maximize([[1, 1]], ineqs)
    assert value == 1
    assert sum(point) == 1
    with pytest.raises(Unbounded):
        lp_maximize([[1]], [])
    with pytest.raises(Infeasible):
        lp_maximize([[1]], [AffineForm((1,), 1)])  # x <= -1, x >= 0
    with pytest.raises(ValueError, match="no objective"):
        lp_maximize([], cube_bounds(1))


def test_lp_refuses_forms_of_another_arity():
    # a short form's slack entry would land on its right-hand side, and a long
    # form's extra coefficient on a slack: each would solve another problem
    with pytest.raises(ValueError, match=r"arities \[1, 2\] in one problem"):
        lp_maximize([[1, 1]], cube_bounds(2) + [AffineForm((1,), -1)])
    with pytest.raises(ValueError, match=r"arities \[1, 2\] in one problem"):
        lp_maximize([[1]], cube_bounds(1) + [AffineForm((1, 1), -1)])
    with pytest.raises(ValueError, match=r"arities \[1, 2\] in one problem"):
        lp_maximize([[1]], cube_bounds(1), [AffineForm((1, 1), -1)])
    with pytest.raises(ValueError, match=r"arities \[1, 2\] in one problem"):
        lp_maximize([[1], [1, 0]], cube_bounds(1))


def _random_feasible_system(rng):
    """Cube facets plus random inequalities that keep a random anchor point
    feasible; returns (width, anchor, ineqs)."""
    width = rng.randint(1, 3)
    ineqs = cube_bounds(width)
    anchor = tuple(F(rng.randint(0, 3), 3) for _ in range(width))
    for _ in range(rng.randint(0, 2)):
        coeffs = tuple(rand_frac(rng, 3, 2) for _ in range(width))
        slack = F(rng.randint(0, 4), 4)
        const = -(sum(c * a for c, a in zip(coeffs, anchor)) + slack)
        ineqs.append(integer_form(coeffs, const))  # anchor stays feasible
    return width, anchor, ineqs


def test_lp_optimality_property():
    # witness is feasible, optimum beats every feasible lattice point
    rng = random.Random(606)
    for _ in range(1000):
        width, anchor, ineqs = _random_feasible_system(rng)
        objective = integer_vector([rand_frac(rng, 3, 2) for _ in range(width)])
        [(value, point)] = lp_maximize([objective], ineqs)
        for g in ineqs:
            assert g.value(point) <= 0
        assert value == sum(c * p for c, p in zip(objective, point))
        assert value >= sum(c * a for c, a in zip(objective, anchor))
        grid = [F(k, 2) for k in range(3)]
        for probe in _grid_points(grid, width):
            if all(g.value(probe) <= 0 for g in ineqs):
                assert value >= sum(c * p for c, p in zip(objective, probe))


def test_lp_many_objectives_match_single_solves_property():
    # each objective's phase 2 starts from the same post-phase-1 tableau, so
    # the answers do not depend on the other objectives or on their order
    rng = random.Random(707)
    redundant = 0
    for _ in range(400):
        width, anchor, ineqs = _random_feasible_system(rng)
        eqs = []
        for _ in range(rng.randint(0, 2)):
            coeffs = tuple(rand_frac(rng, 3, 2) for _ in range(width))
            eqs.append(integer_form(coeffs, -sum(c * a for c, a in zip(coeffs, anchor))))
        if eqs and rng.random() < 0.5:
            # a combination of the others: its artificial cannot leave the
            # basis and its row is dropped before phase 2
            eqs.append(AffineForm(
                tuple(sum((k + 2) * f.coeffs[i] for k, f in enumerate(eqs)) for i in range(width)),
                sum((k + 2) * f.const for k, f in enumerate(eqs))))
            redundant += 1
        objectives = [integer_vector([rand_frac(rng, 3, 2) for _ in range(width)]) for _ in range(rng.randint(2, 5))]
        objectives.append([0] * width)
        single = [lp_maximize([obj], ineqs, eqs)[0] for obj in objectives]
        assert lp_maximize(objectives, ineqs, eqs) == single
        order = list(range(len(objectives)))
        rng.shuffle(order)
        assert lp_maximize([objectives[k] for k in order], ineqs, eqs) == [single[k] for k in order]
        for value, point in single:
            assert all(g.value(point) <= 0 for g in ineqs)
            assert all(f.value(point) == 0 for f in eqs)
    assert redundant >= 100


def _random_lp(rng):
    """Objectives and a system drawn with fractional coefficients, each form
    and objective then cleared of denominators, mostly inside the cube: forms often pass through a cube vertex (degenerate vertices,
    so artificials stay basic at zero and are driven out), some equalities
    are multiples of another (redundant rows), many sets are empty, and a
    system without the cube facets may be unbounded."""
    width = rng.randint(1, 4)
    ineqs = cube_bounds(width) if rng.random() < 0.9 else []
    anchor = tuple(F(rng.randint(0, 2), 2) for _ in range(width))
    forms = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(rand_frac(rng, 3, 3) for _ in range(width))
        through = rng.random() < 0.6
        const = -sum(c * a for c, a in zip(coeffs, anchor)) if through else rand_frac(rng, 3, 3)
        forms.append(integer_form(coeffs, const))
    split = rng.randint(0, len(forms))
    eqs, ineqs = forms[:split], ineqs + forms[split:]
    redundant = bool(eqs) and rng.random() < 0.3
    if redundant:
        k = rng.choice((F(2), F(1, 3), F(-1)))
        eqs.append(integer_form(tuple(k * c for c in eqs[0].coeffs), k * eqs[0].const))
    objectives = [integer_vector([rand_frac(rng, 3, 3) for _ in range(width)]) for _ in range(rng.randint(1, 3))]
    return objectives, ineqs, eqs, width, redundant


def test_integer_simplex_matches_rational_reference_property(monkeypatch):
    # the integer tableau makes the pivots of the simplex over Q, one by one:
    # equal optima, witnesses and outcomes, and the same pivot count and
    # pivot-entry signs per solve (a negative entry is a drive-out pivot)
    logs = {}
    for mod in (ratgeom, rational_reference):
        inner, log = mod._pivot, logs.setdefault(mod, [])

        def counted(*args, inner=inner, log=log):
            rows, pr, pc = args[0], args[-2], args[-1]
            log.append(rows[pr][pc] < 0)
            return inner(*args)

        monkeypatch.setattr(mod, "_pivot", counted)
    rng = random.Random(2718)
    seen = {"redundant": 0, Infeasible: 0, Unbounded: 0, "negative pivots": 0}
    for _ in range(2000):
        objectives, ineqs, eqs, width, redundant = _random_lp(rng)
        outcomes = []
        for mod in (ratgeom, rational_reference):
            logs[mod].clear()
            try:
                outcome = mod.lp_maximize(objectives, ineqs, eqs)
            except (Infeasible, Unbounded) as exc:
                outcome = type(exc)
            outcomes.append((outcome, logs[mod][:]))
        assert outcomes[0] == outcomes[1], (objectives, ineqs, eqs)
        outcome, pivots = outcomes[0]
        seen["redundant"] += redundant
        seen["negative pivots"] += sum(pivots)
        if outcome in (Infeasible, Unbounded):
            seen[outcome] += 1
    assert min(seen.values()) >= 20, seen


def test_facet_rows_change_no_pivot_property(monkeypatch):
    # _phase1 gives a facet -x_i <= 0 no row; the reference keeps every row,
    # and both make the same exchanges, entering and leaving variable by
    # variable, with facets anywhere among the inequalities, some twice, and
    # a facet form among the equations (which keeps its row)
    logs = {ratgeom: [], rational_reference: []}
    for mod in logs:
        inner, log = mod._pivot, logs[mod]

        def logged(*args, inner=inner, log=log, mod=mod):
            basis, pr, pc = args[2], args[-2], args[-1]
            entering = args[3][pc] if mod is ratgeom else pc
            log.append((entering, basis[pr]))
            return inner(*args)

        monkeypatch.setattr(mod, "_pivot", logged)
    rng = random.Random(3141)
    seen = {"pivots": 0, "facet equations": 0, Infeasible: 0, Unbounded: 0}
    for _ in range(1500):
        objectives, ineqs, eqs, width, _ = _random_lp(rng)
        facets = cube_bounds(width)[::2]
        ineqs = list(ineqs) + [rng.choice(facets) for _ in range(rng.randint(0, 2))]
        if not any(f in facets for f in ineqs):
            ineqs += facets
        rng.shuffle(ineqs)
        if rng.random() < 0.1:
            eqs = list(eqs) + [rng.choice(facets)]
            seen["facet equations"] += 1
        outcomes = []
        for mod in logs:
            logs[mod].clear()
            try:
                outcome = mod.lp_maximize(objectives, ineqs, eqs)
            except (Infeasible, Unbounded) as exc:
                outcome = type(exc)
            outcomes.append((outcome, logs[mod][:]))
        assert outcomes[0] == outcomes[1], (objectives, ineqs, eqs)
        seen["pivots"] += len(outcomes[0][1])
        if outcomes[0][0] in (Infeasible, Unbounded):
            seen[outcomes[0][0]] += 1
    assert min(seen.values()) >= 20, seen


def test_pivots_leave_the_phase_1_tableau_as_it_is_property():
    # _pivot replaces each row it changes with a new list, so a pivot on a
    # copied list of rows, and every phase 2 run, which copies only the list,
    # leaves each row of the post-phase-1 tableau as phase 1 returned it
    rng = random.Random(5757)
    pivots = runs = 0
    for _ in range(400):
        objectives, ineqs, eqs, width, _ = _random_lp(rng)
        try:
            rows, basis, nonbasic, den = ratgeom._phase1(ineqs, eqs, width)
        except Infeasible:
            continue
        before = [row[:] for row in rows]
        for objective in objectives:
            try:
                ratgeom._phase2(rows, basis, nonbasic, den, objective)
            except Unbounded:
                pass
            runs += 1
        for pr, row in enumerate(rows):
            for pc in [j for j, v in enumerate(row[:-1]) if v][:1]:
                ratgeom._pivot(rows[:], [0] * len(row), basis[:], nonbasic[:], den, pr, pc)
                pivots += 1
        assert rows == before, (ineqs, eqs)
    assert pivots >= 100 and runs >= 100, (pivots, runs)


def _random_lattice_rows(rng):
    """Integer rows of every kind is_saturation_basis must sort: saturation
    bases, Hermite bases of unsaturated lattices, and those with a row
    scaled, two rows added, rows swapped or a zero or dependent row put in,
    besides plain random full-rank and rank-deficient matrices."""
    width = rng.randint(1, 5)
    rows = [tuple(rng.randint(-4, 4) for _ in range(width)) for _ in range(rng.randint(0, 4))]
    if rows and rng.random() < 0.3:
        rows.append(tuple(a + b for a, b in zip(rows[0], rows[-1])))  # rank-deficient
    kind = rng.randrange(6)
    if kind == 0:
        rows = saturation_basis(rows, width)
    elif kind == 1:
        rows = hnf_rows(rows) if rows else []
    elif kind >= 2 and rows:
        rows = saturation_basis(rows, width) or rows
        k = rng.randrange(len(rows))
        if kind == 2:
            rows[k] = tuple(rng.choice((-1, 2, 3)) * v for v in rows[k])
        elif kind == 3 and len(rows) > 1:
            rows[k] = tuple(a + b for a, b in zip(rows[k], rows[k - 1]))
        elif kind == 4 and len(rows) > 1:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
        else:
            rows.insert(k, rng.choice(((0,) * width, rows[k])))
    return [tuple(row) for row in rows], width


def test_is_saturation_basis_matches_saturation_basis_property():
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for _ in range(4000):
        rows, width = _random_lattice_rows(rng)
        expected = saturation_basis(rows, width) == rows
        assert is_saturation_basis(rows, width) == expected, (rows, width)
        seen[expected] += 1
    assert min(seen.values()) >= 1000, seen
    assert is_saturation_basis([], 3) and not is_saturation_basis([(2, 0)], 2) and is_saturation_basis([(2, 1)], 2)
    with pytest.raises(ValueError, match="row width"):
        is_saturation_basis([(1, 0)], 3)


def test_simplex_tableau_never_names_fraction():
    # the tableau holds integers from phase 1 to the witness numerators: no
    # simplex routine builds, converts or tests a Fraction
    tree = ast.parse(Path(ratgeom.__file__).read_text())
    routines = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_pivot", "_run_simplex", "_phase1", "_phase2"):
        named = {node.id for node in ast.walk(routines[name]) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(routines[name]) if isinstance(node, ast.Attribute)}
        assert "Fraction" not in named, name


def test_relative_interior_implicit_set_property():
    # the implicit set is, by definition, the inequalities that vanish at
    # their own max-slack witness; witnesses and values come from the
    # Fraction reference simplex and Fraction arithmetic
    rng = random.Random(1618)
    seen = {"implicit": 0, "strict": 0, Infeasible: 0, Unbounded: 0}
    for _ in range(2000):
        _, ineqs, eqs, width, _ = _random_lp(rng)
        value = lambda g, x: sum((c * p for c, p in zip(g.coeffs, x)), g.const)
        try:
            point, implicit = relative_interior_point(ineqs, eqs, width)
        except (Infeasible, Unbounded) as exc:
            with pytest.raises(type(exc)):
                rational_reference.lp_maximize([[F(0)] * width] + [[-c for c in g.coeffs] for g in ineqs],
                                               ineqs, eqs)
            seen[type(exc)] += 1
            continue
        (_, base), *slacks = rational_reference.lp_maximize(
            [[F(0)] * width] + [[-c for c in g.coeffs] for g in ineqs], ineqs, eqs)
        assert implicit == tuple(k for k, (g, (_, w)) in enumerate(zip(ineqs, slacks)) if value(g, w) == 0)
        # the sample is the mean of the base point and the non-implicit witnesses
        witnesses = [base] + [w for k, (_, w) in enumerate(slacks) if k not in implicit]
        assert point == tuple(sum(w[i] for w in witnesses) / len(witnesses) for i in range(width))
        assert all(value(f, point) == 0 for f in eqs)
        assert all((value(g, point) == 0) == (k in implicit) and value(g, point) <= 0 for k, g in enumerate(ineqs))
        seen["implicit"] += len(implicit)
        seen["strict"] += len(ineqs) - len(implicit)
    assert min(seen.values()) >= 20, seen


def _grid_points(grid, width):
    if width == 0:
        yield ()
        return
    for rest in _grid_points(grid, width - 1):
        for v in grid:
            yield (v,) + rest


def test_relative_interior_point_simplex():
    ineqs = cube_bounds(3)
    eqs = [AffineForm((1, 1, 1), -1)]
    point, implicit = relative_interior_point(ineqs, eqs, 3)
    assert implicit == ()
    assert sum(point) == 1
    for g in ineqs:
        assert g.value(point) < 0


def test_relative_interior_detects_implicit_equalities():
    # 2x <= 1 and 2x >= 1 force x = 1/2: both become implicit
    ineqs = cube_bounds(1) + [
        AffineForm((2,), -1),
        AffineForm((-2,), 1),
    ]
    point, implicit = relative_interior_point(ineqs, [], 1)
    assert point == (F(1, 2),)
    assert set(implicit) == {2, 3}
    # x_1 + x_2 = 2 meets the square in the corner (1, 1) only, where its
    # two facets x_i - 1 <= 0 are implicit
    assert relative_interior_point(cube_bounds(2), [AffineForm((1, 1), -2)], 2) == ((1, 1), (1, 3))
    # the diagonal x_1 = x_2 of the square: the origin, then the witnesses
    # (1, 1), (0, 0), (1, 1), (0, 0) of the four facets; x_1 - x_2 <= 0 is implicit
    diagonal = cube_bounds(2) + [AffineForm((1, -1), 0)]
    assert relative_interior_point(diagonal, [AffineForm((2, -2), 0)], 2) == ((F(2, 5), F(2, 5)), (4,))
    # the triangle x_1 <= x_2 of the square has no implicit inequality
    assert relative_interior_point(diagonal, [], 2) == ((F(1, 6), F(1, 2)), ())


def _max_min_coordinate(ineqs, eqs, width):
    """Reference: max over the set of min_i x_i, by one LP with a common
    lower bound delta as extra variable."""
    widen = lambda f: AffineForm(f.coeffs + (0,), f.const)
    bounds = []
    for i in range(width):
        coeffs = [0] * (width + 1)
        coeffs[i], coeffs[width] = -1, 1
        bounds.append(AffineForm(tuple(coeffs), 0))  # delta - x_i <= 0
    objective = [0] * width + [1]
    [(opt, _)] = lp_maximize([objective], [widen(f) for f in ineqs] + bounds, [widen(f) for f in eqs])
    return opt


def test_relative_interior_sample_is_positive_iff_max_min_is():
    # with the cube facets among the inequalities, a positive point exists
    # iff no -x_i <= 0 is implicit iff the relative-interior sample is positive
    rng = random.Random(1331)
    checked = positive = 0
    while checked < 300:
        width = rng.randint(1, 3)
        forms = [AffineForm(tuple(rng.randint(-3, 3) for _ in range(width)), rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 3))]
        split = rng.randint(0, len(forms))
        eqs, ineqs = forms[:split], forms[split:] + cube_bounds(width)
        try:
            sample, _ = relative_interior_point(ineqs, eqs, width)
        except Infeasible:
            continue
        assert all(sample) == (_max_min_coordinate(ineqs, eqs, width) > 0)
        checked += 1
        positive += all(sample)
    assert 0 < positive < checked


def test_relative_interior_point_raises_when_empty():
    with pytest.raises(Infeasible):
        relative_interior_point([AffineForm((1,), 1)], [], 1)
