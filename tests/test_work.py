"""The work ledger: every up-front estimate against what its call charges."""

import random
from math import comb, lcm, prod

import pytest

import quasiadj.cli as cli
import quasiadj.koszul as koszul
import quasiadj.work as work
from quasiadj.koszul import check_milnor_sweep, check_sweep, oracle_f, truncated_koszul
from quasiadj.quasiadjunction import faces_of_quasiadjunction
from quasiadj.resolution import ResolutionError, cone_over, load_resolution


def _charges(argv, capsys):
    """The ledger of one CLI query, which must run to the end: a check may
    find a mismatch, since principal values are lower bounds."""
    with work.ledger() as book:
        assert cli.main(argv) in (0, 2), argv
    capsys.readouterr()
    return book


def _sweeps(rng):
    """Random bounded sweep queries: (argv, characters, oracle estimate or
    None).  An arrangement takes the oracle route, a cone the principal."""
    for _ in range(12):
        r = rng.randint(2, 5)
        n = rng.randint(1, r - 1)
        cone = rng.random() < 0.3
        degrees = [rng.randint(1, 3) for _ in range(r)]
        family = ["--cone", ",".join(map(str, degrees))] if cone else ["--arrangement", str(r)]
        family += ["--n", str(n)]
        cone = cone and max(degrees) > 1  # a cone of degrees all 1 is an arrangement
        order = rng.randint(2, {2: 30, 3: 9, 4: 5, 5: 3}[r])
        m = [rng.randint(1, 4) for _ in range(r)]
        yield (["betti", *family, "--m", ",".join(map(str, m))], prod(m),
               None if cone else check_sweep(prod(m), lcm(*m), r, n, branched=True))
        yield ["milnor", *family, "--order", str(order)], order - 1, None if cone else check_milnor_sweep(order, r, n)
        yield ["check", *family, "--order", str(order)], order ** r, None if cone else check_sweep(order ** r, order, r, n)
        if not cone:
            yield ["oracle", *family, "--order", str(order)], order ** r, check_sweep(order ** r, order, r, n)


def test_sweeps_charge_at_most_their_estimates(capsys):
    # every character is charged, and each oracle sweep's evaluations,
    # field tables and Bareiss dividers, restricted characters of the
    # branched table included, stay within the estimate checked up front
    rng = random.Random(2828)
    ranked = 0
    for argv, characters, estimate in _sweeps(rng):
        book = _charges(argv, capsys)
        assert book.get("MAX_CHARACTERS", 0) == characters, argv
        assert book.get("MAX_SWEEP_WORK", 0) <= (estimate or 0), (argv, dict(book), estimate)
        ranked += book.get("MAX_SWEEP_WORK", 0) > 0
    assert ranked >= 20, ranked


def test_sweep_estimates_stay_near_their_charges(capsys):
    # the estimate ranks only the characters on the support, and betti's
    # the restriction of each once more: so it stays within 1.5x of what an
    # oracle or check sweep charges, and 2x of a betti sweep's
    for argv, estimate, slack in [
        (["oracle", "--arrangement", "4", "--n", "2", "--order", "3"], check_sweep(81, 3, 4, 2), 1.5),
        (["oracle", "--arrangement", "3", "--n", "1", "--order", "30"], check_sweep(27000, 30, 3, 1), 1.5),
        (["check", "--arrangement", "4", "--n", "2", "--order", "6"], check_sweep(1296, 6, 4, 2), 1.5),
        (["betti", "--arrangement", "4", "--n", "2", "--m", "6,6,6,6"], check_sweep(1296, 6, 4, 2, branched=True), 2),
        (["betti", "--arrangement", "5", "--n", "2", "--m", "4,4,4,4,4"], check_sweep(1024, 4, 5, 2, branched=True),
         2),
    ]:
        charged = _charges(argv, capsys)["MAX_SWEEP_WORK"]
        assert charged <= estimate <= slack * charged, (argv, charged, estimate)


def test_one_oracle_call_charges_at_most_its_estimate():
    # one character on the support: its evaluation of d_n, its field table
    # and the dividers its rank builds, against the estimate oracle_f checks
    rng = random.Random(2929)
    dividers = 0
    for _ in range(300):
        r = rng.randint(2, 6)
        n = rng.randint(1, r - 1)
        order = rng.randint(1, 40)
        ks = [rng.randrange(order) for _ in range(r - 1)]
        ks.append(-sum(ks) % order)
        rows, cols = comb(r - 1, n), comb(r - 1, n - 1)
        with work.ledger() as book:
            oracle_f(r, n, order, ks)
        assert book["MAX_SWEEP_WORK"] <= koszul._rank_work(order, rows, cols), (r, n, order, ks)
        order, ks = koszul._character(order, ks)
        phi = koszul._totient(order)
        dividers += book["MAX_SWEEP_WORK"] > phi * rows * cols + order * phi
    assert dividers >= 50, dividers


def test_koszul_builds_and_germs_charge_their_estimates(monkeypatch):
    # a Koszul build and a cone family's germs are charged what their
    # up-front check counted: one unit fewer refuses them
    rng = random.Random(3030)
    for _ in range(20):
        params = rng.randint(1, 7)
        top = rng.randint(0, params)
        truncated_koszul.cache_clear()
        with work.ledger() as book:
            truncated_koszul(params, top)
        units = book.get("MAX_KOSZUL_WORK", 0)
        if units:
            truncated_koszul.cache_clear()
            monkeypatch.setattr(work, "MAX_KOSZUL_WORK", units - 1)
            with pytest.raises(ValueError, match="needs %d entries" % units):
                truncated_koszul(params, top)
            monkeypatch.undo()
        n, bound = rng.randint(1, 3), rng.randint(0, 4)
        with work.ledger() as book:
            data = cone_over((2, 3), n, bound)
        assert book["MAX_GERMS"] == len(data.germs) == comb(n + 1 + bound, n + 1)
        monkeypatch.setattr(work, "MAX_GERMS", len(data.germs) - 1)
        with pytest.raises(ResolutionError, match="%d germs" % len(data.germs)):
            cone_over((2, 3), n, bound)
        monkeypatch.undo()
    truncated_koszul.cache_clear()


def _chart(rng, r, nexc):
    lines = ["r: %d" % r, "n: 2", "exceptional:"]
    for e in range(nexc):
        a = [rng.randint(0, 3) for _ in range(r)]
        a[rng.randrange(r)] += 1
        lines.append("- {id: E%d, a: %s, c: %d}" % (e, a, rng.randint(0, 3)))
    lines.append("incidence: [%s]" % ", ".join("[E%d]" % e for e in range(nexc)))
    lines.append("germs:\n- {label: '1', degree: 0, e: {}}")
    for g in range(rng.randint(0, 2)):
        e = ", ".join("E%d: %d" % (i, rng.randint(0, 2)) for i in range(nexc))
        lines.append("- {label: g%d, degree: 1, e: {%s}}" % (g, e))
    return load_resolution("\n".join(lines) + "\n")


def test_vertex_corners_estimate_refuses_only_what_the_route_refuses(monkeypatch):
    # the up-front vertex estimate is the corners of every pass, which the
    # route charges before anything else: so it never exceeds what the
    # route charges, and a cap below it lets the route charge nothing
    rng = random.Random(3131)
    for _ in range(40):
        data = _chart(rng, rng.randint(1, 4), rng.randint(1, 4))
        systems = len({tuple(g.valuation(x.id) for x in data.exceptional) for g in data.germs})
        corners = systems * (data.r << data.r)
        with work.ledger() as book:
            faces = faces_of_quasiadjunction(data)
        assert corners <= book["MAX_VERTEX_WORK"]
        monkeypatch.setattr(work, "MAX_VERTEX_WORK", corners - 1)
        with work.ledger() as book:
            walked = faces_of_quasiadjunction(data)  # by the mask walk, sampled at its solves
        assert "MAX_VERTEX_WORK" not in book
        assert [(f.span, f.labels) for f in walked] == [(f.span, f.labels) for f in faces]
        monkeypatch.undo()
