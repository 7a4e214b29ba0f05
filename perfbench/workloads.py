"""Seeded query generators for the two benchmark workloads.

Each generator turns a seed into one pass: a list of queries that a run
repeats until its time is up.  A query is the argv of one CLI call (without
--format/--out), the text of any chart file it reads, and the parameters
the correctness checks need.  The library only ever sees the argv and the
chart files.

The content of a pass that drives its cost (which charts, which cone
families and arrangements, germ counts, degree bounds, cover and character
orders) is drawn from streams seeded by fixed names, not by the seed; the
parameters that set the tail come from decks, which deal each listed value
once per pass of the deck in a shuffled order.  The seed changes what the
mathematics does not see: it renames exceptional components and germs
(keeping their order), permutes the branches of cones and arrangements
(cover orders move with their branch), and orders the queries.  So two
seeds give different query lists with the same mix of costs, and the
spread between runs of different seeds measures the host and the program,
not the luck of the draw.  (Random charts differ in cost by more than ten
times between draws, which no run length averages away.)
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass, field
from itertools import combinations_with_replacement


@dataclass(frozen=True)
class Query:
    qid: int
    command: str
    argv: tuple[str, ...]          # "{chart}" stands for the chart file path
    chart: str | None              # YAML text of the chart, if any
    params: dict = field(default_factory=dict, compare=False, hash=False)

    def key(self) -> str:
        """Content key: same argv and chart text give the same key."""
        blob = json.dumps([self.argv, self.chart], sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class Deck:
    """Deals `values` in a shuffled order, reshuffling once all are dealt.
    Decks of one workload share a generator seeded by the workload's name
    alone."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.pool = rng, list(values), []

    def draw(self):
        if not self.pool:
            self.pool = list(self.values)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def _make(seed_rng: random.Random, content: random.Random, slots, make) -> list[tuple]:
    """`count` queries `make(content, seed_rng, cls)` for each (count, cls)
    slot, made in slot order, so the content stream is read the same way
    for every seed."""
    return [make(content, seed_rng, cls) for count, cls in slots for _ in range(count)]


def _pass(seed_rng: random.Random, made: list[tuple]) -> list[Query]:
    """The queries in an order drawn from the seed."""
    seed_rng.shuffle(made)
    return [Query(qid, command, argv, chart, params) for qid, (command, argv, chart, params) in enumerate(made)]


# names of three letters, none of which YAML reads as anything but a string
_NAMES = ["".join(p) for p in zip(string.ascii_lowercase * 26, sorted(string.ascii_lowercase * 26))]


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """`count` distinct random names in increasing order, so that renaming
    keeps every sorted order the library might use."""
    return sorted(prefix + name for name in rng.sample(_NAMES, count))


def _permute(rng: random.Random, *seqs: list) -> list[list]:
    """The sequences with one random permutation applied to each."""
    perm = list(range(len(seqs[0])))
    rng.shuffle(perm)
    return [[seq[i] for i in perm] for seq in seqs]


# ---------------------------------------------------------------------------
# charts: random YAML resolution charts, r = 3


CHART_R = 3
# (queries per pass, |E|): small charts are most of them, the two large ones
# set the tail
CHART_SLOTS = ((13, 2), (5, 3), (2, 4), (1, 5), (1, 6))


def _chart(rng: random.Random, nexc: int, germs: int, n: int) -> dict:
    ids = ["E%d" % (k + 1) for k in range(nexc)]
    exceptional = []
    for eid in ids:
        a = [0, 0, 0]
        while sum(a) < 2:
            a = [rng.randint(0, 3) for _ in range(CHART_R)]
        exceptional.append({"id": eid, "a": a, "c": rng.randint(1, 3)})
    # pairwise records along a random tree on E
    incidence = [
        {"members": sorted([ids[rng.randrange(k)], ids[k]]), "fold": 2} for k in range(1, nexc)
    ]
    chart_germs = [{"label": "1", "degree": 0, "e": {}}]
    seen = {(0,) * nexc}
    for g in range(germs - 1):
        while True:
            vec = tuple(rng.randint(0, 2) for _ in ids)
            if vec not in seen:
                break
        seen.add(vec)
        chart_germs.append({
            "label": "g%d" % (g + 1),
            "degree": max(vec),
            "e": {eid: v for eid, v in zip(ids, vec) if v},
        })
    return {"r": CHART_R, "n": n, "exceptional": exceptional, "incidence": incidence, "germs": chart_germs}


def _rename(rng: random.Random, doc: dict) -> dict:
    """The same chart with its exceptional components and its nontrivial
    germs renamed, each in their original order."""
    new = dict(zip((e["id"] for e in doc["exceptional"]), _names(rng, "E", len(doc["exceptional"]))))
    labels = ["1"] + _names(rng, "g", len(doc["germs"]) - 1)
    return dict(
        doc,
        exceptional=[dict(e, id=new[e["id"]]) for e in doc["exceptional"]],
        incidence=[dict(rec, members=[new[m] for m in rec["members"]]) for rec in doc["incidence"]],
        germs=[dict(g, label=label, e={new[k]: v for k, v in g["e"].items()})
               for g, label in zip(doc["germs"], labels)],
    )


def _chart_yaml(doc: dict) -> str:
    """Flow-style YAML written by hand, so the generator needs no YAML library."""
    out = ["r: %d" % doc["r"], "n: %d" % doc["n"], "exceptional:"]
    for exc in doc["exceptional"]:
        out.append("- {id: %s, a: [%s], c: %d}" % (exc["id"], ", ".join(map(str, exc["a"])), exc["c"]))
    out.append("incidence:" if doc["incidence"] else "incidence: []")
    for rec in doc["incidence"]:
        out.append("- {members: [%s], fold: %d}" % (", ".join(rec["members"]), rec["fold"]))
    out.append("germs:")
    for g in doc["germs"]:
        e = ", ".join("%s: %d" % kv for kv in g["e"].items())
        out.append("- {label: '%s', degree: %d, e: {%s}}" % (g["label"], g["degree"], e))
    return "\n".join(out) + "\n"


def _charts(rng: random.Random) -> list[tuple]:
    content = random.Random("charts")
    decks = {
        nexc: (Deck(content, ("faces", "components")), Deck(content, (2, 3, 4)), Deck(content, (1, 2)))
        for _, nexc in CHART_SLOTS
    }

    def make(content, rng, nexc):
        commands, germs, ns = decks[nexc]
        command = commands.draw()
        doc = _rename(rng, _chart(content, nexc, germs.draw(), ns.draw()))
        params = {"kind": "chart", "r": CHART_R, "n": doc["n"], "exceptional": doc["exceptional"]}
        return command, (command, "--input", "{chart}"), _chart_yaml(doc), params

    return _make(rng, content, CHART_SLOTS, make)


# ---------------------------------------------------------------------------
# cones: builtin weighted cone families


CONE_COMMANDS = ("faces", "components", "betti", "milnor", "check")
# (n, degree bound) pairs per r.  r = 4 stops at bound 2: at bound 3 one
# `faces` query takes 5 s, which would make single queries set a run's pace.
CONE_SHAPES = {
    2: [(n, b) for n in (2, 3) for b in (1, 2, 3)],
    3: [(n, b) for n in (2, 3) for b in (1, 2, 3)],
    4: [(n, b) for n in (2, 3) for b in (1, 2)],
}
# (queries per pass, (r, command)); the commands of the r = 4 queries are dealt
CONE_SLOTS = [(3, (2, c)) for c in CONE_COMMANDS] + [(1, (3, c)) for c in CONE_COMMANDS] + [(3, (4, None))]
# the one large cover order in a betti query: these set the tail
BETTI_LARGE_M = (2, 3, 4, 5, 6, 8, 12, 24)
# degree multisets per r, all but (1, ..., 1); the seed orders the branches
CONE_DEGREES = {
    r: [d for d in combinations_with_replacement((1, 2, 3, 4), r) if max(d) > 1] for r in CONE_SHAPES
}


def _cones(rng: random.Random) -> list[tuple]:
    content = random.Random("cones")
    shapes = {key: Deck(content, CONE_SHAPES[key[0]]) for _, key in CONE_SLOTS}
    degree_sets = {r: Deck(content, CONE_DEGREES[r]) for r in CONE_DEGREES}
    r4_commands = Deck(content, CONE_COMMANDS)
    large_m = Deck(content, BETTI_LARGE_M)
    check_orders = Deck(content, (2, 3, 4))

    def make(content, rng, cls):
        r, command = cls
        n, bound = shapes[cls].draw()
        command = command or r4_commands.draw()
        degrees = list(degree_sets[r].draw())
        params = {"kind": "cone", "r": r, "n": n, "bound": bound}
        extra = []
        if command == "betti":
            m = [content.choice((1, 2, 2, 3, 3, 4)) for _ in range(r)]
            m[content.randrange(r)] = large_m.draw()
            degrees, m = _permute(rng, degrees, m)
            extra = ["--m", ",".join(map(str, m))]
            params["m"] = m
        else:
            degrees, = _permute(rng, degrees)
            if command == "milnor":
                params["order"] = content.randint(2, 60)
            elif command == "check":
                params["order"] = check_orders.draw()
            if "order" in params:
                extra = ["--order", str(params["order"])]
        params["degrees"] = degrees
        argv = [command, "--cone", ",".join(map(str, degrees)), "--n", str(n), "--bound", str(bound)] + extra
        return command, tuple(argv), None, params

    return _make(rng, content, CONE_SLOTS, make)


# ---------------------------------------------------------------------------
# geometry: charts and cone families in one pass


def geometry(seed: int) -> list[Query]:
    """22 chart queries and 23 cone family queries.  A pass of 45 queries
    puts the median (rank 22.5) and the 90th percentile (rank 40.5) in the
    middle of one query's samples, not on the boundary between two queries
    of different cost."""
    rng = random.Random("geometry:%d" % seed)
    return _pass(rng, _charts(rng) + _cones(rng))


# ---------------------------------------------------------------------------
# arrangements: builtin generic arrangements, exact-oracle route


def sufficient_bound(r: int, n: int) -> int:
    """Germ degree bound at which the principal route is no longer a strict
    lower bound for arrangements (so `check` agrees with the oracle)."""
    return max(0, r - n - 2)


ARRANGEMENT_COMMANDS = ("betti", "milnor", "oracle", "check")
# cover and character orders per R: the field degree phi(order) drives the
# cost of the cyclotomic ranks, the number of characters order^R their count
ARRANGEMENT_ORDERS = {3: (4, 9), 4: (3, 6), 5: (2, 4)}
# (queries per pass, (R, command)): 45 a pass, for the reason given at geometry()
ARRANGEMENT_SLOTS = (
    [(count, (r, c)) for r, count in ((3, 6), (4, 4)) for c in ARRANGEMENT_COMMANDS]
    + [(2, (5, "betti")), (1, (5, "milnor")), (1, (5, "oracle")), (1, (5, "check"))]
)


def arrangements(seed: int) -> list[Query]:
    content, rng = random.Random("arrangements"), random.Random("arrangements:%d" % seed)
    ns = {key: Deck(content, range(1, key[0])) for _, key in ARRANGEMENT_SLOTS}
    orders = {key: Deck(content, range(ARRANGEMENT_ORDERS[key[0]][0], ARRANGEMENT_ORDERS[key[0]][1] + 1))
              for _, key in ARRANGEMENT_SLOTS}
    cover_orders = {
        r: Deck(content, combinations_with_replacement(range(low, high + 1), r))
        for r, (low, high) in ARRANGEMENT_ORDERS.items()
    }

    def make(content, rng, cls):
        r, command = cls
        n = ns[cls].draw()
        argv = [command, "--arrangement", str(r), "--n", str(n)]
        params = {"kind": "arrangement", "r": r, "n": n}
        if command != "oracle":
            argv += ["--bound", str(sufficient_bound(r, n))]
        if command == "betti":
            m, = _permute(rng, list(cover_orders[r].draw()))
            argv += ["--m", ",".join(map(str, m))]
            params["m"] = m
        elif command == "milnor":
            params["order"] = content.randint(2, 60)
            argv += ["--order", str(params["order"])]
        else:
            params["order"] = orders[cls].draw()
            argv += ["--order", str(params["order"])]
        return command, tuple(argv), None, params

    return _pass(rng, _make(rng, content, ARRANGEMENT_SLOTS, make))


WORKLOADS = {"geometry": geometry, "arrangements": arrangements}
