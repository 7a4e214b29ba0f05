"""Per-query correctness checks that share no code with the library.

Every check recomputes its expectation from the query parameters with the
standard library alone (binomials, integer character counts, exact
fractions) and compares it with the structured report.  `verify` returns a
list of failure messages; an empty list means the report passed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod

_TERM = re.compile(r"^(-?\d+)\*x(\d+)$|^x(\d+)$")


def count_on_support(weights: list[int], orders: list[int], nonzero: bool = False) -> int:
    """Number of (k_i) with 0 <= k_i < orders[i] and sum weights[i] k_i / orders[i]
    an integer, counted by dynamic programming over residues mod lcm(orders).
    With nonzero=True every k_i must be nonzero."""
    modulus = lcm(*orders) if orders else 1
    counts = {0: 1}
    for w, m in zip(weights, orders):
        step = modulus // m
        nxt: dict[int, int] = {}
        for residue, ways in counts.items():
            for k in range(1 if nonzero else 0, m):
                key = (residue + w * k * step) % modulus
                nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
    return counts.get(0, 0)


def _parse_equations(text: str, r: int) -> list[tuple[list[int], Fraction]]:
    """'2*x1 + 3*x2 = 5/6, x3 = 1' -> [([2, 3, 0], 5/6), ([0, 0, 1], 1)]."""
    out = []
    for eq in text.split(", "):
        lhs, rhs = eq.split(" = ")
        coeffs = [0] * r
        for term in lhs.split(" + "):
            m = _TERM.match(term)
            if m is None:
                raise ValueError("unparsed term %r" % term)
            if m.group(3):
                coeffs[int(m.group(3)) - 1] += 1
            else:
                coeffs[int(m.group(2)) - 1] += int(m.group(1))
        out.append((coeffs, Fraction(rhs)))
    return out


def _check_faces(report, r: int, exceptional: list[dict], fails: list[str]) -> None:
    for k, face in enumerate(report["faces"]):
        sample = [Fraction(v) for v in face["sample"]]
        if len(sample) != r or not all(0 < v <= 1 for v in sample):
            fails.append("face %d: sample %s outside (0,1]^%d" % (k, face["sample"], r))
        for coeffs, beta in _parse_equations(face["equations"], r):
            if sum(c * v for c, v in zip(coeffs, sample)) != beta:
                fails.append("face %d: sample off its span equation %s" % (k, face["equations"]))
        if not 0 <= face["dim"] < r:
            fails.append("face %d: dimension %s" % (k, face["dim"]))
        if not face["labels"] or any(v < 1 for v in face["labels"].values()):
            fails.append("face %d: labels %s" % (k, face["labels"]))
    gamma = min(Fraction(e["c"] + 1, sum(e["a"])) for e in exceptional)
    if Fraction(report["lct"]["gamma"]) != gamma:
        fails.append("lct gamma %s, expected %s" % (report["lct"]["gamma"], gamma))


def _check_components(report, r: int, family: bool, fails: list[str]) -> None:
    comps = report["components"]
    for k, comp in enumerate(comps):
        eqs = comp["torus"]["equations"]
        if comp["torus"]["dim"] != r - len(eqs):
            fails.append("component %d: dim %s with %d equations" % (k, comp["torus"]["dim"], len(eqs)))
        if any(not 0 <= Fraction(e["phase"]) < 1 or len(e["exponents"]) != r for e in eqs):
            fails.append("component %d: malformed equation" % k)
        contributions = comp["contributions"]
        top = max(c[1] for c in contributions) if contributions else None
        if comp["k"] != top or comp["l"] != min(c[0] for c in contributions if c[1] == top):
            fails.append("component %d: (k, l) = (%s, %s) against contributions %s" % (
                k, comp["k"], comp["l"], contributions))
    all_codim_one = all(len(c["torus"]["equations"]) == 1 for c in comps)
    if (report["polynomial"] is None) == all_codim_one:
        fails.append("torus polynomial presence does not match component codimensions")
    if family and r > 1 and report["essential"] + len(report["nonessential"]) != len(comps):
        fails.append("essential + nonessential != components")


def _check_betti(report, p: dict, fails: list[str], arrangement: bool) -> None:
    r, n, m = p["r"], p["n"], p["m"]
    unb, br = report["unbranched"], report["branched"]
    if unb["ranks"][:n] != [comb(r, q) for q in range(n)]:
        fails.append("unbranched sub-top ranks %s" % unb["ranks"][:n])
    if br["ranks"][:n] != [1] + [0] * (n - 1):
        fails.append("branched sub-top ranks %s" % br["ranks"][:n])
    for table in (unb, br):
        if table["audit"]["characters"] != prod(m):
            fails.append("%s audit: %s characters, expected %d" % (
                table["mode"], table["audit"]["characters"], prod(m)))
    if unb["ranks"][n] != unb["audit"]["top_from_nontrivial"] + unb["audit"]["top_from_trivial"]:
        fails.append("unbranched top rank is not the sum of its audit terms")
    if br["ranks"][n] != sum(br["audit"]["buckets"].values()):
        fails.append("branched top rank is not the sum of its buckets")
    if not arrangement:
        return
    nontrivial_on = count_on_support([1] * r, m) - 1
    expected = nontrivial_on * comb(r - 2, n) + comb(r - 1, n)
    if unb["ranks"][n] != expected or unb["audit"]["top_from_trivial"] != comb(r - 1, n):
        fails.append("unbranched top %s, expected %d" % (unb["ranks"][n], expected))
    total = 0
    for size in range(1, r + 1):
        for keep in combinations(range(r), size):
            sub = [m[i] for i in keep]
            on = count_on_support([1] * size, sub, nonzero=True) if size > n else 0
            value = on * comb(size - 2, n) if size > n else 0
            total += value
            label = ",".join(str(i + 1) for i in keep)
            if br["audit"]["buckets"].get(label, 0) != value:
                fails.append("branched bucket %s: %s, expected %d" % (
                    label, br["audit"]["buckets"].get(label), value))
    if br["ranks"][n] != total:
        fails.append("branched top %s, expected %d" % (br["ranks"][n], total))


def _check_milnor(report, p: dict, fails: list[str], arrangement: bool) -> None:
    r, n, order = p["r"], p["n"], p["order"]
    if report["ranks"][:n] != [comb(r - 1, q) for q in range(n)]:
        fails.append("milnor sub-top ranks %s" % report["ranks"][:n])
    mults = report["multiplicities"]
    if len(mults) != order - 1:
        fails.append("milnor: %d eigenvalues, expected %d" % (len(mults), order - 1))
    if report["ranks"][n] != sum(mults.values()):
        fails.append("milnor top rank is not the sum of multiplicities")
    if not arrangement:
        return
    for k in range(1, order):
        expected = comb(r - 2, n) if (r * k) % order == 0 else 0
        if mults.get(str(Fraction(k, order))) != expected:
            fails.append("milnor multiplicity at %s: %s, expected %d" % (
                Fraction(k, order), mults.get(str(Fraction(k, order))), expected))


def _check_oracle(report, p: dict, fails: list[str]) -> None:
    r, n, order = p["r"], p["n"], p["order"]
    rows = report["characters"]
    if len(rows) != order ** r:
        fails.append("oracle: %d rows, expected %d" % (len(rows), order ** r))
    seen = set()
    nontrivial_on = 0
    for row in rows:
        phases = tuple(Fraction(v) for v in row["phases"])
        seen.add(phases)
        if any(not 0 <= v < 1 or (v * order).denominator != 1 for v in phases):
            fails.append("oracle: phases %s are not of order %d" % (row["phases"], order))
        if sum(phases).denominator != 1:
            expected = 0
        elif not any(phases):
            expected = comb(r - 1, n)
        else:
            expected = comb(r - 2, n)
            nontrivial_on += 1
        if row["f"] != expected:
            fails.append("oracle: f%s = %s, expected %d" % (row["phases"], row["f"], expected))
    if len(seen) != len(rows):
        fails.append("oracle: repeated characters")
    if nontrivial_on != count_on_support([1] * r, [order] * r) - 1:
        fails.append("oracle: %d nontrivial on-support rows" % nontrivial_on)


def _check_check(report, p: dict, fails: list[str], arrangement: bool) -> None:
    r, order = p["r"], p["order"]
    if arrangement:
        on = count_on_support([1] * r, [order] * r) - 1
        off = order ** r - on - 1
        if report["on_support_agree"] != [on, on] or report["off_support_agree"] != [off, off]:
            fails.append("check: agreement %s / %s, expected [%d, %d] / [%d, %d]" % (
                report["on_support_agree"], report["off_support_agree"], on, on, off, off))
        if report["mismatches"]:
            fails.append("check: %d mismatches" % len(report["mismatches"]))
        return
    on = count_on_support(p["degrees"], [order] * r)
    members = report["component_members_on_support"]
    covered = report["support_covered_by_components"]
    if members[0] != members[1] or report["violations"]:
        fails.append("check: component members off support %s" % members)
    if covered[1] != on or not 0 <= covered[0] <= on:
        fails.append("check: support coverage %s, expected total %d" % (covered, on))


def verify(command: str, params: dict, code, report) -> list[str]:
    """Check one query's exit code and parsed structured report.  The
    query's params["kind"] says what it ran on: a chart, a cone family or an
    arrangement."""
    if code != 0:
        return ["exit code %s" % code]
    fails: list[str] = []
    kind = params["kind"]
    arrangement = kind == "arrangement"
    if command == "faces":
        exceptional = params.get("exceptional") or [
            {"a": params["degrees"], "c": params["n"]}]
        _check_faces(report, params["r"], exceptional, fails)
        if kind == "cone" and not isinstance(report.get("stable_under_bound_increase"), bool):
            fails.append("faces: no stabilization verdict for a builtin family")
    elif command == "components":
        _check_components(report, params["r"], kind != "chart", fails)
    elif command == "betti":
        _check_betti(report, params, fails, arrangement)
    elif command == "milnor":
        _check_milnor(report, params, fails, arrangement)
    elif command == "oracle":
        _check_oracle(report, params, fails)
    elif command == "check":
        _check_check(report, params, fails, arrangement)
    else:
        fails.append("no check for command %r" % command)
    return fails
