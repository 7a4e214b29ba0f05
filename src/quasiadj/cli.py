"""Command-line interface.

    quasiadj faces       --cone 2,3 --n 2 --bound 3
    quasiadj components  --cone 2,3 --n 2
    quasiadj betti       --arrangement 4 --n 2 --m 3,3,3,3
    quasiadj milnor      --cone 2,3 --n 2 --bound 3 --order 5
    quasiadj oracle      --arrangement 4 --n 2 --order 3
    quasiadj check       --arrangement 4 --n 2 --order 4

Every command takes exactly one of --input PATH (a resolution document),
--cone d1,d2,... or --arrangement R; builtin families take --n and an
optional --bound.  oracle refuses data the Koszul oracle does not model: it
needs a generic arrangement (a cone of degrees all 1) with 1 <= n <= r - 1.
oracle and check read f per character from covers.sweep.  Output is
human text by default; --format structured emits the same nested key/value
document format the loader reads (oracle's from its own fixed-shape writer),
and --out writes to a file.  A command builds only the format asked for.
Exit codes: 0 success, 1 input error, 2 cross-validation mismatch.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import work
from .charvariety import classify_essential, component_dict, polynomial_invariant, principal_components
from .covers import ORACLE, PRINCIPAL, betti_dict, betti_tables, milnor_dict, milnor_fiber, oracle_applies, sweep
from .cyclotomic import LaurentPoly
from .koszul import cone_support, on_support
from .quasiadjunction import faces_of_quasiadjunction, lct_face
from .resolution import _dump_oracle_yaml, _dump_yaml, cone_over, generic_arrangement, load_resolution


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; 2 is reserved for mismatches
        raise CliInputError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise CliInputError("expected a comma-separated integer list, got %r" % text)


@cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every main()
    call: parsing leaves no state in it."""
    parser = _Parser(prog="quasiadj", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", help="resolution document path")
        p.add_argument("--cone", type=_int_list, metavar="d1,d2,...", help="builtin cone family degrees")
        p.add_argument("--arrangement", type=int, metavar="R", help="builtin generic arrangement size")
        p.add_argument("--n", type=int, help="ambient dimension parameter n (builtin families)")
        p.add_argument("--bound", type=int, default=0, help="germ degree bound (builtin families)")
        p.add_argument("--format", choices=("human", "structured"), default="human")
        p.add_argument("--out", help="write output to this path")

    add_common(sub.add_parser("faces", help="faces of quasiadjunction"))
    add_common(sub.add_parser("components", help="principal components, essentiality, torus polynomial"))
    p_betti = sub.add_parser("betti", help="abelian cover homology ranks")
    add_common(p_betti)
    p_betti.add_argument("--m", type=_int_list, metavar="m1,...,mr", required=True, help="cover orders")
    p_milnor = sub.add_parser("milnor", help="Milnor fiber ranks and monodromy multiplicities")
    add_common(p_milnor)
    p_milnor.add_argument("--order", type=int, required=True, metavar="M", help="eigenvalue order bound")
    p_oracle = sub.add_parser("oracle", help="skeleton homology sweep (generic arrangements)")
    add_common(p_oracle)
    p_oracle.add_argument("--order", type=int, required=True, metavar="M")
    p_check = sub.add_parser("check", help="cross-validate principal components against the oracle")
    add_common(p_check)
    p_check.add_argument("--order", type=int, required=True, metavar="M")
    return parser


def _load_data(args):
    sources = [s for s in ("input", "cone", "arrangement") if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise CliInputError("exactly one of --input, --cone, --arrangement is required")
    if args.input is not None:
        if args.n is not None or args.bound:
            raise CliInputError("--n/--bound apply to builtin families only")
        try:
            with open(args.input) as fh:
                return load_resolution(fh)
        except OSError as exc:
            raise CliInputError("cannot read %s: %s" % (args.input, exc))
    if args.n is None:
        raise CliInputError("--n is required with a builtin family")
    if args.cone is not None:
        return cone_over(args.cone, args.n, args.bound)
    return generic_arrangement(args.arrangement, args.n, args.bound)


def _phase_str(beta: Fraction) -> str:
    if beta == 0:
        return "1"
    if beta == Fraction(1, 2):
        return "-1"
    return "exp(2*pi*i*%s)" % beta


def _torus_str(torus) -> str:
    return ", ".join("%s = %s" % (LaurentPoly.monomial(v), _phase_str(beta)) for v, beta in torus.equations)


def _face_str(face) -> str:
    eqs = []
    for v, beta in face.span:
        lhs = " + ".join(
            "x%d" % (i + 1) if c == 1 else "%d*x%d" % (c, i + 1)
            for i, c in enumerate(v)
            if c
        )
        eqs.append("%s = %s" % (lhs, beta))
    return ", ".join(eqs)


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def cmd_faces(args):
    data = _load_data(args)
    faces = faces_of_quasiadjunction(data)
    lct = lct_face(data, faces)
    stable = data.family.saturated if data.family is not None else None
    if args.format == "structured":
        report = {
            "faces": [
                {
                    "equations": _face_str(f),
                    "dim": f.dim,
                    "labels": {str(l): k for l, k in sorted(f.labels.items())},
                    "witnesses": {str(l): list(w) for l, w in sorted(f.witnesses.items())},
                    "sample": [str(v) for v in f.sample],
                }
                for f in faces
            ],
            "lct": {"gamma": str(lct.gamma), "face": _face_str(lct.face) if lct.face else None},
        }
        if stable is not None:
            report["stable_under_bound_increase"] = stable
        return _dump_yaml(report), 0
    lines = ["faces of quasiadjunction: %d" % len(faces)]
    for f in faces:
        labels = ", ".join("l=%d -> k=%d" % (l, k) for l, k in sorted(f.labels.items()))
        lines.append("  %s   (dim %d; %s)" % (_face_str(f), f.dim, labels))
    lines.append("log canonical threshold: gamma = %s%s" % (
        lct.gamma, "" if lct.face is None else " on face " + _face_str(lct.face)))
    if stable is not None:
        lines.append("degree bound %d %s under bound+1" % (
            data.family.bound, "is stable" if stable else "CHANGES"))
    return _text(lines), 0


def cmd_components(args):
    data = _load_data(args)
    comps = principal_components(data)
    rep = classify_essential(data, comps) if data.family is not None and data.r > 1 else None
    try:
        poly, note = polynomial_invariant(comps, data.r), None
    except ValueError as exc:
        poly, note = None, str(exc)
    if args.format == "structured":
        report = {"components": [component_dict(c) for c in comps]}
        if rep is not None:
            report["essential"] = len(rep.essential)
            report["nonessential"] = [
                {"torus": _torus_str(c.torus), "coordinate": i + 1} for c, i, _ in rep.nonessential
            ]
        report["polynomial"] = None if poly is None else str(poly)
        if note is not None:
            report["polynomial_note"] = note
        return _dump_yaml(report), 0
    lines = ["principal components: %d" % len(comps)]
    for c in comps:
        lines.append("  {%s}   k=%d l=%d contributions=%s" % (
            _torus_str(c.torus), c.k, c.l, list(c.contributions)))
    if rep is not None:
        lines.append("essential: %d, nonessential: %d" % (len(rep.essential), len(rep.nonessential)))
    lines.append("torus polynomial: %s" % poly if note is None else "torus polynomial: undefined (%s)" % note)
    lines.append("f-values derived from these components are principal lower bounds")
    return _text(lines), 0


def cmd_betti(args):
    data = _load_data(args)
    if len(args.m) != data.r:
        raise CliInputError("--m needs %d entries" % data.r)
    mode = ORACLE if oracle_applies(data) else PRINCIPAL
    tables = [t for t in betti_tables(data, args.m, f_mode=mode) if t is not None]
    if args.format == "structured":
        return _dump_yaml({t.mode: betti_dict(t) for t in tables}), 0
    lines = [] if len(tables) == 2 else ["branched table skipped: needs builtin family provenance"]
    for t in tables:
        lines.append("%s cover, m=(%s): ranks %s" % (
            t.mode, ",".join(map(str, t.orders)), list(t.ranks)))
        trivial = t.audit.get("top_from_trivial", 0)
        lines.append("  f source: %s; trivial-character term: %s (flagged unresolved)" % (mode, trivial))
        lines.append("  character audit: %d characters summed" % t.audit["characters"])
    return _text(lines), 0


def cmd_milnor(args):
    data = _load_data(args)
    if args.order < 1:
        raise CliInputError("--order must be positive")
    mode = ORACLE if oracle_applies(data) else PRINCIPAL
    table = milnor_fiber(data, args.order, f_mode=mode)
    if args.format == "structured":
        return _dump_yaml(milnor_dict(table)), 0
    lines = ["milnor fiber ranks (degrees 0..n, t=1 part excluded at top): %s" % list(table.ranks)]
    for phase, mult in sorted(table.multiplicities.items()):
        lines.append("  eigenvalue exp(2*pi*i*%s): multiplicity %s %d" % (
            phase, ">=" if mode == PRINCIPAL else "=", mult))
    lines.append("characteristic divisor in degree n: %s" % table.polynomial_string())
    lines.append("multiplicity at t = 1: unresolved (flagged)")
    lines.append("f source: %s" % mode)
    return _text(lines), 0


def cmd_oracle(args):
    data = _load_data(args)
    if not oracle_applies(data):
        raise CliInputError("oracle needs a generic arrangement with 1 <= n <= r - 1")
    if args.order < 1:
        raise CliInputError("--order must be positive")
    rows = [([str(p) for p in chi.phases], f) for chi, f in sweep(data, (args.order,) * data.r, ORACLE)]
    if args.format == "structured":  # thousands of rows: a writer of this one shape
        return _dump_oracle_yaml(data.r, data.n, args.order, rows), 0
    lines = ["oracle sweep: r=%d n=%d, %d characters of order dividing %d" % (
        data.r, data.n, len(rows), args.order)]
    for phases, f in rows:
        lines.append("  (%s) -> %d" % (", ".join(phases), f))
    return _text(lines), 0


def cmd_check(args):
    data = _load_data(args)
    if args.order < 1:
        raise CliInputError("--order must be positive")
    orders = (args.order,) * data.r
    if oracle_applies(data):
        off_ok = on_ok = on_total = off_total = 0
        trivial_line = ""
        mismatches = []
        for chi, pf, of in sweep(data, orders, PRINCIPAL, ORACLE):
            if chi.is_trivial():
                trivial_line = "trivial character: principal %d (lower bound) vs oracle %d (elimination output); excluded" % (pf, of)
                continue
            if on_support(chi.order, chi.exponents):
                on_total += 1
                if pf == of:
                    on_ok += 1
                else:
                    mismatches.append((chi, pf, of))
            else:
                off_total += 1
                if pf == of == 0:
                    off_ok += 1
                else:
                    mismatches.append((chi, pf, of))
        code = 0 if not mismatches else 2
        if args.format == "structured":
            return _dump_yaml({
                "mode": "arrangement",
                "on_support_agree": [on_ok, on_total],
                "off_support_agree": [off_ok, off_total],
                "mismatches": [
                    {"phases": [str(p) for p in chi.phases], "principal": pf, "oracle": of}
                    for chi, pf, of in mismatches
                ],
            }), code
        lines = [
            "principal vs oracle, order %d sweep:" % args.order,
            "  on-support nontrivial: %d/%d agree" % (on_ok, on_total),
            "  off-support: %d/%d both zero" % (off_ok, off_total),
            "  " + trivial_line,
        ]
        if mismatches:
            lines.append("MISMATCH at %d characters" % len(mismatches))
        return _text(lines), code
    if data.family is None:
        raise CliInputError("check needs a builtin family")
    sound = unsound = covered = on_total = 0
    bad = []
    for chi, pf in sweep(data, orders, PRINCIPAL):
        member = pf > 0
        supp = cone_support(data.family.degrees, chi.order, chi.exponents)
        if member and not supp:
            unsound += 1
            bad.append(chi)
        elif member:
            sound += 1
        if supp:
            on_total += 1
            if member:
                covered += 1
    code = 2 if unsound else 0
    if args.format == "structured":
        return _dump_yaml({
            "mode": "cone-support",
            "component_members_on_support": [sound, sound + unsound],
            "support_covered_by_components": [covered, on_total],
            "violations": [[str(p) for p in chi.phases] for chi in bad],
        }), code
    lines = [
        "cone support certification, order %d sweep:" % args.order,
        "  all %d component members lie on the weighted-degree support" % sound
        if not unsound
        else "  VIOLATION: %d component members off support" % unsound,
        "  support coverage by components at this bound: %d/%d" % (covered, on_total),
    ]
    return _text(lines), code


COMMANDS = {
    "faces": cmd_faces,
    "components": cmd_components,
    "betti": cmd_betti,
    "milnor": cmd_milnor,
    "oracle": cmd_oracle,
    "check": cmd_check,
}


@work.metered
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = COMMANDS[args.command](args)
    except (CliInputError, ValueError) as exc:  # library input checks raise ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
