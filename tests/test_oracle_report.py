"""The structured `oracle` report: a fixed-shape writer checked against PyYAML.

`cmd_oracle` writes its structured report with `_dump_oracle_yaml` instead of
`_dump_yaml`.  Every document it accepts must be the bytes `yaml.dump`
writes for the same report as a dict, under libyaml's dumper and under the
pure-Python one, and anything outside the shape must raise.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import quasiadj.cli as cli
import quasiadj.resolution as resolution
from quasiadj.charvariety import torsion_characters
from quasiadj.koszul import oracle_f
from quasiadj.resolution import _dump_oracle_yaml

DUMPERS = [
    pytest.param(getattr(yaml, "CSafeDumper", None), id="libyaml",
                 marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")),
    pytest.param(yaml.SafeDumper, id="python"),
]


def as_dict(r, n, order, rows):
    """The report as a dict."""
    return {"r": r, "n": n, "order": order,
            "characters": [{"phases": list(phases), "f": f} for phases, f in rows]}


def pyyaml(doc, dumper=resolution._SafeDumper):
    """The reference bytes: PyYAML's, with the library's dump options."""
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=None)


phases = st.integers(1, 10**6).flatmap(lambda N: st.integers(0, N - 1).map(lambda k: str(Fraction(k, N))))


@st.composite
def reports(draw):
    r = draw(st.integers(1, 40))
    rows = draw(st.lists(st.tuples(st.lists(phases, min_size=r, max_size=r), st.integers(0, 10**7)),
                         min_size=1, max_size=3))
    return r, draw(st.integers(1, 40)), draw(st.integers(1, 10**6)), rows


# one row of r phases 1/2 is 5r + 10 columns; the column passes 80 at the
# comma after the 15th phase, so r = 15 does not wrap and r = 16 does
HALVES = {r: (r, 1, 2, [(["1/2"] * r, 1)]) for r in (15, 16)}


@pytest.mark.parametrize("dumper", DUMPERS)
@settings(max_examples=50, deadline=None)
@given(reports())
@example(HALVES[15])
@example(HALVES[16])
@example((40, 3, 999999, [(["0"] * 20 + ["999998/999999"] * 20, 10**7)] * 3))
def test_writer_matches_dump_yaml(dumper, report):
    assert _dump_oracle_yaml(*report) == pyyaml(as_dict(*report), dumper)


def test_writer_wraps_past_column_80():
    assert "\n    " not in _dump_oracle_yaml(*HALVES[15])
    assert "\n    " in _dump_oracle_yaml(*HALVES[16])


@pytest.mark.parametrize("r, n, order, rows", [
    (3, 1, 2, [(["1"], 0)]),             # an integer phase other than 0
    (3, 1, 2, [(["-1/2"], 0)]),
    (3, 1, 2, [(["1.5"], 0)]),
    (3, 1, 2, [(["1/2, 1/3"], 0)]),      # a flow indicator inside a phase
    (3, 1, 2, [(["01/2"], 0)]),
    (3, 1, 2, [([Fraction(1, 2)], 0)]),  # phases are strings
    (3, 1, 2, [([0], 0)]),
    (3, 1, 2, [([], 0)]),
    (3, 1, 2, [(["1/2"], True)]),
    (3, 1, 2, [(["1/2"], "1")]),
    (3, 1, 2, [(["1/2"], 1.0)]),
    (3, 1, 2, []),
    ("3", 1, 2, [(["1/2"], 1)]),
    (3, False, 2, [(["1/2"], 1)]),
])
def test_writer_refuses_other_shapes(r, n, order, rows):
    with pytest.raises(ValueError):
        _dump_oracle_yaml(r, n, order, rows)


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


# every sweep of at most 300 characters with r from 2 to 6, 1 <= n <= r - 1, orders 1-6
SMALL_SWEEPS = [(r, n, order) for r in range(2, 7) for n in range(1, r) for order in range(1, 7) if order**r <= 300]


def test_oracle_cli_reports_match_dict_reports():
    for r, n, order in SMALL_SWEEPS:
        rows = [([str(p) for p in chi.phases], oracle_f(r, n, chi.order, chi.exponents))
                for chi in torsion_characters((order,) * r)]
        argv = ["oracle", "--arrangement", str(r), "--n", str(n), "--order", str(order), "--format"]
        assert _cli(argv + ["structured"]) == pyyaml(as_dict(r, n, order, rows))
        human = ["oracle sweep: r=%d n=%d, %d characters of order dividing %d" % (r, n, len(rows), order)]
        human += ["  (%s) -> %d" % (", ".join(phases), f) for phases, f in rows]
        assert _cli(argv + ["human"]) == "\n".join(human) + "\n"
