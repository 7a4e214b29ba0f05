"""Structured reports pinned by digest.

Each query runs through `cli.main` with `--format structured` and the sha256
of its report must match the digest recorded here.  A change that is meant
to leave the mathematics alone (a refactor, a faster solver) must leave
these bytes alone too.  The charts "four" and "five" are r = 3 with four
and five exceptional components; in both, the face search merges some
candidates with equal affine span and keeps others apart.  The chart "walk"
has 13 branches, so its search takes the mask walk, and three constraint
systems; two of its faces share the span x1 + ... + x13 = 9 with different
labels, so the walk compares candidates of equal span and keeps them apart.
"""

import hashlib

import pytest

import quasiadj.cli as cli

CHARTS = {
    "four": """\
r: 3
n: 2
exceptional:
- {id: E1, a: [1, 2, 0], c: 1}
- {id: E2, a: [0, 1, 2], c: 1}
- {id: E3, a: [2, 2, 2], c: 2}
- {id: E4, a: [0, 3, 3], c: 3}
incidence:
- {members: [E1, E2], fold: 2}
- {members: [E2, E3], fold: 2}
- {members: [E3, E4], fold: 2}
germs:
- {label: '1', degree: 0, e: {}}
- {label: g1, degree: 2, e: {E1: 2}}
- {label: g2, degree: 2, e: {E2: 2, E3: 1, E4: 2}}
""",
    "five": """\
r: 3
n: 2
exceptional:
- {id: E1, a: [1, 1, 1], c: 2}
- {id: E2, a: [3, 0, 3], c: 2}
- {id: E3, a: [2, 0, 3], c: 1}
- {id: E4, a: [3, 3, 1], c: 3}
- {id: E5, a: [3, 0, 3], c: 2}
incidence:
- {members: [E1, E2], fold: 2}
- {members: [E2, E3], fold: 2}
- {members: [E2, E4], fold: 2}
- {members: [E3, E5], fold: 2}
germs:
- {label: '1', degree: 0, e: {}}
- {label: g1, degree: 2, e: {E1: 2, E2: 1, E4: 2}}
- {label: g2, degree: 2, e: {E1: 2, E5: 1}}
""",
    "walk": """\
r: 13
n: 2
exceptional:
- {id: E1, a: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], c: 2}
- {id: E2, a: [2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2], c: 3}
incidence:
- {members: [E1, E2], fold: 2}
germs:
- {label: '1', degree: 0, e: {}}
- {label: g1, degree: 1, e: {E1: 1}}
- {label: g2, degree: 2, e: {E1: 1, E2: 2}}
""",
}

QUERIES = {
    "faces-four": ["faces", "--input", "{dir}/four.yaml"],
    "components-four": ["components", "--input", "{dir}/four.yaml"],
    "faces-five": ["faces", "--input", "{dir}/five.yaml"],
    "components-five": ["components", "--input", "{dir}/five.yaml"],
    "faces-cone": ["faces", "--cone", "2,3,4", "--n", "2", "--bound", "2"],
    "check-arrangement": ["check", "--arrangement", "4", "--n", "2", "--order", "3"],
    "milnor-cone": ["milnor", "--cone", "2,2,2", "--n", "2", "--bound", "2", "--order", "6"],
    "components-cone": ["components", "--cone", "2,3,4", "--n", "2", "--bound", "2"],
    "betti-cone": ["betti", "--cone", "2,3,4", "--n", "2", "--bound", "1", "--m", "2,3,2"],
    "oracle-arrangement": ["oracle", "--arrangement", "5", "--n", "3", "--order", "3"],
    "betti-arrangement": ["betti", "--arrangement", "5", "--n", "4", "--m", "2,2,2,2,3"],
    "milnor-arrangement": ["milnor", "--arrangement", "4", "--n", "3", "--order", "6"],
    "check-arrangement-15": ["check", "--arrangement", "15", "--n", "1", "--order", "1"],
    "faces-arrangement-16": ["faces", "--arrangement", "16", "--n", "1"],
    "components-cone-15": ["components", "--cone", "1,1,1,1,1,1,1,1,1,1,1,1,1,1,2", "--n", "13"],
    "faces-walk": ["faces", "--input", "{dir}/walk.yaml"],
    "components-walk": ["components", "--input", "{dir}/walk.yaml"],
}

DIGESTS = {
    # recorded when the vertex route began to sample a face that no form
    # crosses at its vertex centroid: these reports differ from the ones
    # before only in sample lines
    "faces-four": "30ee93c46aec9ba24ef84a0ddf707863d83abce3bfce3b73b0033d60d4aaf908",
    "faces-five": "1eaf9280ea6b1815f7d88cdff2a0fe09bfb0501bde0ccf9a56e5910a7c4f10ad",
    "faces-cone": "8b1cc51aaeba10e9774d6b3699ba0907dc8fc6494fdaae0ec6ceb8d26c33ffaa",
    # recorded before the face search shared one phase 1 per region
    "components-four": "f98ce41b85c17a62a5d32f1fc8a8341853f66c05d707fac7c71797150daa321c",
    "components-five": "b0e499065f5e6ef06a4ae45dc3d70ffe10fb33fb1314091c97a213901ba5ca11",
    "check-arrangement": "1ef863987bc23eefd7dde69430b649dd700976ac57a4445b294a5194207079c1",
    "milnor-cone": "16ee6cb6590f91a7b73fdab23fd2a8f3d4be820480b8d9d654791e37e04f9bfe",
    # recorded before subtorus containment moved onto the Hermite route
    "components-cone": "8384d66e84b1430c741f7f89e2b1ecdc0b2455b741fec13fb9d7cd8132a7da3f",
    "betti-cone": "c00adc2ef6827dcc5b38f502664526efa0b297b1c05c63644ef378680d7f2ab4",
    # recorded before the oracle ranked only the top differential
    "oracle-arrangement": "d2754c7cc51a10a0264c1d46be5da44446419aceacc6a8cda2f5211ffd30acc2",
    "betti-arrangement": "5ae2987eba78cb6ec19d402e4f1685f5243fb90ec54fd4225daf3f0ed0f3e5e6",
    "milnor-arrangement": "7e66a59e33c0f40570a8bc3a67058f62b3bc9f6b96cea79e3a227a1913486f18",
    # recorded before the face search read faces off polytope vertices: 15 and
    # 16 branches, where the cube alone has 2^15 and 2^16 corners
    "check-arrangement-15": "3e6ca38ca68702fe187477a975911e6a5b513d992b4864ac6bdccc2e6536b128",
    "faces-arrangement-16": "7dd7da025b98539a6449db05c095af1f461375c8c3df7bbe0c3f77f0ea367089",
    "components-cone-15": "7a600dde4f57bdab12fbf4811c28bdba8a71be6331bde6653fcadcbf5714f10b",
    # recorded before the face search built its cube once and its face
    # regions became plain tuples of forms: the walk on a chart with
    # several constraint systems
    "faces-walk": "94add1da106252ad43d5224daf30152a392a4d56b9f1bd1ea3aae647cc233e00",
    "components-walk": "7729c171386b9a7e07bb847b0b0a9e42412335f0a06d95ffc9f5797e05fb58b7",
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_structured_report_digest(name, tmp_path):
    for chart, text in CHARTS.items():
        (tmp_path / (chart + ".yaml")).write_text(text)
    out = tmp_path / "report.yaml"
    argv = [a.format(dir=tmp_path) for a in QUERIES[name]]
    assert cli.main(argv + ["--format", "structured", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
