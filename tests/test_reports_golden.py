"""Structured reports pinned by digest.

Each query runs through `cli.main` with `--format structured` and the sha256
of its report must match the digest recorded here.  A change that is meant
to leave the mathematics alone (a refactor, a faster solver) must leave
these bytes alone too.  The two charts are r = 3 with four and five
exceptional components; in both, the face search merges some candidates
with equal affine span and keeps others apart.
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
}

# recorded before the face search shared one phase 1 per region
DIGESTS = {
    "faces-four": "29df7a8793425b605c90390ed2e54dd5e9b0687e6e0ffdfa59a07dbdaa5dc0ea",
    "components-four": "f98ce41b85c17a62a5d32f1fc8a8341853f66c05d707fac7c71797150daa321c",
    "faces-five": "9e88c72d031457bfd15a79e911337a22106028f6b5c2052ac69d0fcb17ba6590",
    "components-five": "b0e499065f5e6ef06a4ae45dc3d70ffe10fb33fb1314091c97a213901ba5ca11",
    "faces-cone": "65903566dd451bcda42d38bbbd82fd362f698f86df408a76389dc8cacb2fff34",
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
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_structured_report_digest(name, tmp_path):
    for chart, text in CHARTS.items():
        (tmp_path / (chart + ".yaml")).write_text(text)
    out = tmp_path / "report.yaml"
    argv = [a.format(dir=tmp_path) for a in QUERIES[name]]
    assert cli.main(argv + ["--format", "structured", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
