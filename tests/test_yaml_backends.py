"""libyaml and the pure-Python YAML classes give the same bytes and documents.

The library loads through libyaml when PyYAML is built with it, and
through the pure-Python classes otherwise; it writes reports with its own
emitter, which leaves to the configured dumper only what PyYAML would
double-quote or write as a complex key.  Each check here runs both backends
and requires byte-identical reports and serializations, equal to
`yaml.dump` under each dumper, and for loader input the same document or
the same ResolutionError message (up to the parser's own parenthesized
detail).
"""

import hashlib
import io
import re
from contextlib import contextmanager

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import quasiadj.cli as cli
import quasiadj.resolution as resolution
from quasiadj.resolution import ResolutionError, cone_over, generic_arrangement, load_resolution, serialize_resolution

import test_reports_golden as golden
from test_resolution import resolutions

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")

BACKENDS = {
    "libyaml": (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None)),
    "python": (resolution._PythonSafeLoader, yaml.SafeDumper),
}


@contextmanager
def backend(name):
    """Load and dump through the named backend's classes."""
    loader, dumper = BACKENDS[name]
    saved = resolution._UniqueKeyLoader, resolution._SafeDumper
    resolution._UniqueKeyLoader = type("Loader", (resolution._UniqueKeys, loader), {})
    resolution._SafeDumper = dumper
    try:
        yield
    finally:
        resolution._UniqueKeyLoader, resolution._SafeDumper = saved


def each_backend(run):
    """run() under each backend in turn; the results, by backend."""
    results = {}
    for name in BACKENDS:
        with backend(name):
            results[name] = run()
    return results


def test_default_backend_is_libyaml():
    assert issubclass(resolution._UniqueKeyLoader, yaml.CSafeLoader)
    assert resolution._SafeDumper is yaml.CSafeDumper


@pytest.mark.parametrize("name", sorted(golden.QUERIES))
def test_golden_reports_byte_identical(name, tmp_path):
    for chart, text in golden.CHARTS.items():
        (tmp_path / (chart + ".yaml")).write_text(text)
    out = tmp_path / "report.yaml"
    argv = [a.format(dir=tmp_path) for a in golden.QUERIES[name]] + ["--format", "structured", "--out", str(out)]

    def report():
        assert cli.main(argv) == 0
        return out.read_bytes()

    results = each_backend(report)
    assert results["libyaml"] == results["python"]
    assert hashlib.sha256(results["python"]).hexdigest() == golden.DIGESTS[name]


FAMILIES = [
    cone_over((2, 3), 2, 3),
    cone_over((2, 3, 4), 2, 2),
    cone_over((1, 2, 2, 3), 3, 2),
    cone_over((5,), 1, 4),
    generic_arrangement(3, 1, 0),
    generic_arrangement(4, 2, 1),
    generic_arrangement(5, 3, 0),
]


@pytest.mark.parametrize("data", FAMILIES, ids=lambda d: "%s%s" % (d.family[0], d.family[1:]))
def test_serialize_families_byte_identical(data):
    texts = each_backend(lambda: serialize_resolution(data))
    assert texts["libyaml"] == texts["python"]
    doc = yaml.safe_load(texts["python"])
    for name, (_, dumper) in BACKENDS.items():
        assert yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=None) == texts[name]
    loaded = each_backend(lambda: load_resolution(io.StringIO(texts["python"])))
    assert loaded["libyaml"] == loaded["python"] == data


KEYED = re.compile(r"( *)(- )?([a-z]+): (.*)$")


@st.composite
def loader_documents(draw):
    """Serialized charts with a keyed line duplicated, moved into a merge
    key, or shadowed by one, or with a short run of YAML punctuation
    inserted somewhere."""
    lines = serialize_resolution(draw(resolutions)).splitlines()
    keyed = [(k, m) for k, m in enumerate(KEYED.match(line) for line in lines) if m]
    k, m = draw(st.sampled_from(keyed))
    indent = " " * (len(m.group(1)) + len(m.group(2) or ""))
    kind = draw(st.sampled_from(["duplicate", "merge", "shadow", "noise"]))
    if kind == "duplicate":
        lines.insert(k + 1, indent + m.group(3) + ": " + m.group(4))
    elif kind == "merge":
        lines[k] = m.group(1) + (m.group(2) or "") + "<<: {%s: %s}" % (m.group(3), m.group(4))
    elif kind == "shadow":
        other = draw(st.sampled_from(["7", "x", "[1, 2]", "{E0: 1}", "null"]))
        lines.insert(k + 1, indent + "<<: {%s: %s}" % (m.group(3), other))
    else:
        text = "\n".join(lines)
        at = draw(st.integers(0, len(text)))
        noise = draw(st.text(alphabet="-:{}[],'\"#&*!|>?<@ \n0aE", min_size=1, max_size=3))
        return text[:at] + noise + text[at:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [
    "a: [1:, 1, 1]\n",     # ':' before a flow indicator ends nothing: an error
    "a: [1 :]\n",
    "a: [a:?]\n",
    "a: [D?1, D2]\n",      # '?' inside a flow plain scalar is text
    "a: [a ?b, c]\n",
    "a: [?]\n",            # the token after an empty key in a flow sequence is dropped
    "a: [?, b]\n",
    "a: [a, ?,]\n",
    "a: [!!str, b]\n",     # a tag ends at ',' in a flow collection
    "a: [!,]\n",
    "a: [!a]\n",
    "a: !\n",              # a lone '!' tags an empty string
    "a: [1, !\n, 2]\n",
    "a: |#x\n",            # '#' right after a block scalar indicator starts a comment
    "a: >+#x\n  y\n",
])
def test_python_loader_reads_as_libyaml(text):
    def load(loader):
        try:
            return yaml.load(text, Loader=loader)
        except yaml.YAMLError:
            return "error"

    assert load(resolution._PythonSafeLoader) == load(yaml.CSafeLoader)


def _outcome(text):
    try:
        return "document", load_resolution(io.StringIO(text))
    except ResolutionError as exc:
        return "error", str(exc).split(" (", 1)[0]


@settings(max_examples=300, deadline=None)
@given(loader_documents())
# a plain scalar ending at ':' before a flow indicator: libyaml refuses it
@example("r: 3\nn: 1\nexceptional:\n- id: E0\n  a: [1:, 1, 1]\n  c: 1\ngerms:\n- label: '1'\n  degree: 0\n  e: {}\n")
def test_loader_documents_agree(text):
    outcomes = each_backend(lambda: _outcome(text))
    assert outcomes["libyaml"] == outcomes["python"], text
