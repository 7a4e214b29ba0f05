"""The report writer `_dump_yaml` against PyYAML.

`_dump_yaml` writes a report with its own emitter and leaves a document to
PyYAML only when PyYAML would double-quote one of its scalars or would not
write one of its keys as a simple key.  Either way its bytes must be those
of `yaml.dump(doc, sort_keys=False, default_flow_style=None)` under
libyaml's dumper and under the pure-Python one, and the reference here is
always `yaml.dump` itself.
"""

from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import quasiadj.resolution as resolution
from quasiadj.resolution import _dump_yaml

DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if yaml.__with_libyaml__ else [])


def pyyaml(doc, dumper):
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=None)


# pieces of text YAML treats specially: quotes, comments, mapping and
# sequence indicators, scalars the resolver reads as ints, bools, nulls or
# sexagesimals, line breaks, runs of spaces, and words long enough to carry
# a scalar past column 80; and rarer pieces PyYAML double-quotes
PIECES = ["a", "x1", "gpf", " ", "  ", "'", '"', "#", " #", ": ", ":", "- ", "-", "? ", ",", "[", "]",
          "{", "}", "&", "*", "!", "|", ">", "%", "@", "`", "1", "1/2", "true", "~", "null", "1:30",
          "0.5", "---", "...", "=", "<<", "\n", "\n\n", "2*x1 + 3*x2 = 1", "word " * 9]
DOUBLE_QUOTED = ["\u00e9", "\t", "\x85", " \n", "\n "]
texts = st.lists(st.sampled_from(PIECES), max_size=8).map("".join)
keys = texts | st.integers(118, 130).map(lambda n: "k" * n)


def documents(texts):
    scalars = texts | st.integers(-10**12, 10**12) | st.booleans() | st.none()
    nodes = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
                         max_leaves=24)
    return st.lists(nodes, max_size=5) | st.dictionaries(keys, nodes, max_size=5)


# most documents hold only text PyYAML writes plain or single-quoted
reports = documents(texts) | documents(texts | st.tuples(texts, st.sampled_from(DOUBLE_QUOTED), texts).map("".join))


def double_quoted(text):
    """Whether PyYAML double-quotes the str text as a sequence entry."""
    return pyyaml([text], yaml.SafeDumper).startswith(('["', '- "'))


def complex_key(key):
    """Whether PyYAML writes the key of a block mapping as a '?' complex
    key, not a simple one."""
    return pyyaml({key: [[0]]}, yaml.SafeDumper).startswith("? ")


def leaves_to_pyyaml(node):
    """The rule _dump_yaml states: a double-quoted scalar or a complex key."""
    if isinstance(node, dict):
        return any(complex_key(k) or leaves_to_pyyaml(k) or leaves_to_pyyaml(v) for k, v in node.items())
    if isinstance(node, list):
        return any(map(leaves_to_pyyaml, node))
    return isinstance(node, str) and double_quoted(node)


@settings(max_examples=200, deadline=None)
@given(reports)
@example({"k" * 122: [1], "x": "k" * 150})   # the longest simple key
@example({"k" * 123: [1]})                    # PyYAML's 128 counts the '!!str' tag
@example({"": [1]})                           # libyaml writes an empty key as a simple one
@example({"equations": " + ".join("%d*x%d" % (i, i) for i in range(1, 30)), "sample": ["1/2"] * 30})
@example({"a": ["it's", "'", "a\nb", "a\n\nb c", "#x", "x #y", "- a", "-a", "1:30", "~", "true", "", "="]})
@example([[["é"]]])
@example(['-"'])                              # plain: its own '-' is not the sequence's
@example({"w": {"v": ["word " * 20 + "end"]}, "u": [{"t": "word " * 20 + "'x"}]})
def test_dump_yaml_is_pyyaml(doc):
    for dumper in DUMPERS:
        with mock.patch.object(resolution, "_SafeDumper", dumper):
            assert _dump_yaml(doc) == pyyaml(doc, dumper)
    direct = True
    try:
        resolution._Emitter().dump(doc)
    except resolution._NeedsPyYAML:
        direct = False
    assert direct != leaves_to_pyyaml(doc), doc


@settings(max_examples=60, deadline=None)
@given(st.from_regex(resolution._SAFE_TEXT, fullmatch=True))
def test_safe_text_is_plain_to_analyze_scalar(text):
    # the emitter skips Emitter.analyze_scalar on this text: it must allow
    # a plain scalar in block and in flow context
    analysis = yaml.emitter.Emitter(None).analyze_scalar(text)
    assert analysis.allow_block_plain and analysis.allow_flow_plain and not analysis.multiline


def test_emitter_leaves_other_shapes_to_pyyaml():
    shared = [1]
    for doc in ({"a": shared, "b": shared}, {"a": 0.5}, {"a": (1, 2)}, {"a": [{1, 2}]}, "text", 7):
        with pytest.raises(resolution._NeedsPyYAML):
            resolution._Emitter().dump(doc)
    assert _dump_yaml({"a": shared, "b": shared}) == "a: &id001 [1]\nb: *id001\n"
