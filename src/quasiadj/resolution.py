"""Input model: embedded-resolution data for a union of hypersurface germs.

The combinatorial shadow of a log resolution is all the library ever sees:
for every exceptional component E the multiplicities a_{i,E} of the r branch
pullbacks, the threshold constant c_E, the valuations e_E(phi) of a finite
set of germ basis elements, and which collections of exceptional components
actually meet (incidence).  Documents are plain YAML; unknown fields and
repeated keys are rejected so typos cannot silently change an invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
import io
import re

import yaml

from . import work


class ResolutionError(ValueError):
    """Schema or consistency failure in resolution data (path-labelled)."""


@dataclass(frozen=True)
class ExceptionalComponent:
    id: str
    a: tuple[int, ...]  # branch multiplicities a_{1,E}, ..., a_{r,E}
    c: int              # threshold constant: comparisons run against e + c + 1

    def __post_init__(self):
        path = "exceptional %r" % (self.id,)
        _expect_str(self.id, path + ".id")
        object.__setattr__(self, "a", tuple(_expect_int(v, "%s.a[%d]" % (path, i)) for i, v in enumerate(self.a)))
        _expect_int(self.c, path + ".c")


@dataclass(frozen=True)
class IncidenceRecord:
    members: frozenset[str]
    fold: int  # log weight available on the stratum where these components meet

    def __post_init__(self):
        members = frozenset(_expect_str(m, "incidence member %r" % (m,)) for m in self.members)
        object.__setattr__(self, "members", members)
        _expect_int(self.fold, "incidence %s.fold" % sorted(members))


@dataclass(frozen=True)
class GermBasisElement:
    label: str
    degree: int
    e: tuple[tuple[str, int], ...]  # valuation e_E(phi) per exceptional id

    def __post_init__(self):
        path = "germ %r" % (self.label,)
        _expect_str(self.label, path + ".label")
        _expect_int(self.degree, path + ".degree")
        e = ((_expect_str(k, "%s.e key %r" % (path, k)), _expect_int(v, "%s.e[%r]" % (path, k)))
             for k, v in dict(self.e).items())
        object.__setattr__(self, "e", tuple(sorted(e)))

    @property
    def e_map(self) -> dict[str, int]:
        return dict(self.e)

    def valuation(self, exc_id: str) -> int:
        return self.e_map.get(exc_id, 0)


@dataclass(frozen=True)
class QuasiArray:
    """The branching array (j | m): cover orders m_i and residues j_i."""

    j: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self):
        for name in ("j", "m"):
            ints = tuple(_expect_int(v, "quasi array: %s[%d]" % (name, i)) for i, v in enumerate(getattr(self, name)))
            object.__setattr__(self, name, ints)
        if len(self.j) != len(self.m):
            raise ResolutionError("quasi array: j and m have different lengths")
        for i, (ji, mi) in enumerate(zip(self.j, self.m)):
            if mi < 1:
                raise ResolutionError("quasi array: m[%d] = %d < 1" % (i, mi))
            if not 0 <= ji < mi:
                raise ResolutionError("quasi array: j[%d] = %d outside [0, %d)" % (i, ji, mi))

    @property
    def r(self) -> int:
        return len(self.m)

    def x_point(self) -> tuple[Fraction, ...]:
        """Cube coordinates x_i = (j_i + 1) / m_i, always in (0, 1]."""
        return tuple(Fraction(ji + 1, mi) for ji, mi in zip(self.j, self.m))


@dataclass(frozen=True)
class ResolutionData:
    r: int
    n: int
    component_names: tuple[str, ...]
    exceptional: tuple[ExceptionalComponent, ...]
    incidence: tuple[IncidenceRecord, ...]
    germs: tuple[GermBasisElement, ...]
    family: ConeFamily | None = None  # provenance set by builtin generators

    def __post_init__(self):
        _expect_int(self.r, "r")
        _expect_int(self.n, "n")
        names = tuple(_expect_str(v, "components[%d]" % i) for i, v in enumerate(self.component_names))
        object.__setattr__(self, "component_names", names)

    def germ(self, label: str) -> GermBasisElement:
        for g in self.germs:
            if g.label == label:
                return g
        raise KeyError(label)

    @property
    def unit_germ(self) -> GermBasisElement:
        for g in self.germs:
            if g.degree == 0 and all(v == 0 for _, v in g.e):
                return g
        raise ResolutionError("no unit germ present")


def validate_resolution(data: ResolutionData) -> None:
    if data.r < 1:
        raise ResolutionError("r = %d < 1" % data.r)
    if data.n < 1:
        raise ResolutionError("n = %d < 1" % data.n)
    if len(data.component_names) != data.r:
        raise ResolutionError("components: %d names for r = %d" % (len(data.component_names), data.r))
    if len(set(data.component_names)) != data.r:
        raise ResolutionError("components: duplicate names")
    if not data.exceptional:
        raise ResolutionError("exceptional: empty")
    ids = [e.id for e in data.exceptional]
    if len(set(ids)) != len(ids):
        raise ResolutionError("exceptional: duplicate ids")
    for k, exc in enumerate(data.exceptional):
        path = "exceptional[%d]" % k
        if len(exc.a) != data.r:
            raise ResolutionError("%s: a has length %d, expected r = %d" % (path, len(exc.a), data.r))
        if any(v < 0 for v in exc.a):
            raise ResolutionError("%s: negative multiplicity" % path)
        if not any(exc.a):
            raise ResolutionError("%s: all multiplicities zero" % path)
        if exc.c < 0:
            raise ResolutionError("%s: c = %d < 0" % (path, exc.c))
    known = set(ids)
    seen_members = {}
    for k, rec in enumerate(data.incidence):
        path = "incidence[%d]" % k
        if not rec.members:
            raise ResolutionError("%s: empty member set" % path)
        for m in rec.members:
            if m not in known:
                raise ResolutionError("%s: unknown exceptional id %r" % (path, m))
        if rec.fold < 1:
            raise ResolutionError("%s: fold %d < 1" % (path, rec.fold))
        if len(rec.members) == 1 and rec.fold != 1:
            raise ResolutionError("%s: singleton fold must be 1" % path)
        if rec.members in seen_members:
            raise ResolutionError("%s: duplicate member set" % path)
        seen_members[rec.members] = rec.fold
    for e in data.exceptional:
        if frozenset([e.id]) not in seen_members:
            raise ResolutionError("incidence: missing singleton {%s}" % e.id)
    for rec in data.incidence:
        for size in range(1, len(rec.members)):
            for sub in combinations(sorted(rec.members), size):
                if frozenset(sub) not in seen_members:
                    raise ResolutionError(
                        "incidence: not subset-closed, missing {%s}" % ", ".join(sub))
    labels = [g.label for g in data.germs]
    if len(set(labels)) != len(labels):
        raise ResolutionError("germs: duplicate labels")
    for k, g in enumerate(data.germs):
        path = "germs[%d]" % k
        if g.degree < 0:
            raise ResolutionError("%s: negative degree" % path)
        for eid, v in g.e:
            if eid not in known:
                raise ResolutionError("%s: unknown exceptional id %r in e" % (path, eid))
            if v < 0:
                raise ResolutionError("%s: negative valuation for %r" % (path, eid))
    data.unit_germ  # raises if absent


# ---------------------------------------------------------------------------
# YAML loading / serialization


def _expect_mapping(node, path, allowed):
    if not isinstance(node, dict):
        raise ResolutionError("%s: expected a mapping" % path)
    for key in node:
        if key not in allowed:
            raise ResolutionError("%s: unknown field %r" % (path, key))


def _expect_int(node, path):
    if type(node) is not int:  # a bool or another int subclass is refused, as in ratgeom
        raise ResolutionError("%s: expected an integer" % path)
    return node


def _expect_str(node, path):
    if not isinstance(node, str):
        raise ResolutionError("%s: expected a string" % path)
    return node


def _expect_list(node, path):
    if not isinstance(node, list):
        raise ResolutionError("%s: expected a list" % path)
    return node


class _PythonSafeLoader(yaml.SafeLoader):
    """The pure-Python safe loader, reading a document as libyaml does where
    the two parsers differ.  In a flow collection a plain scalar takes '?' as
    text and refuses ':' before a flow indicator (`[1:, 2]`), a tag ends at
    ',', and the token after an empty key in a sequence is dropped (`[?]`
    fails); a lone '!' tags an empty string; '#' may follow a block scalar
    indicator."""

    _reading: dict = {}  # characters the running scan reads as others
    # '?' reads as text; ',' ends a tag, and brackets end its URI; '#' ends the indicators
    _PLAIN, _TAG, _INDICATORS = {"?": "a"}, {",": " ", "[": "^", "]": "^"}, {"#": " "}

    def peek(self, index=0):
        ch = super().peek(index)
        if self._reading is self._PLAIN and ch == ":" and super().peek(index + 1) in ",?[]{}":
            raise yaml.scanner.ScannerError("while scanning a plain scalar", None, "found unexpected ':'", self.get_mark())
        return self._reading.get(ch, ch)

    def _read_as(self, table, scan, *args):
        self._reading = table
        try:
            return scan(*args)
        finally:
            self._reading = {}

    def scan_plain(self):
        return self._read_as(self._PLAIN if self.flow_level else {}, super().scan_plain)

    def scan_tag(self):
        return self._read_as(self._TAG if self.flow_level else {}, super().scan_tag)

    def scan_block_scalar_indicators(self, start_mark):
        return self._read_as(self._INDICATORS, super().scan_block_scalar_indicators, start_mark)

    def parse_node(self, block=False, indentless_sequence=False):
        event = super().parse_node(block, indentless_sequence)
        if isinstance(event, yaml.ScalarEvent) and event.tag == "!" and event.value == "" and event.style is None:
            event.implicit = (False, False)
        return event

    def parse_flow_sequence_entry_mapping_key(self):
        self.get_token()
        if not self.check_token(yaml.ValueToken, yaml.FlowEntryToken, yaml.FlowSequenceEndToken):
            self.states.append(self.parse_flow_sequence_entry_mapping_value)
            return self.parse_flow_node()
        self.state = self.parse_flow_sequence_entry_mapping_value
        return self.process_empty_scalar(self.get_token().end_mark)


# libyaml's classes when PyYAML is built with it: the same documents and the
# same bytes as the pure-Python classes, several times faster
if yaml.__with_libyaml__:
    _SafeLoader, _SafeDumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _SafeLoader, _SafeDumper = _PythonSafeLoader, yaml.SafeDumper


def _dump_yaml(doc) -> str:
    """The bytes of yaml.dump(doc, sort_keys=False, default_flow_style=None):
    keys in insertion order, leaf collections in flow style.

    _Emitter writes them directly for the shapes reports take: a dict or
    list at the root, holding dicts, lists, str, int, bool and None, with
    no collection held twice.  A collection of scalars only (empty ones
    too) is a flow collection, any other a block one, a block sequence in
    a mapping is indentless, and a flow entry or a plain or single-quoted
    space past column 80 starts a new line.  A scalar is plain or
    single-quoted as PyYAML's resolver and Emitter.analyze_scalar decide.
    PyYAML writes the document instead, through the configured dumper, when
    it holds a scalar PyYAML would double-quote (a control or non-ASCII
    character, a space next to a line break) or a key that is not a simple
    key to PyYAML: empty, multi-line, or of 123 characters or more (its
    128-character limit counts the 5-character '!!str' tag and libyaml's
    does not, so the two dumpers lay out keys of 123 to 128 characters
    differently).  Anything else outside the shapes above goes to PyYAML
    too, which writes it or raises.
    """
    try:
        return _Emitter().dump(doc)
    except _NeedsPyYAML:
        return yaml.dump(doc, Dumper=_SafeDumper, sort_keys=False, default_flow_style=None)


class _NeedsPyYAML(Exception):
    """The document holds something _Emitter leaves to PyYAML."""


_WIDTH = 80  # PyYAML's best_width: past this column a flow entry or a space breaks the line
_STR_TAG = "tag:yaml.org,2002:str"
_RESOLVER = yaml.resolver.Resolver()
_ANALYZER = yaml.emitter.Emitter(None)  # analyze_scalar reads allow_unicode only: off, as in yaml.dump
# text analyze_scalar allows plain in both contexts: no indicator, quote, break,
# control or non-ASCII character, no leading '-', '.' or '*', no outer space
_SAFE_TEXT = re.compile(r"[A-Za-z0-9_(/=+^~][A-Za-z0-9_()/*+=^.~-]*(?: +[A-Za-z0-9_()/*+=^.~-]+)*")
_SCALARS = frozenset((str, int, bool, type(None)))
_RUNS = re.compile(r" +|\n+|[^ \n]+")


def _str_forms(text: str) -> tuple:
    """The str scalar text as PyYAML writes it outside a key, in block and in
    flow context: plain, single-quoted, or None where it double-quotes."""
    # the resolver reads text as another type only by a rule for its first character
    implicit = (text[:1] not in _RESOLVER.yaml_implicit_resolvers
                or _RESOLVER.resolve(yaml.ScalarNode, text, (True, False)) == _STR_TAG)
    quoted = "'%s'" % text.replace("'", "''")
    if _SAFE_TEXT.fullmatch(text):
        return (text, text) if implicit else (quoted, quoted)
    a = _ANALYZER.analyze_scalar(text)
    if not a.allow_single_quoted:
        quoted = None
    return text if implicit and a.allow_block_plain else quoted, text if implicit and a.allow_flow_plain else quoted


class _Emitter:
    """One document, written as PyYAML's Emitter writes the events its
    Serializer makes of the nodes SafeRepresenter builds (see _dump_yaml).

    The methods follow the Emitter's states, with its column and its
    whitespace and indention flags, and an indent of None above the root.
    forms holds each str's written forms for this dump only."""

    __slots__ = ("out", "col", "ws", "ind", "forms", "seen")

    def __init__(self):
        self.out = []
        self.col = 0
        self.ws = self.ind = True
        self.forms = {}
        self.seen = set()

    def dump(self, doc) -> str:
        if type(doc) is not dict and type(doc) is not list:
            raise _NeedsPyYAML
        self.node(doc, None, False)
        self.out.append("\n")  # the document end's write_indent: the column is past 0
        return "".join(self.out)

    def put(self, text):
        self.out.append(text)
        self.col += len(text)

    def write_indent(self, indent):
        if not self.ind or self.col > indent or (self.col == indent and not self.ws):
            self.out.append("\n")
            self.col = 0
        if self.col < indent:
            self.out.append(" " * (indent - self.col))
            self.col = indent
        self.ws = self.ind = True

    def form(self, value, flow):
        """The scalar value as written in block or flow context."""
        kind = type(value)
        if kind is str:
            forms = self.forms.get(value)
            if forms is None:
                forms = self.forms[value] = _str_forms(value)
            if forms[flow] is None:
                raise _NeedsPyYAML
            return forms[flow]
        if kind is int:
            return str(value)
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        raise _NeedsPyYAML

    def key(self, key, flow):
        """The key as written with its ':', if PyYAML takes it as a simple
        key: not empty, one line, and under 128 characters with its tag,
        '!!str' or '!!int' (a bool or None key is short)."""
        text = self.form(key, flow)
        raw = key if type(key) is str else text
        if not raw or "\n" in raw or len(raw) > 122:
            raise _NeedsPyYAML
        return text + ":"

    def node(self, value, indent, in_mapping):
        """A node below a collection whose indent is indent; in a mapping
        a sequence is indentless, and a collection of scalars is in flow."""
        kind = type(value)
        if kind is dict:
            flow = _SCALARS.issuperset(map(type, value)) and _SCALARS.issuperset(map(type, value.values()))
        elif kind is list:
            flow = _SCALARS.issuperset(map(type, value))
        else:
            return self.scalar(value, 2 if indent is None else indent + 2, False)
        if id(value) in self.seen:
            raise _NeedsPyYAML  # PyYAML writes an anchor and an alias
        self.seen.add(id(value))
        if flow:
            return self.flow(value, 2 if indent is None else indent + 2)
        if indent is None:
            indent = 0
        elif kind is dict or not in_mapping or self.ind:
            indent += 2
        # every entry after the first starts past the indent, so on a new line
        newline = "\n" + " " * indent
        out = self.out
        for i, item in enumerate(value.items() if kind is dict else value):
            if i:
                out.append(newline)
                self.col, self.ind = indent, True
            else:
                self.write_indent(indent)
            if kind is dict:
                text = self.key(item[0], False)
                item = item[1]
                self.ind = False  # the ':' indicator clears it; '-' keeps it
            else:
                text = "-"
            out.append(text)
            self.col += len(text)
            self.ws = False
            self.node(item, indent, kind is dict)

    def flow(self, value, indent):
        mapping = type(value) is dict
        out = self.out
        text = "{" if mapping else "["
        if not self.ws:
            text = " " + text
        out.append(text)
        self.col += len(text)
        lead = ""
        for i, item in enumerate(value.items() if mapping else value):
            if i:
                out.append(",")
                self.col += 1
                lead = " "
            if self.col > _WIDTH:
                out.append("\n" + " " * indent)
                self.col, lead = indent, ""
            if mapping:
                text = lead + self.key(item[0], True)
                out.append(text)
                self.col += len(text)
                lead, item = " ", item[1]
            self.ws = not lead
            self.scalar(item, indent + 2, True)
        out.append("}" if mapping else "]")
        self.col += 1
        self.ws = self.ind = False

    def scalar(self, value, indent, flow):
        """Write a scalar whose own indent is indent, as Emitter.write_plain
        and write_single_quoted do: a lone inner space past the width breaks
        the line, and a run of line breaks is written with one more ahead of
        it, then the indent."""
        text = self.form(value, flow)
        lead = "" if self.ws else " "
        self.ws = self.ind = False
        if "\n" not in text and (" " not in text or self.col + len(lead) + len(text) <= _WIDTH + 1):
            text = lead + text
            self.out.append(text)
            self.col += len(text)
            return
        quoted = text[0] == "'"
        self.put(lead + "'" if quoted else lead)
        body = value if quoted else text
        for run in _RUNS.finditer(body):
            chunk = run.group()
            if chunk[0] == "\n":
                self.out.append("\n" * (len(chunk) + 1))
                self.col, self.ws, self.ind = 0, True, True
                self.write_indent(indent)
            elif chunk == " " and self.col > _WIDTH and 0 < run.start() and run.end() < len(body):
                self.write_indent(indent)
                if not quoted:
                    self.ws = self.ind = False
            else:
                self.put(chunk.replace("'", "''") if quoted else chunk)
        if quoted:
            self.put("'")
            self.ws = self.ind = False


# a nonzero phase in [0, 1) as str(Fraction) writes it; the resolver reads it as a string
_PLAIN_PHASE = re.compile(r"[1-9][0-9]*/[1-9][0-9]*")


def _dump_oracle_yaml(r: int, n: int, order: int, rows) -> str:
    """The bytes _dump_yaml writes for the `oracle` report {r, n, order,
    characters: [{phases: [...], f}, ...]}, one row per (phases, f) pair,
    without building a dict of it.  Phase '0' is quoted, since the resolver
    would read a plain 0 as an int, and every p/q is plain.  A phase list
    wraps as _Emitter.flow wraps a flow sequence: after each ',' it writes a
    newline and the four-space indent if the column is past _WIDTH, else a
    space.  Anything outside this shape raises ValueError.  It writes an
    oracle sweep's thousands of rows several times faster than _Emitter."""
    for value in (r, n, order):
        if type(value) is not int:
            raise ValueError("oracle report field %r is not an int" % (value,))
    if not rows:
        raise ValueError("oracle report has no characters")
    out = ["r: %d\nn: %d\norder: %d\ncharacters:\n" % (r, n, order)]
    for phases, f in rows:
        if type(f) is not int or not phases:
            raise ValueError("oracle row %r outside the report shape" % ((phases, f),))
        line, sep = "- phases: [", ""
        for p in phases:
            if p == "0":
                p = "'0'"
            elif type(p) is not str or not _PLAIN_PHASE.fullmatch(p):
                raise ValueError("oracle phase %r outside the report shape" % (p,))
            line += sep + p
            column = len(line) - line.rfind("\n") - 1
            sep = ",\n    " if column + 1 > _WIDTH else ", "  # the column just after the ','
        out.append("%s]\n  f: %d\n" % (line, f))
    return "".join(out)


class _UniqueKeys:
    """Safe-loader mixin that refuses a key given twice in one mapping, which
    plain YAML loading would resolve silently to the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise ResolutionError("line %d: duplicate key %r" % (key_node.start_mark.line + 1, key))
                seen.add(key)
        return super().construct_mapping(node, deep)


class _UniqueKeyLoader(_UniqueKeys, _SafeLoader):
    pass


def load_resolution(source) -> ResolutionData:
    """Parse and validate a resolution document.

    `source` is a path, a file object, or YAML text.  Singleton incidence
    records and the unit germ are filled in when omitted; everything else
    must be explicit and well-formed.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" not in source and source.endswith((".yaml", ".yml")):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    try:
        doc = yaml.load(io.StringIO(text), Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ResolutionError("document: not parseable (%s)" % exc) from exc
    _expect_mapping(doc, "document", {"r", "n", "components", "exceptional", "incidence", "germs", "family"})
    for required in ("r", "n", "exceptional", "germs"):
        if required not in doc:
            raise ResolutionError("document: missing field %r" % required)
    r = _expect_int(doc["r"], "r")
    n = _expect_int(doc["n"], "n")
    if "components" in doc:
        names = tuple(_expect_str(v, "components[%d]" % i) for i, v in enumerate(_expect_list(doc["components"], "components")))
    else:
        names = tuple("D%d" % (i + 1) for i in range(max(r, 0)))
    exceptional = []
    for k, node in enumerate(_expect_list(doc["exceptional"], "exceptional")):
        path = "exceptional[%d]" % k
        _expect_mapping(node, path, {"id", "a", "c"})
        for req in ("id", "a", "c"):
            if req not in node:
                raise ResolutionError("%s: missing field %r" % (path, req))
        a = tuple(_expect_int(v, "%s.a[%d]" % (path, i)) for i, v in enumerate(_expect_list(node["a"], path + ".a")))
        exceptional.append(ExceptionalComponent(_expect_str(node["id"], path + ".id"), a, _expect_int(node["c"], path + ".c")))
    incidence = []
    seen = set()
    for k, node in enumerate(_expect_list(doc.get("incidence", []), "incidence")):
        path = "incidence[%d]" % k
        if isinstance(node, list):
            members = [_expect_str(v, "%s[%d]" % (path, i)) for i, v in enumerate(node)]
            fold = len(members)
        else:
            _expect_mapping(node, path, {"members", "fold"})
            if "members" not in node:
                raise ResolutionError("%s: missing field 'members'" % path)
            members = [_expect_str(v, "%s.members[%d]" % (path, i)) for i, v in enumerate(_expect_list(node["members"], path + ".members"))]
            fold = _expect_int(node["fold"], path + ".fold") if "fold" in node else len(members)
        rec = IncidenceRecord(frozenset(members), fold)
        incidence.append(rec)
        seen.add(rec.members)
    for exc in exceptional:
        single = frozenset([exc.id])
        if single not in seen:
            incidence.append(IncidenceRecord(single, 1))
            seen.add(single)
    germs = []
    has_unit = False
    for k, node in enumerate(_expect_list(doc["germs"], "germs")):
        path = "germs[%d]" % k
        _expect_mapping(node, path, {"label", "degree", "e"})
        for req in ("label", "degree"):
            if req not in node:
                raise ResolutionError("%s: missing field %r" % (path, req))
        e_node = node.get("e", {})
        if not isinstance(e_node, dict):
            raise ResolutionError("%s.e: expected a mapping" % path)
        e = {_expect_str(kk, "%s.e key %r" % (path, kk)): _expect_int(vv, "%s.e[%r]" % (path, kk)) for kk, vv in e_node.items()}
        g = GermBasisElement(_expect_str(node["label"], path + ".label"), _expect_int(node["degree"], path + ".degree"), tuple(e.items()))
        if g.degree == 0 and all(v == 0 for _, v in g.e):
            has_unit = True
        germs.append(g)
    if not has_unit:
        germs.insert(0, GermBasisElement("1", 0, ()))
    family = ConeFamily.from_doc(_expect_list(doc["family"], "family")) if "family" in doc else None
    data = ResolutionData(r, n, names, tuple(exceptional), tuple(incidence), tuple(germs), family)
    validate_resolution(data)
    if family is not None:
        # subunions and the oracle read the family, so it must describe this data
        ref = family.build()
        for what, got, want in (
            ("r", data.r, ref.r),
            ("n", data.n, ref.n),
            ("exceptional", set(data.exceptional), set(ref.exceptional)),
            ("incidence", set(data.incidence), set(ref.incidence)),
            ("germs", set(data.germs), set(ref.germs)),
        ):
            if got != want:
                raise ResolutionError("family %r does not match the document's %s" % (family, what))
    return data


def serialize_resolution(data: ResolutionData) -> str:
    """Canonical YAML form; load(serialize(d)) == d."""
    doc = {
        "r": data.r,
        "n": data.n,
        "components": list(data.component_names),
        "exceptional": [{"id": e.id, "a": list(e.a), "c": e.c} for e in data.exceptional],
        "incidence": [
            {"members": sorted(rec.members), "fold": rec.fold}
            for rec in sorted(data.incidence, key=lambda rc: (len(rc.members), sorted(rc.members)))
        ],
        "germs": [{"label": g.label, "degree": g.degree, "e": dict(g.e)} for g in data.germs],
    }
    if data.family is not None:
        doc["family"] = ["cone", list(data.family.degrees), data.family.n, data.family.bound]
    return _dump_yaml(doc)


# ---------------------------------------------------------------------------
# builtin families


def _monomials(nvars: int, total: int):
    """Exponent tuples of the monomials of given total degree."""
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _monomials(nvars - 1, total - head):
            yield (head,) + rest


def _monomial_label(alpha: tuple[int, ...]) -> str:
    if not any(alpha):
        return "1"
    parts = []
    for i, p in enumerate(alpha):
        if p == 1:
            parts.append("x%d" % i)
        elif p > 1:
            parts.append("x%d^%d" % (i, p))
    return "*".join(parts)


@dataclass(frozen=True)
class ConeFamily:
    """The builtin cone family cone_over(degrees, n, bound) that data came from."""

    degrees: tuple[int, ...]
    n: int
    bound: int

    @classmethod
    def from_doc(cls, node) -> "ConeFamily":
        if not node or node[0] != "cone":
            raise ResolutionError("family: only ['cone', [degrees], n, bound] is understood")
        if len(node) != 4:
            raise ResolutionError("family: expected ['cone', [degrees], n, bound]")
        degrees = tuple(_expect_int(v, "family[1][%d]" % i) for i, v in enumerate(_expect_list(node[1], "family[1]")))
        return cls(degrees, _expect_int(node[2], "family[2]"), _expect_int(node[3], "family[3]"))

    def build(self) -> ResolutionData:
        return cone_over(self.degrees, self.n, self.bound)

    def restrict(self, keep) -> "ConeFamily":
        """The family of the subunion of the branches in keep."""
        return ConeFamily(tuple(self.degrees[i] for i in keep), self.n, self.bound)

    @property
    def saturated(self) -> bool:
        """Whether raising the germ degree bound by one leaves the faces
        (affine spans and labels) unchanged.

        Exact, with no face search.  A germ of degree s of the cone over
        degrees d in C^(n+1) has the single constraint
        sum_i d_i (1 - x_i) <= s + n + 1, which cuts a face with a strictly
        positive point iff s + n + 1 < sum(d), and is tight on no other face.
        So bound + 1 adds a face iff bound + n + 2 < sum(d), and never changes
        the labels of the faces already there.
        """
        return self.bound >= sum(self.degrees) - self.n - 2


@work.metered
def cone_over(degrees, n: int, degree_bound: int = 0) -> ResolutionData:
    """Cone over a smooth divisor:  r branches of the given projective
    degrees, resolved by the single blowup of the origin in C^(n+1).

    The one exceptional component has multiplicities a = degrees and
    threshold constant c = n; the germ basis is every monomial of total
    degree <= degree_bound, each valuating as its degree.  A basis past
    MAX_GERMS is refused before any germ is built.
    """
    degrees = tuple(_expect_int(d, "cone family: degrees[%d]" % i) for i, d in enumerate(degrees))
    _expect_int(n, "cone family: n")
    _expect_int(degree_bound, "cone family: degree bound")
    if not degrees or any(d < 1 for d in degrees):
        raise ResolutionError("cone family: degrees must be positive")
    if n < 1:
        raise ResolutionError("cone family: n = %d < 1" % n)
    if degree_bound < 0:
        raise ResolutionError("cone family: degree bound %d < 0" % degree_bound)
    work.check("MAX_GERMS", comb(n + 1 + degree_bound, n + 1), "cone family: {units} germs (degree <= {} in {} "
               "variables) exceed cap {cap}", degree_bound, n + 1, error=ResolutionError)
    r = len(degrees)
    exc = ExceptionalComponent("E0", degrees, n)
    germs = []
    for s in range(degree_bound + 1):
        for alpha in _monomials(n + 1, s):
            work.charge("MAX_GERMS", 1)
            germs.append(GermBasisElement(_monomial_label(alpha), s, (("E0", s),) if s else ()))
    return ResolutionData(
        r=r,
        n=n,
        component_names=tuple("D%d" % (i + 1) for i in range(r)),
        exceptional=(exc,),
        incidence=(IncidenceRecord(frozenset(["E0"]), 1),),
        germs=tuple(germs),
        family=ConeFamily(degrees, n, degree_bound),
    )


def generic_arrangement(r: int, n: int, degree_bound: int = 0) -> ResolutionData:
    """r generic hyperplanes through the origin of C^(n+1) (degree-1 cone)."""
    if r < 1:
        raise ResolutionError("arrangement: r = %d < 1" % r)
    return cone_over((1,) * r, n, degree_bound)
