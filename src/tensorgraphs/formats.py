"""Graph document formats and DOT export.

Documents are UTF-8 JSON with a fixed top-level shape:

colored-tensor-graph, version 1::

    {"format": "colored-tensor-graph", "version": 1, "rank": 3,
     "whites": ["w1", ...], "blacks": ["b1", ...],
     "edges": [{"color": 0, "white": "w1", "black": "b1"}, ...]}

stranded-tensor-graph, version 1::

    {"format": "stranded-tensor-graph", "version": 1, "rank": 3,
     "vertices": [{"id": "v", "halfedges": ["h0", "h1", "h2", "h3"]}, ...],
     "edges": [{"halfedges": ["h0", "h1"],
                "strand_permutation": [0, 1, 2]}, ...]}

``strand_permutation`` may be omitted and defaults to the identity, so
files derived from colored graphs stay short.  Serialization uses a
canonical key order and round-trips exactly.
"""

from __future__ import annotations

import itertools
import json
from functools import cache
from typing import Iterator

from .core import (
    ColoredGraph,
    StrandedGraph,
    build_colored,
    build_stranded,
    identity_permutation,
)
from .errors import ParseError, UnknownFormat, VersionUnsupported

COLORED_FORMAT = "colored-tensor-graph"
STRANDED_FORMAT = "stranded-tensor-graph"
FORMAT_VERSION = 1


def _need(obj: dict, key: str, kind: type, location: str):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", location)
    value = obj[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"field {key!r} must be {kind.__name__}", location)
    return value


def _string_list(obj: dict, key: str, location: str) -> list[str]:
    values = _need(obj, key, list, location)
    for i, v in enumerate(values):
        if not isinstance(v, str):
            raise ParseError("expected a string", f"{location}.{key}[{i}]")
    return values


def parse_graph(document: bytes | str) -> ColoredGraph | StrandedGraph:
    """Parse and build a graph document; the result is always validated.

    Malformed JSON or missing/ill-typed fields raise ParseError with the
    offending location; unrecognized format tags raise UnknownFormat and
    unsupported versions VersionUnsupported.  Graph-level problems
    (duplicate colors, dangling half-edges, ...) surface as the builder
    errors, naming the offending element.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"document is not UTF-8: {err}") from None
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", f"line {err.lineno} column {err.colno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", "document") from None
    except ValueError as err:  # an integer longer than sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: {err}", "document") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object", "document")

    fmt = _need(obj, "format", str, "document")
    if fmt not in (COLORED_FORMAT, STRANDED_FORMAT):
        raise UnknownFormat(f"unrecognized format {fmt!r}")
    version = _need(obj, "version", int, "document")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"version {version} unsupported; this build reads version {FORMAT_VERSION}")
    rank = _need(obj, "rank", int, "document")

    if fmt == COLORED_FORMAT:
        whites = _string_list(obj, "whites", "document")
        blacks = _string_list(obj, "blacks", "document")
        raw_edges = _need(obj, "edges", list, "document")
        edges = []
        for i, entry in enumerate(raw_edges):
            where = f"edges[{i}]"
            if not isinstance(entry, dict):
                raise ParseError("expected an object", where)
            edges.append((
                _need(entry, "color", int, where),
                _need(entry, "white", str, where),
                _need(entry, "black", str, where),
            ))
        return build_colored(rank, whites, blacks, edges)

    raw_vertices = _need(obj, "vertices", list, "document")
    vertices = []
    for i, entry in enumerate(raw_vertices):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("expected an object", where)
        vertices.append((
            _need(entry, "id", str, where),
            _string_list(entry, "halfedges", where),
        ))
    raw_edges = _need(obj, "edges", list, "document")
    edges = []
    for i, entry in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("expected an object", where)
        ends = _string_list(entry, "halfedges", where)
        if len(ends) != 2:
            raise ParseError("field 'halfedges' must hold exactly two labels", where)
        perm = None
        if "strand_permutation" in entry:
            perm = entry["strand_permutation"]
            if not isinstance(perm, list) or any(
                isinstance(x, bool) or not isinstance(x, int) for x in perm
            ):
                raise ParseError("field 'strand_permutation' must be a list of integers", where)
        edges.append(((ends[0], ends[1]), perm))
    return build_stranded(rank, vertices, edges)


_quote = json.encoder.encode_basestring_ascii  # a label as json.dumps writes it


def _array(records: Iterator[str], indent: str = "  ") -> Iterator[str]:
    """The pieces of a JSON array laid out as json.dumps(indent=2) lays it
    out at ``indent``: each record begins with ",\\n" and its own indent."""
    first = next(records, None)
    yield "[]" if first is None else "[" + first[1:]
    if first is not None:
        yield from records
        yield "\n" + indent + "]"


def _document(g: ColoredGraph | StrandedGraph) -> Iterator[str]:
    """The pieces of ``g``'s document, without its last newline: its fields
    in canonical key order, laid out as json.dumps(indent=2) lays them out.
    Each label is quoted once, and each kind of record is written by one
    %-template, built only when such a record exists."""
    if isinstance(g, ColoredGraph):
        g._inverses  # a malformed graph raises here, not when its document is read back
        whites, blacks = list(map(_quote, g.whites)), list(map(_quote, g.blacks))
        edge = ',\n    {{\n      "color": {},\n      "white": %s,\n      "black": %s\n    }}'.format
        fmt, fields = COLORED_FORMAT, {
            "whites": map(",\n    ".__add__, whites),
            "blacks": map(",\n    ".__add__, blacks),
            "edges": itertools.chain.from_iterable(  # no row is read at n = 0
                map(edge(c).__mod__, zip(whites, map(blacks.__getitem__, sigma)))
                for c, sigma in enumerate(g.matchings if g.n else ()))}
    else:
        g._index  # a malformed graph raises here, not when its document is read back
        halves = {h: _quote(h) for v in g.vertices for h in v.halfedges}
        ident = identity_permutation(g.rank) if g.edges else ()
        # a record's array of ``count`` values, templated once per count
        slots = cache(lambda count: "".join(_array(iter([",\n        %s"] * count), "      ")))
        vertex = ',\n    {\n      "id": %s,\n      "halfedges": %s\n    }'
        edge = ',\n    {\n      "halfedges": [\n        %s,\n        %s\n      ]%s\n    }'
        fmt, fields = STRANDED_FORMAT, {
            "vertices": (vertex % (_quote(label), slots(g.rank + 1) % tuple(
                map(halves.__getitem__, hs))) for label, hs in g.vertices),
            "edges": (edge % (halves[h1], halves[h2], "" if perm == ident else
                              ',\n      "strand_permutation": ' + slots(g.rank) % perm)
                      for (h1, h2), perm in g.edges)}
    yield f'{{\n  "format": "{fmt}",\n  "version": {FORMAT_VERSION},\n  "rank": {g.rank}'
    for key, records in fields.items():
        yield f',\n  "{key}": '
        yield from _array(records)
    yield "\n}"


def serialize_graph(g: ColoredGraph | StrandedGraph) -> bytes:
    """Canonical document bytes; parse(serialize(g)) == g."""
    return ("".join(_document(g)) + "\n").encode("utf-8")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(g: ColoredGraph | StrandedGraph) -> Iterator[str]:
    """The pieces of ``g``'s DOT text, without its last newline."""
    yield "graph tensorgraph {"
    if isinstance(g, ColoredGraph):
        g._inverses  # a malformed graph raises here
        yield from (f"\n  {_dot_quote(v)} [shape=circle, style=solid];" for v in g.whites)
        yield from (f"\n  {_dot_quote(v)} [shape=circle, style=filled, fillcolor=black];"
                    for v in g.blacks)
        yield from (f"\n  {_dot_quote(e.white)} -- {_dot_quote(e.black)} "
                    f"[color={e.color}, label={e.color}];" for e in g.edges())
    else:
        index, d = g._index, g.rank + 1  # a malformed graph raises here
        ident = identity_permutation(g.rank) if g.edges else ()
        yield from (f"\n  {_dot_quote(v.label)} [shape=circle];" for v in g.vertices)
        for e, (x1, x2) in zip(g.edges, index.ends):
            label = f"{e.halfedges[0]}/{e.halfedges[1]}"
            if e.permutation != ident:
                label += " twist " + ",".join(map(str, e.permutation))
            yield (f"\n  {_dot_quote(index.order[x1 // d])} -- "
                   f"{_dot_quote(index.order[x2 // d])} [label={_dot_quote(label)}];")
    yield "\n}"


def export_dot(g: ColoredGraph | StrandedGraph) -> bytes:
    """DOT rendering: hollow circles for whites, filled for blacks,
    edge ``color`` attribute carrying the color id."""
    return ("".join(_dot(g)) + "\n").encode("utf-8")
