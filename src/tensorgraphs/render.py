"""The large CLI reports, rendered straight from the face and bubble walks.

``faces`` and ``bubbles`` over three colors are one flat list of pieces,
joined once.  Pieces are shared: each label is encoded once and the text
between labels formatted once per color pair, slot, color triple or
counts, so a colored edge's D faces share its pieces and there is no slot
table; a text face, a few bytes per piece, is joined first.  The --json
form equals ``json.dumps({"tool_version": ..., **payload}, indent=2)``."""

from __future__ import annotations

import json
from collections import Counter
from functools import cache
from typing import Iterable, Iterator

from . import __version__
from .core import ColoredGraph, StrandedGraph, _slot_labels
from .topology import _colored_face_walks, _strand_circuits

# pieces laid out as json.dumps(indent=2) lays out the payload
_COLORED_JSON = (  # face head, white to black, between edges (this, next color), end
    '    {{\n      "colors": [\n        {0},\n        {1}\n      ],\n      "length": {2},\n'
    '      "edges": [\n        {{\n          "color": {0},\n          "white": ',
    ',\n          "black": ', '\n        }},\n        {{\n          "color": {1},\n'
    '          "white": ', "\n        }}\n      ]\n    }}")
_COLORED_TEXT = ("  colors {{{0},{1}}} length {2}: ", "-", "({0}) ", "({1})")
_STRANDED_JSON = (  # face head, vertex, position and slot, between slots, end
    '    {{\n      "length": {0},\n      "slots": [\n', '        {{\n          "vertex": {0}',
    ',\n          "position": {0},\n          "slot": {1}\n        }}', ",\n", "\n      ]\n    }")
_STRANDED_TEXT = ("  length {0}: ", "{0}", "[{0}].{1}", " ", "")
_BUBBLE_JSON = (  # colors, then counts
    '    {{\n      "colors": [\n        {0},\n        {1},\n        {2}\n      ],\n'
    '      "vertices": [\n', '\n      ],\n      "v": {0},\n      "e": {1},\n      "f": {2},\n'
    '      "chi": {3},\n      "genus": {4},\n      "planar": {5}\n    }}')
_BUBBLE_TEXT = (" colors {{{0},{1},{2}}}", " V={0} E={1} F={2} chi={3} genus={4} {6}")
_quote = json.encoder.encode_basestring_ascii


def _flat(records: Iterable[list[str]], sep: str) -> tuple[list[str], int]:
    """``records``, each after ``sep`` (the first after a newline), behind
    a free slot for the head; and their count."""
    pieces, count = [""], 0
    for count, record in enumerate(records, 1):
        pieces += (sep if count > 1 else "\n", *record)
    return pieces, count


def _colored_faces(g: ColoredGraph, as_json: bool) -> Iterator[list[str]]:
    head, mid, between, end = _COLORED_JSON if as_json else _COLORED_TEXT
    head, between, end = cache(head.format), cache(between.format), cache(end.format)
    whites, blacks = (list(map(_quote if as_json else str, vs)) for vs in (g.whites, g.blacks))
    for a, b, cycle in _colored_face_walks(g):
        # the a-edge at cycle[t], then the b-edge at cycle[t + 1]: both reach sigma_a(cycle[t])
        face = [head(a, b, 2 * len(cycle))]
        face += [mid, mid, mid, between(a, b), mid, mid, mid, between(b, a)] * len(cycle)
        face[1::8] = map(whites.__getitem__, cycle)
        face[5::8] = map(whites.__getitem__, cycle[1:] + cycle[:1])
        face[3::8] = face[7::8] = [blacks[j] for j in map(g.matchings[a].__getitem__, cycle)]
        face[-1] = end(a, b)
        yield face


def _stranded_faces(s: StrandedGraph, as_json: bool) -> Iterator[list[str]]:
    head, vertex, slot, sep, end = _STRANDED_JSON if as_json else _STRANDED_TEXT
    heads = [vertex.format(_quote(v) if as_json else v) for v in s._index.order]
    tails = [slot.format(p, q) for p, q in _slot_labels(s.rank)]
    seps, ends, head = [t + sep for t in tails], [t + end for t in tails], cache(head.format)
    for cycle in _strand_circuits(s):  # slot x is slot x % len(tails) of vertex x // len(tails)
        face = [head(len(cycle) // 2)] + [sep] * 2 * len(cycle)
        face[1::2] = [heads[x // len(tails)] for x in cycle]
        face[2::2] = [seps[x % len(tails)] for x in cycle]
        face[-1] = ends[cycle[-1] % len(tails)]
        yield face


def faces_report(g: ColoredGraph | StrandedGraph, as_json: bool) -> str:
    """The ``faces`` report: two-color cycles of a colored graph, strand
    circuits of a stranded one."""
    colored = isinstance(g, ColoredGraph)
    faces = _colored_faces(g, as_json) if colored else _stranded_faces(g, as_json)
    pieces, count = _flat(faces if as_json else (["".join(f)] for f in faces),
                          ",\n" if as_json else "\n")
    pieces[0] = (f'{{\n  "tool_version": {_quote(__version__)},\n  "mode": '
                 f'"{"colored" if colored else "stranded"}",\n  "count": {count},\n  "faces": ['
                 if as_json else f"faces: {count}")
    pieces.append(("\n  ]\n}" if count else "]\n}") if as_json else "")
    return "".join(pieces)


def bubbles_report(g: ColoredGraph, as_json: bool) -> str:
    """The ``bubbles`` report over three colors: one record per bubble
    with its ribbon counts, then the totals and the genus histogram."""
    from .bubbles import _bubble_records
    head, tail = (cache(part.format) for part in (_BUBBLE_JSON if as_json else _BUBBLE_TEXT))
    labels = [f"        {_quote(v)}" for v in (*g.whites, *g.blacks)] if as_json else []
    genera: Counter[int] = Counter()

    def records() -> Iterator[list[str]]:
        for i, (colors, ws, bs, counts) in enumerate(_bubble_records(g)):
            genera[counts[-1]] += 1
            words = ("true", "planar") if counts[-1] == 0 else ("false", "non-planar")
            if not as_json:
                yield [f"  [{i}]", head(*colors), tail(*counts, *words)]
                continue
            record = [",\n"] * (2 * (len(ws) + len(bs)) + 1)
            record[0], record[-1] = head(*colors), tail(*counts, *words)
            record[1:-1:2] = [labels[w] for w in ws] + [labels[g.n + b] for b in bs]
            yield record

    pieces, total = _flat(records(), ",\n" if as_json else "\n")
    item, sep = ('    "{}": {}', ",\n") if as_json else ("{}:{}", " ")
    hist = sep.join(item.format(genus, genera[genus]) for genus in sorted(genera))
    pieces[0] = (f'{{\n  "tool_version": {_quote(__version__)},\n  "k": 3,\n  "records": ['
                 if as_json else f"bubbles: {total}")
    pieces.append(f"\nplanar: {genera[0]}/{total}\ngenus histogram: {hist}" if not as_json else
                  f'\n  ],\n  "total": {total},\n  "planar_count": {genera[0]},\n'
                  f'  "genus_histogram": {{\n{hist}\n  }}\n}}' if total else
                  '],\n  "total": 0,\n  "planar_count": 0,\n  "genus_histogram": {}\n}')
    return "".join(pieces)
