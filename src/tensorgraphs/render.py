"""The large CLI reports, rendered straight from the face and bubble walks.

``faces`` (colored and stranded) and ``bubbles`` over three colors are
written chunk by chunk from the integer walks in ``topology`` and
``bubbles``: each label is JSON-encoded once, and each edge or slot
chunk is formatted once.  The --json form is byte for byte
``json.dumps({"tool_version": ..., **payload}, indent=2)`` of the
documented payload, which is never built; the text form reads the same
walks.  The CLI imports this module only for those two commands.
"""

from __future__ import annotations

import json
from collections import Counter

from . import __version__
from .core import ColoredGraph, StrandedGraph, _slot_labels
from .topology import _colored_face_walks, _strand_circuits

# record templates, laid out as json.dumps(indent=2) lays out the payload
_COLORED_JSON = (  # edge, face, separator
    '        {{\n          "color": {0},\n          "white": {1},\n          "black": {2}\n        }}',
    '    {{\n      "colors": [\n        {0},\n        {1}\n      ],\n      "length": {2},\n'
    '      "edges": [\n{3}\n      ]\n    }}',
    ",\n")
_COLORED_TEXT = ("{1}-{2}({0})", "  colors {{{0},{1}}} length {2}: {3}", " ")
_STRANDED_JSON = (  # vertex, position and slot, face, separator
    '        {{\n          "vertex": {0}',
    ',\n          "position": {0},\n          "slot": {1}\n        }}',
    '    {{\n      "length": {0},\n      "slots": [\n{1}\n      ]\n    }}',
    ",\n")
_STRANDED_TEXT = ("{0}", "[{0}].{1}", "  length {0}: {1}", " ")
_BUBBLE_JSON = (
    '    {{\n      "colors": [\n        {0},\n        {1},\n        {2}\n      ],\n'
    '      "vertices": [\n{3}\n      ],\n      "v": {4},\n      "e": {5},\n      "f": {6},\n'
    '      "chi": {7},\n      "genus": {8},\n      "planar": {9}\n    }}')
_quote = json.encoder.encode_basestring_ascii


def _json_list(items: list[str], indent: str) -> str:
    """Items laid out one level below ``indent``, as a JSON list."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _json_object(fields: dict[str, str], indent: str = "") -> str:
    """Rendered values under keys that need no escaping, as a JSON object
    at ``indent``."""
    if not fields:
        return "{}"
    inner = indent + "  "
    items = [f'{inner}"{key}": {value}' for key, value in fields.items()]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


def _colored_faces(g: ColoredGraph, as_json: bool) -> list[str]:
    edge, face, sep = _COLORED_JSON if as_json else _COLORED_TEXT
    quote = _quote if as_json else str
    whites, blacks = list(map(quote, g.whites)), list(map(quote, g.blacks))
    # each (color, white) edge lies on D faces
    chunks = [[edge.format(c, whites[i], blacks[j]) for i, j in enumerate(sigma)]
              for c, sigma in enumerate(g.matchings)]
    faces = []
    for a, b, cycle in _colored_face_walks(g):
        steps = [""] * (2 * len(cycle))
        steps[::2] = map(chunks[a].__getitem__, cycle)
        steps[1::2] = map(chunks[b].__getitem__, cycle[1:] + cycle[:1])
        faces.append(face.format(a, b, len(steps), sep.join(steps)))
    return faces


def _stranded_faces(s: StrandedGraph, as_json: bool) -> list[str]:
    vertex, slot, face, sep = _STRANDED_JSON if as_json else _STRANDED_TEXT
    quote = _quote if as_json else str
    heads = [vertex.format(quote(v)) for v in s._index.order]
    tails = [slot.format(p, q) for p, q in _slot_labels(s.rank)]
    chunks = [head + tail for head in heads for tail in tails]  # by slot id
    return [face.format(len(cycle) // 2, sep.join(map(chunks.__getitem__, cycle)))
            for cycle in _strand_circuits(s)]


def faces_report(g: ColoredGraph | StrandedGraph, as_json: bool) -> str:
    """The ``faces`` report: two-color cycles of a colored graph, strand
    circuits of a stranded one."""
    if isinstance(g, ColoredGraph):
        mode, faces = "colored", _colored_faces(g, as_json)
    else:
        mode, faces = "stranded", _stranded_faces(g, as_json)
    if as_json:
        return _json_object({
            "tool_version": _quote(__version__), "mode": _quote(mode),
            "count": str(len(faces)), "faces": _json_list(faces, "  ")})
    return "\n".join([f"faces: {len(faces)}", *faces])


def bubbles_report(g: ColoredGraph, as_json: bool) -> str:
    """The ``bubbles`` report over three colors: one record per bubble
    with its ribbon counts, then the totals and the genus histogram."""
    from .bubbles import _bubble_records
    whites = ["        " + _quote(w) for w in g.whites] if as_json else []
    blacks = ["        " + _quote(b) for b in g.blacks] if as_json else []
    records = []
    genera: Counter[int] = Counter()
    for i, (colors, ws, bs, (v, e, f, chi, genus)) in enumerate(_bubble_records(g)):
        genera[genus] += 1
        if as_json:
            vertices = ",\n".join([*map(whites.__getitem__, ws), *map(blacks.__getitem__, bs)])
            records.append(_BUBBLE_JSON.format(*colors, vertices, v, e, f, chi, genus,
                                               "true" if genus == 0 else "false"))
        else:
            flat = "planar" if genus == 0 else "non-planar"
            records.append(f"  [{i}] colors {{{','.join(map(str, colors))}}} V={v} E={e} "
                           f"F={f} chi={chi} genus={genus} {flat}")
    histogram = {genus: genera[genus] for genus in sorted(genera)}
    if as_json:
        return _json_object({
            "tool_version": _quote(__version__), "k": "3", "records": _json_list(records, "  "),
            "total": str(len(records)), "planar_count": str(genera[0]),
            "genus_histogram": _json_object(
                {str(genus): str(count) for genus, count in histogram.items()}, "  ")})
    hist = " ".join(f"{genus}:{count}" for genus, count in histogram.items())
    return "\n".join([f"bubbles: {len(records)}", *records,
                      f"planar: {genera[0]}/{len(records)}", f"genus histogram: {hist}"])
