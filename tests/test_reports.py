"""The faces and bubbles reports, which the CLI renders straight from the
face and bubble walks, against an oracle that builds the documented
payload from the public ``bicolored_faces``, ``trace_faces`` and
``bubble_census`` objects and lays it out with json.dumps(indent=2), or
writes the text form from the same objects."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    ColoredGraph,
    __version__,
    bicolored_faces,
    bubble_census,
    build_stranded,
    random_colored,
    serialize_graph,
    to_stranded,
    trace_faces,
)
from tensorgraphs.cli import run
from tensorgraphs.render import bubbles_report, faces_report

from .test_cli_golden import ESCAPED, _melonic


def _labels(draw, count):
    """``count`` distinct labels that need JSON escaping, in an order
    unrelated to their string order."""
    prefixes = draw(st.lists(st.sampled_from(ESCAPED), min_size=count, max_size=count))
    return [f"{prefix}{i}" for i, prefix in enumerate(prefixes)]


@st.composite
def escaped_colored(draw):
    rank = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=0, max_value=12))
    matchings = tuple(tuple(draw(st.permutations(range(n)))) for _ in range(rank + 1))
    labels = _labels(draw, 2 * n)
    return ColoredGraph(rank, tuple(labels[:n]), tuple(labels[n:]), matchings)


@st.composite
def escaped_twisted(draw):
    """Half-edges paired at random, self-loops included, every edge glued
    by a random strand permutation."""
    rank = draw(st.integers(min_value=2, max_value=4))
    m = rank + 1
    count = draw(st.sampled_from([k for k in range(9) if k * m % 2 == 0]))
    labels = _labels(draw, count)
    halves = draw(st.permutations([f"{v}.{p}" for v in labels for p in range(m)]))
    return build_stranded(
        rank, [(v, [f"{v}.{p}" for p in range(m)]) for v in labels],
        [((halves[i], halves[i + 1]), draw(st.permutations(range(rank))))
         for i in range(0, len(halves), 2)])


def _reports(g, command):
    """Exit code, --json report and text report of ``command`` on ``g``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_bytes(serialize_graph(g))
        as_json, as_text = run([command, str(path), "--json"]), run([command, str(path)])
    assert as_json.exit_code == as_text.exit_code == 0
    return as_json.report, as_text.report


def _layout(payload):
    return json.dumps({"tool_version": __version__, **payload}, indent=2)


def colored_faces_oracle(g):
    faces = bicolored_faces(g)
    payload = {"mode": "colored", "count": faces.count, "faces": [
        {"colors": sorted({e.color for e in cycle}), "length": len(cycle),
         "edges": [{"color": e.color, "white": e.white, "black": e.black} for e in cycle]}
        for cycle in faces.faces]}
    lines = [f"faces: {faces.count}"]
    for cycle in faces.faces:
        a, b = sorted({e.color for e in cycle})
        steps = " ".join(f"{e.white}-{e.black}({e.color})" for e in cycle)
        lines.append(f"  colors {{{a},{b}}} length {len(cycle)}: {steps}")
    return _layout(payload), "\n".join(lines)


def stranded_faces_oracle(s):
    faces = trace_faces(s)
    payload = {"mode": "stranded", "count": faces.count, "faces": [
        {"length": len(cycle) // 2,
         "slots": [{"vertex": x.vertex, "position": x.position, "slot": x.slot} for x in cycle]}
        for cycle in faces.faces]}
    lines = [f"faces: {faces.count}"]
    for cycle in faces.faces:
        steps = " ".join(f"{x.vertex}[{x.position}].{x.slot}" for x in cycle)
        lines.append(f"  length {len(cycle) // 2}: {steps}")
    return _layout(payload), "\n".join(lines)


def bubbles_oracle(g):
    census = bubble_census(g)
    payload = {
        "k": 3,
        "records": [
            {"colors": list(r.bubble.colors), "vertices": list(r.bubble.vertices),
             "v": r.v, "e": r.e, "f": r.f, "chi": r.chi, "genus": r.genus, "planar": r.planar}
            for r in census.records],
        "total": census.total,
        "planar_count": census.planar_count,
        "genus_histogram": {str(k): v for k, v in census.genus_histogram.items()},
    }
    lines = [f"bubbles: {census.total}"]
    for i, r in enumerate(census.records):
        colors = ",".join(str(c) for c in r.bubble.colors)
        flat = "planar" if r.planar else "non-planar"
        lines.append(f"  [{i}] colors {{{colors}}} V={r.v} E={r.e} F={r.f} "
                     f"chi={r.chi} genus={r.genus} {flat}")
    hist = " ".join(f"{k}:{v}" for k, v in census.genus_histogram.items())
    lines += [f"planar: {census.planar_count}/{census.total}", f"genus histogram: {hist}"]
    return _layout(payload), "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(escaped_colored())
def test_colored_faces_match_oracle(g):
    assert _reports(g, "faces") == colored_faces_oracle(g)


@settings(max_examples=60, deadline=None)
@given(escaped_colored())
def test_bubbles_match_oracle(g):
    assert _reports(g, "bubbles") == bubbles_oracle(g)


@settings(max_examples=60, deadline=None)
@given(escaped_twisted())
def test_stranded_faces_match_oracle(s):
    assert _reports(s, "faces") == stranded_faces_oracle(s)


def _peak_per_byte(render, g, as_json):
    """tracemalloc peak of one render, per character of its report."""
    render(g, as_json)  # fills the interpreter's free lists, which tracemalloc counts
    tracemalloc.start()
    try:
        report = render(g, as_json)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(report)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("stranded", [False, True], ids=["colored", "stranded"])
def test_faces_report_holds_little_beyond_itself(stranded, as_json):
    # one flat list of shared pieces, joined once: about 1.3-2.1 times the
    # report; a join per nesting level or per face measured 3.5-8.2 times
    g = random_colored(3, 300, 7)
    assert _peak_per_byte(faces_report, to_stranded(g) if stranded else g, as_json) <= 2.5


def test_bubbles_report_holds_little_beyond_itself():
    # about 1.4 times the report; a join per nesting level measured 5.4 times.
    # The text form is not bounded here: the bubble walk alone peaks at
    # 2.7 times its report, which the renderer cannot change.
    assert _peak_per_byte(bubbles_report, _melonic(300, 3), True) <= 2.5
