"""Command-line surface.

Subcommands: validate, faces, bubbles, genus, dual, check colorable,
check mo, random, census, export-dot.  Human-readable output by
default; ``--json`` switches to machine output with stable field names
and a fixed key order, so identical inputs give byte-identical output.

Exit codes: 0 success / property holds; 1 graph invalid or property
fails; 2 parse or usage error; 3 internal fault.

A report is a str or its pieces: the large reports hand over the piece
lists they build, a graph document is the pieces that ``formats`` writes
from the graph, and every other payload is encoded lazily by
``json.JSONEncoder(indent=2).iterencode``.  ``run`` joins the pieces;
``main`` writes them as they come.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from itertools import chain, islice

from . import __version__
from .errors import (
    AttemptsExhausted,
    BadCardinal,
    BadParameters,
    Disconnected,
    InvariantViolation,
    NegativeGenus,
    OddEuler,
    ParseError,
    TensorGraphError,
    TwistedInput,
    UnknownFormat,
    VersionUnsupported,
    WrongRank,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Iterable, Iterator

    from .core import ColoredGraph, StrandedGraph
    from .sampling import CensusReport

USAGE_ERRORS = (ParseError, UnknownFormat, VersionUnsupported, BadParameters,
                WrongRank, BadCardinal, OSError)
PROPERTY_ERRORS = (Disconnected, OddEuler, NegativeGenus, TwistedInput,
                   AttemptsExhausted)


# collections.namedtuple, not typing.NamedTuple: ``--version`` imports no typing
CommandResult = namedtuple("CommandResult", ["exit_code", "report"])
_SLICE = 1 << 16  # characters of a report that main() writes at a time
_ENCODER = json.JSONEncoder(indent=2)  # lays a payload out as json.dumps(indent=2) does


def _json_report(payload: dict) -> Iterator[str]:
    """The payload's --json report, encoded as it is read."""
    return _ENCODER.iterencode({"tool_version": __version__, **payload})


def _slices(pieces: Iterable[str]) -> Iterator[str]:
    """``pieces`` rejoined into exact _SLICE-character slices, then the rest.
    Runs of pieces are joined and cut by offset.  A run is about a slice
    long, as its piece count at most doubles from the last run's, so none
    holds much of the report, and a run that is one long piece is not
    copied.  A list is cut into runs by index, reading no piece alone."""
    rest = None if isinstance(pieces, list) else iter(pieces)
    carry, start, count = "", 0, 1
    while run := pieces[start:start + count] if rest is None else list(islice(rest, count)):
        start += count
        text = "".join(run)
        count = min(2 * count, count * _SLICE // (len(text) + 1) + 1)  # next run's
        at = _SLICE - len(carry)
        if at > len(text):
            carry += text
            continue
        yield carry + text[:at]
        while len(text) - at >= _SLICE:
            yield text[at:at + _SLICE]
            at += _SLICE
        carry = text[at:]
    if carry:
        yield carry


class _InvalidGraph(Exception):
    """The report on a document that a builder rejected with BadParameters:
    the graph is invalid (exit 1), though that type also marks bad flags."""


def _parse(path: str) -> ColoredGraph | StrandedGraph:
    from .formats import parse_graph
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _load(path: str) -> ColoredGraph | StrandedGraph:
    try:
        return _parse(path)
    except BadParameters as err:
        raise _InvalidGraph(f"invalid graph: BadParameters: {err}") from None


def _require_colored(g, what: str) -> ColoredGraph:
    from .core import ColoredGraph
    if not isinstance(g, ColoredGraph):
        raise BadParameters(f"{what} needs a colored graph document")
    return g


def _as_stranded(g) -> StrandedGraph:
    from .core import ColoredGraph, to_stranded
    return to_stranded(g) if isinstance(g, ColoredGraph) else g


def _write_out(pieces: Iterable[str], out: str | None) -> Iterable[str]:
    """The report of a command that writes a document: the document's
    pieces, or with ``out``, a note that they were written there."""
    if not out:
        return pieces
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_slices(pieces))
        fh.write("\n")
    return f"wrote {out}"


# -- subcommands -------------------------------------------------------------

def _cmd_validate(args) -> CommandResult:
    try:
        _parse(args.file)
    except (ParseError, UnknownFormat, VersionUnsupported, OSError) as err:
        return CommandResult(2, f"error: {err}")
    except TensorGraphError as err:
        violation = {"rule": type(err).__name__, "element": "", "message": str(err)}
        if args.json:
            return CommandResult(1, _json_report({"valid": False, "violations": [violation]}))
        return CommandResult(1, f"invalid: {type(err).__name__}: {err}")
    # loading builds the graph, and the builders check every invariant
    if args.json:
        return CommandResult(0, _json_report({"valid": True, "violations": []}))
    return CommandResult(0, "valid")


def _cmd_faces(args) -> CommandResult:
    from .render import faces_report
    return CommandResult(0, faces_report(_load(args.file), args.json))


def _cmd_bubbles(args) -> CommandResult:
    from .bubbles import enumerate_bubbles
    g = _require_colored(_load(args.file), "bubbles")
    if args.k == 3:
        from .render import bubbles_report
        return CommandResult(0, bubbles_report(g, args.json))
    bubbles = enumerate_bubbles(g, args.k)
    if args.json:
        return CommandResult(0, _json_report({
            "k": args.k,
            "bubbles": [b.detach() | {"v": len(b.vertices), "e": len(b.edges)} for b in bubbles],
            "total": len(bubbles),
        }))
    lines = [f"bubbles: {len(bubbles)}"]
    for i, b in enumerate(bubbles):
        colors = ",".join(str(c) for c in b.colors)
        lines.append(f"\n  [{i}] colors {{{colors}}} V={len(b.vertices)} E={len(b.edges)}")
    return CommandResult(0, lines)


def _counts_of(g: ColoredGraph | StrandedGraph) -> tuple[int, int, int, bool]:
    from .core import ColoredGraph, _triple_counts, stranded_components
    from .topology import _strand_circuits
    if isinstance(g, ColoredGraph):
        # at rank 2 the one triple is every color: its bubbles are the components
        faces, _genera, connected = _triple_counts(g)
        return 2 * g.n, (g.rank + 1) * g.n, faces, connected
    return (len(g.vertices), len(g.edges), sum(1 for _cycle in _strand_circuits(g)),
            len(stranded_components(g)) == 1)


def _cmd_genus(args) -> CommandResult:
    from .topology import genus as ribbon_genus
    if args.counts is not None:
        v, e, f = args.counts
        connected = True
    else:
        g = _load(args.file)
        if g.rank != 2:
            raise WrongRank(
                f"whole-graph genus is defined for rank-2 (ribbon) graphs, got rank {g.rank}")
        v, e, f, connected = _counts_of(g)
    value = ribbon_genus(v, e, f, connected=connected)
    chi = v - e + f
    payload = {"v": v, "e": e, "f": f, "chi": chi, "genus": value, "planar": value == 0}
    if args.json:
        return CommandResult(0, _json_report(payload))
    flat = "planar" if value == 0 else "non-planar"
    return CommandResult(0, f"V={v} E={e} F={f} chi={chi} genus={value} {flat}")


def _cmd_dual(args) -> CommandResult:
    from .dual import complex_euler, dual_counts
    g = _require_colored(_load(args.file), "dual")
    counts = dual_counts(g)
    payload = {**counts._asdict(), "euler": complex_euler(counts)}
    if args.json:
        return CommandResult(0, _json_report(payload))
    return CommandResult(0, " ".join(f"{key}={value}" for key, value in payload.items()))


def _cmd_check_colorable(args) -> CommandResult:
    from .checks import colorability
    from .formats import _document
    s = _as_stranded(_load(args.file))
    result = colorability(s)
    if result.colorable:
        assert result.witness is not None
        if args.json:  # the witness's document, nested one level deeper
            head = (f'{{\n  "tool_version": {json.dumps(__version__)},\n  "colorable": true,\n'
                    '  "witness": ')
            witness = (piece.replace("\n", "\n  ") for piece in _document(result.witness))
            return CommandResult(0, chain([head], witness, ["\n}"]))
        return CommandResult(0, (
            "colorable\n"
            f"  whites: {' '.join(result.witness.whites)}\n"
            f"  blacks: {' '.join(result.witness.blacks)}"))
    if args.json:
        return CommandResult(1, _json_report({"colorable": False,
                                              "obstruction": result.obstruction}))
    return CommandResult(1, f"not colorable: {result.obstruction}")


def _cmd_check_mo(args) -> CommandResult:
    from .checks import PATTERNS, mo_admissibility
    s = _as_stranded(_load(args.file))
    pattern = PATTERNS[args.pattern]
    result = mo_admissibility(s, pattern)
    if result.admissible:
        assert result.assignment is not None
        rotations, signs = result.assignment.rotations, result.assignment.signs
        if args.json:  # rotations come in label order; signs are keyed by half-edge label
            return CommandResult(0, _json_report({
                "admissible": True,
                "pattern": pattern.name,
                "rotations": rotations,
                "signs": {h: "+" if signs[v.label, pos] > 0 else "-"
                          for v in s.vertices for pos, h in enumerate(v.halfedges)},
            }))
        rots = " ".join(f"{k}:{v}" for k, v in rotations.items())
        return CommandResult(0, f"admissible (pattern {pattern.name})\n  rotations: {rots}")
    assert result.obstruction is not None
    conflicts = [
        {"rotation": rot, "edge": list(ends), "reason": reason}
        for rot, ends, reason in result.obstruction.conflicts
    ]
    if args.json:
        return CommandResult(1, _json_report({
            "admissible": False,
            "pattern": pattern.name,
            "vertex": result.obstruction.vertex,
            "conflicts": conflicts,
        }))
    lines = [f"not admissible (pattern {pattern.name}): no rotation works at "
             f"{result.obstruction.vertex}"]
    for c in conflicts:
        lines.append(f"\n  rotation {c['rotation']}: edge {c['edge'][0]}--{c['edge'][1]} "
                     f"{c['reason']}")
    return CommandResult(1, lines)


def _cmd_random(args) -> CommandResult:
    from .formats import _document
    from .sampling import random_colored, random_connected
    if args.connected:
        g = random_connected(args.rank, args.size, args.seed, args.max_attempts)
    else:
        g = random_colored(args.rank, args.size, args.seed)
    return CommandResult(0, _write_out(_document(g), args.output))


def _census_payload(report: CensusReport) -> dict:
    """The report's fields in order, fractions and histogram keys as strings."""
    return {
        **report._asdict(),
        "mean_faces": str(report.mean_faces),
        "bubble_count_distribution": {str(k): v for k, v in
                                      report.bubble_count_distribution.items()},
        "genus_histogram": {str(k): v for k, v in report.genus_histogram.items()},
        "planar_fraction": str(report.planar_fraction),
        "connected_fraction": str(report.connected_fraction),
    }


def _cmd_census(args) -> CommandResult:
    from .sampling import census
    report = census(args.rank, args.size, args.samples, args.seed, args.jobs)
    if args.json:
        return CommandResult(0, _json_report(_census_payload(report)))
    hist = " ".join(f"{k}:{v}" for k, v in report.genus_histogram.items())
    dist = " ".join(f"{k}:{v}" for k, v in report.bubble_count_distribution.items())
    return CommandResult(0, "\n".join([
        f"samples: {report.samples}  rank: {report.rank}  n: {report.n}  seed: {report.seed}",
        f"mean faces: {report.mean_faces}",
        f"bubble count distribution: {dist}",
        f"genus histogram: {hist}",
        f"planar fraction: {report.planar_fraction}",
        f"connected fraction: {report.connected_fraction}",
        f"generator: {report.generator_id}",
    ]))


def _cmd_export_dot(args) -> CommandResult:
    from .formats import _dot
    return CommandResult(0, _write_out(_dot(_load(args.file)), args.output))


# -- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorgraphs",
        description="Combinatorics of colored and stranded tensor graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, handler, help_: str, parent=sub):
        p = parent.add_parser(name, help=help_)
        p.add_argument("file", help="graph document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    graph_command("validate", _cmd_validate, "check every graph invariant")
    graph_command("faces", _cmd_faces, "enumerate faces (closed strand circuits)")
    p = graph_command("bubbles", _cmd_bubbles, "enumerate bubbles with ribbon invariants")
    p.add_argument("--k", type=int, default=3, help="color subset cardinality (default 3)")

    p = sub.add_parser("genus", help="genus from ribbon counts or a rank-2 graph",
                       usage="%(prog)s [-h] [--json] (file | --counts V E F)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", help="rank-2 graph document")
    source.add_argument("--counts", type=int, nargs=3, metavar=("V", "E", "F"),
                        help="explicit vertex/edge/face counts of a connected ribbon graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_genus)

    graph_command("dual", _cmd_dual, "simplex counts of the dual triangulation (rank 3)")

    check = sub.add_parser("check", help="decide structural properties")
    check_sub = check.add_subparsers(dest="property", required=True)
    graph_command("colorable", _cmd_check_colorable, "decide colorability, with witness", check_sub)
    p = graph_command("mo", _cmd_check_mo, "decide multi-orientability, with witness", check_sub)
    p.add_argument("--pattern", choices=("alternating", "block"),  # sorted(checks.PATTERNS)
                   default="alternating", help="corner signs; block never answers "
                   "'not admissible' on a valid untwisted rank-3 graph")

    p = sub.add_parser("random", help="sample a random colored graph")
    p.add_argument("--rank", type=int, required=True,
                   help="rank D: the graph holds (D+1)*n matching entries")
    p.add_argument("--size", type=int, required=True, help="vertex pairs n")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--connected", action="store_true",
                   help="rejection-sample until connected")
    p.add_argument("--max-attempts", type=int, default=100)
    p.add_argument("-o", "--output", help="write the document here instead of stdout")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("census", help="Monte Carlo census of a seeded ensemble")
    p.add_argument("--rank", type=int, required=True, help="rank D: each sample composes "
                   "C(D+1, 2) color pairs and walks C(D+1, 3) triples")
    p.add_argument("--size", type=int, required=True, help="vertex pairs n")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallelism hint: forks up to JOBS-1 workers from this process, capped "
                   "at the CPU and sample counts; never changes the output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("export-dot", help="render a graph document as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def _fault(err: Exception) -> CommandResult:
    """Exit 3: a fault of this program, not of its input."""
    message = " ".join(str(err).split())
    return CommandResult(3, f"internal error: {type(err).__name__}: {message}")


def _execute(argv: list[str]) -> CommandResult:
    """Run one CLI invocation up to its report, a str or its pieces: every
    walk and check is done, and only a built payload is left to encode."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, "")
    try:
        return args.handler(args)
    except _InvalidGraph as err:
        return CommandResult(1, str(err))
    except USAGE_ERRORS as err:
        return CommandResult(2, f"error: {err}")
    except PROPERTY_ERRORS as err:
        return CommandResult(1, f"{type(err).__name__}: {err}")
    except (InvariantViolation, AssertionError) as err:
        return CommandResult(3, f"internal invariant violation: {err}")
    except TensorGraphError as err:
        # remaining builder errors mean the input graph is invalid
        return CommandResult(1, f"invalid graph: {type(err).__name__}: {err}")
    except Exception as err:
        return _fault(err)


def run(argv: list[str]) -> CommandResult:
    """Execute one CLI invocation and return its exit code and whole report."""
    code, report = _execute(argv)
    try:
        return CommandResult(code, report if isinstance(report, str) else "".join(report))
    except Exception as err:  # encoding a built payload
        return _fault(err)


def main() -> None:
    """Run ``sys.argv`` and write its report in exact _SLICE-character
    slices as its pieces come, so no report is ever held whole.  A fault
    while writing exits 3, as ``run`` does, after what was written."""
    code, report = _execute(sys.argv[1:])
    stream = sys.stdout if code in (0, 1) else sys.stderr
    try:
        if report:
            for text in _slices([report] if isinstance(report, str) else report):
                stream.write(text)
            print(file=stream, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``): the command still
        # ran, so keep its exit code, and point the stream at devnull so
        # the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    except Exception as err:
        code, message = _fault(err)
        print(message, file=sys.stderr, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
