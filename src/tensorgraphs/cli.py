"""Command-line surface.

Subcommands: validate, faces, bubbles, genus, dual, check colorable,
check mo, random, census, export-dot.  Human-readable output by
default; ``--json`` switches to machine output with stable field names
and a fixed key order, so identical inputs give byte-identical output.

Exit codes: 0 success / property holds; 1 graph invalid or property
fails; 2 parse or usage error; 3 internal fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

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
    from .checks import SignAssignment
    from .core import ColoredGraph, StrandedGraph
    from .sampling import CensusReport

USAGE_ERRORS = (ParseError, UnknownFormat, VersionUnsupported, BadParameters,
                WrongRank, BadCardinal, OSError)
PROPERTY_ERRORS = (Disconnected, OddEuler, NegativeGenus, TwistedInput,
                   AttemptsExhausted)


# collections.namedtuple, not typing.NamedTuple: ``--version`` imports no typing
CommandResult = namedtuple("CommandResult", ["exit_code", "report"])
_SLICE = 1 << 16  # characters of a report that main() writes at a time


def _json_report(payload: dict) -> str:
    return json.dumps({"tool_version": __version__, **payload}, indent=2)


def _load(path: str) -> ColoredGraph | StrandedGraph:
    from .formats import parse_graph
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _require_colored(g, what: str) -> ColoredGraph:
    from .core import ColoredGraph
    if not isinstance(g, ColoredGraph):
        raise BadParameters(f"{what} needs a colored graph document")
    return g


def _as_stranded(g) -> StrandedGraph:
    from .core import ColoredGraph, to_stranded
    return to_stranded(g) if isinstance(g, ColoredGraph) else g


def _write_out(data: bytes, out: str | None) -> str:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
        return f"wrote {out}"
    return data.decode("utf-8").rstrip("\n")


# -- subcommands -------------------------------------------------------------

def _cmd_validate(args) -> CommandResult:
    from .core import ColoredGraph, validate_colored
    try:
        g = _load(args.file)
    except (ParseError, UnknownFormat, VersionUnsupported, OSError) as err:
        return CommandResult(2, f"error: {err}")
    except TensorGraphError as err:
        violation = {"rule": type(err).__name__, "element": "", "message": str(err)}
        if args.json:
            return CommandResult(1, _json_report({"valid": False, "violations": [violation]}))
        return CommandResult(1, f"invalid: {type(err).__name__}: {err}")
    if isinstance(g, ColoredGraph):
        report = validate_colored(g)
        violations = [v._asdict() for v in report.violations]
        valid = report.valid
    else:
        violations = []
        valid = True  # parsing built the index, which checks every invariant
    if args.json:
        return CommandResult(0 if valid else 1,
                             _json_report({"valid": valid, "violations": violations}))
    if valid:
        return CommandResult(0, "valid")
    lines = ["invalid:"] + [f"  {v['rule']} {v['element']}: {v['message']}" for v in violations]
    return CommandResult(1, "\n".join(lines))


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
        lines.append(f"  [{i}] colors {{{colors}}} V={len(b.vertices)} E={len(b.edges)}")
    return CommandResult(0, "\n".join(lines))


def _counts_of(g: ColoredGraph | StrandedGraph) -> tuple[int, int, int, bool]:
    from .core import ColoredGraph, _connected, stranded_components
    from .topology import _strand_circuits, bicolored_face_count
    if isinstance(g, ColoredGraph):
        v = 2 * g.n
        e = (g.rank + 1) * g.n
        f = bicolored_face_count(g)
        connected = _connected(g)
    else:
        v = len(g.vertices)
        e = len(g.edges)
        f = sum(1 for _cycle in _strand_circuits(g))
        connected = len(stranded_components(g)) == 1
    return v, e, f, connected


def _cmd_genus(args) -> CommandResult:
    from .topology import genus as ribbon_genus
    if args.counts is not None:
        v, e, f = args.counts
        connected = True
    else:
        if args.file is None:
            raise BadParameters("genus needs a FILE or --counts V E F")
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
        if args.json:
            return CommandResult(0, _json_report({"colorable": True,
                                                  "witness": _document(result.witness)}))
        return CommandResult(0, (
            "colorable\n"
            f"  whites: {' '.join(result.witness.whites)}\n"
            f"  blacks: {' '.join(result.witness.blacks)}"))
    if args.json:
        return CommandResult(1, _json_report({"colorable": False,
                                              "obstruction": result.obstruction}))
    return CommandResult(1, f"not colorable: {result.obstruction}")


def _signs_by_label(s: StrandedGraph, assignment: SignAssignment) -> dict[str, str]:
    out = {}
    for v in s.vertices:
        for pos, h in enumerate(v.halfedges):
            sign = assignment.signs[(v.label, pos)]
            out[h] = "+" if sign > 0 else "-"
    return out


def _cmd_check_mo(args) -> CommandResult:
    from .checks import PATTERNS, mo_admissibility
    s = _as_stranded(_load(args.file))
    pattern = PATTERNS[args.pattern]
    result = mo_admissibility(s, pattern)
    if result.admissible:
        assert result.assignment is not None
        signs = _signs_by_label(s, result.assignment)
        rotations = dict(sorted(result.assignment.rotations.items()))
        if args.json:
            return CommandResult(0, _json_report({
                "admissible": True,
                "pattern": pattern.name,
                "rotations": rotations,
                "signs": signs,
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
        lines.append(f"  rotation {c['rotation']}: edge {c['edge'][0]}--{c['edge'][1]} {c['reason']}")
    return CommandResult(1, "\n".join(lines))


def _cmd_random(args) -> CommandResult:
    from .formats import serialize_graph
    from .sampling import random_colored, random_connected
    if args.connected:
        g = random_connected(args.rank, args.size, args.seed, args.max_attempts)
    else:
        g = random_colored(args.rank, args.size, args.seed)
    return CommandResult(0, _write_out(serialize_graph(g), args.output))


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
    from .formats import export_dot
    g = _load(args.file)
    return CommandResult(0, _write_out(export_dot(g), args.output))


# -- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorgraphs",
        description="Combinatorics of colored and stranded tensor graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, handler, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="graph document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    graph_command("validate", _cmd_validate, "check every graph invariant")
    graph_command("faces", _cmd_faces, "enumerate faces (closed strand circuits)")
    p = graph_command("bubbles", _cmd_bubbles, "enumerate bubbles with ribbon invariants")
    p.add_argument("--k", type=int, default=3, help="color subset cardinality (default 3)")

    p = sub.add_parser("genus", help="genus from ribbon counts or a rank-2 graph")
    p.add_argument("file", nargs="?", help="rank-2 graph document")
    p.add_argument("--counts", type=int, nargs=3, metavar=("V", "E", "F"),
                   help="explicit vertex/edge/face counts of a connected ribbon graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_genus)

    graph_command("dual", _cmd_dual, "simplex counts of the dual triangulation (rank 3)")

    check = sub.add_parser("check", help="decide structural properties")
    check_sub = check.add_subparsers(dest="property", required=True)
    p = check_sub.add_parser("colorable", help="decide colorability, with witness")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_colorable)
    p = check_sub.add_parser("mo", help="decide multi-orientability, with witness")
    p.add_argument("file")
    p.add_argument("--pattern", choices=("alternating", "block"),  # sorted(checks.PATTERNS)
                   default="alternating")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_mo)

    p = sub.add_parser("random", help="sample a random colored graph")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--size", type=int, required=True, help="vertex pairs n")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--connected", action="store_true",
                   help="rejection-sample until connected")
    p.add_argument("--max-attempts", type=int, default=100)
    p.add_argument("-o", "--output", help="write the document here instead of stdout")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("census", help="Monte Carlo census of a seeded ensemble")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--size", type=int, required=True, help="vertex pairs n")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallelism hint; never changes the output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("export-dot", help="render a graph document as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def run(argv: list[str]) -> CommandResult:
    """Execute one CLI invocation and return its exit code and report."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, "")
    try:
        return args.handler(args)
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
        # anything else is a fault of this program, not of its input
        message = " ".join(str(err).split())
        return CommandResult(3, f"internal error: {type(err).__name__}: {message}")


def main() -> None:
    """Run ``sys.argv``; write the report in slices, never encoding all of it at once."""
    result = run(sys.argv[1:])
    if result.report:
        stream = sys.stdout if result.exit_code in (0, 1) else sys.stderr
        try:
            for start in range(0, len(result.report), _SLICE):
                stream.write(result.report[start:start + _SLICE])
            print(file=stream, flush=True)
        except BrokenPipeError:
            # The reader closed the pipe early (``| head``): the command still
            # ran, so keep its exit code, and point the stream at devnull so
            # the flush at interpreter exit cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
