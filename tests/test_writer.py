"""``cli.main`` writes every report from its pieces, in exact slices, and
never holds one whole; ``cli.run`` joins the same pieces."""

import sys
import time
import tracemalloc

import pytest

from tensorgraphs import cli, formats, random_colored, serialize_graph, to_stranded
from tensorgraphs.checks import ColorabilityResult
from tensorgraphs.cli import run

from .conftest import deadline
from .test_cli_golden import (
    CENSUS_COMMANDS,
    DECISION_COMMANDS,
    DECISION_GOLDEN,
    DOCUMENTS,
    GOLDEN,
    GRAPH_COMMANDS,
    STRANDED_COMMANDS,
    STRANDED_GOLDEN,
    WALK_COMMANDS,
    WALK_GOLDEN,
    _melonic,
)


def _main(monkeypatch, argv, stdout=None):
    """Exit code of ``cli.main`` on ``argv``, in-process."""
    monkeypatch.setattr(sys, "argv", ["tensorgraphs", *argv])
    if stdout is not None:
        monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    return exit_.value.code


# every pinned case of test_cli_golden, by the table that pins it
TABLES = {"report": (GOLDEN, None), "decision": (DECISION_GOLDEN, DECISION_COMMANDS),
          "stranded": (STRANDED_GOLDEN, STRANDED_COMMANDS), "walk": (WALK_GOLDEN, WALK_COMMANDS)}
CASES = [(table, doc, command) for table, (golden, _commands) in TABLES.items()
         for doc, command in sorted(golden)]


def _golden_argv(tmp_path, table, doc, command):
    """The argv that test_cli_golden runs for this case."""
    if doc == "census":
        return CENSUS_COMMANDS[command]
    g = DOCUMENTS[doc]()
    path = tmp_path / f"{doc}.json"
    path.write_bytes(serialize_graph(g))
    if table == "report":
        name, *flags = GRAPH_COMMANDS[command]
        return [name, str(path), *(f.format(colors=g.rank + 1) for f in flags)]
    return [arg.format(file=path) for arg in TABLES[table][1][command]]


@pytest.mark.parametrize("table, doc, command", CASES, ids=["-".join(case) for case in CASES])
def test_stdout_is_the_joined_report(tmp_path, monkeypatch, capsys, table, doc, command):
    """Exits 0 and 1 write the report to stdout, exit 2 to stderr."""
    argv = _golden_argv(tmp_path, table, doc, command)
    code, report = run(argv)
    assert _main(monkeypatch, argv) == code
    out, err = capsys.readouterr()
    assert (out, err)[code == 2] == report + "\n" and (out, err)[code != 2] == ""


class Recorder:
    """A stdout that keeps the length of each write, and when it came."""

    def __init__(self):
        self.writes, self.times = [], []

    def write(self, text):
        self.writes.append(len(text))
        self.times.append(time.perf_counter())

    def flush(self):
        pass


def test_single_piece_is_written_in_exact_slices(tmp_path, monkeypatch):
    path = tmp_path / "large.json"
    path.write_bytes(serialize_graph(random_colored(3, 20000, 5)))
    argv = ["export-dot", str(path)]
    # export-dot's text joined, as one piece of several MB
    monkeypatch.setattr(cli, "_cmd_export_dot", lambda args: cli.CommandResult(
        0, ["".join(formats._dot(cli._load(args.file)))]))
    piece, = cli._execute(argv).report
    size = len(piece)
    assert size > 50 * cli._SLICE and run(argv).report == piece
    stdout = Recorder()
    with deadline(60):
        assert _main(monkeypatch, argv, stdout) == 0
    *slices, last, newline = stdout.writes
    assert set(slices) == {cli._SLICE} and 0 < last <= cli._SLICE and newline == 1
    assert sum(stdout.writes) == size + 1
    # cut by offset: writing is a small part of the op, not a copy per slice
    assert stdout.times[-1] - stdout.times[0] < 1.0


def test_slices_are_exact_for_any_pieces():
    sizes = [0, 1, 7, cli._SLICE - 1, cli._SLICE, cli._SLICE + 1, 3 * cli._SLICE + 5, 40]
    pieces = [chr(65 + i % 26) * size for i, size in enumerate(sizes * 3)]
    for given in (pieces, iter(pieces)):  # a list is cut by index, an iterator by islice
        slices = list(cli._slices(given))
        assert "".join(slices) == "".join(pieces)
        assert {len(s) for s in slices[:-1]} == {cli._SLICE}
        assert 0 < len(slices[-1]) <= cli._SLICE
    assert list(cli._slices([])) == list(cli._slices(iter(["", ""]))) == []


def test_no_run_holds_the_report():
    """A tiny first piece once made the next run take 65536 pieces: all of
    a 2 MB report."""
    pieces = ("x" * (100 if i else 1) for i in range(20000))
    tracemalloc.start()
    try:
        for _slice in cli._slices(pieces):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cli._SLICE


def test_random_streams_its_document(tmp_path, monkeypatch, capsys):
    document = serialize_graph(random_colored(3, 3000, 3)).decode()
    argv = ["random", "--rank", "3", "--size", "3000", "--seed", "3"]
    assert not isinstance(cli._execute(argv).report, (str, list))  # encoded as it is written
    assert _main(monkeypatch, argv) == 0
    assert capsys.readouterr() == (document, "")
    out = tmp_path / "g.json"
    assert _main(monkeypatch, [*argv, "-o", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")
    assert out.read_bytes() == document.encode()


def test_fault_while_encoding_exits_3(tmp_path, monkeypatch, capsys):
    """A payload that cannot be encoded is a fault of this program: run()
    and main() both exit 3.  The fault comes within the first slice, so
    main() writes nothing of the report."""
    path = tmp_path / "g.json"
    path.write_bytes(serialize_graph(random_colored(3, 4, 1)))
    monkeypatch.setattr("tensorgraphs.checks.colorability",
                        lambda s: ColorabilityResult(False, None, {1}))
    argv = ["check", "colorable", str(path), "--json"]
    message = "internal error: TypeError: Object of type set is not JSON serializable"
    assert run(argv) == (3, message)
    assert _main(monkeypatch, argv) == 3
    assert capsys.readouterr() == ("", message + "\n")


class Sink:
    def write(self, text):
        pass

    def flush(self):
        pass


def _main_peak(monkeypatch, argv):
    """tracemalloc peak of ``cli.main`` on ``argv``, writing to a sink."""
    _main(monkeypatch, argv, Sink())  # imports, and fills the interpreter's free lists
    tracemalloc.start()
    try:
        _main(monkeypatch, argv, Sink())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, make", [
    (["faces"], lambda: _melonic(1000, 3)),
    (["check", "colorable"], lambda: to_stranded(random_colored(3, 600, 3))),
], ids=["faces-melonic-1000", "check-colorable-stranded-600"])
def test_report_peaks_no_higher_than_validate(tmp_path, monkeypatch, command, make):
    """Writing a --json report holds only slices of it, so the op peaks
    where parsing peaks.  Joined whole, faces peaked at 1.29 times validate
    and check colorable at 1.28 times."""
    path = tmp_path / "g.json"
    path.write_bytes(serialize_graph(make()))
    validate = _main_peak(monkeypatch, ["validate", str(path)])
    assert _main_peak(monkeypatch, [*command, str(path), "--json"]) <= 1.05 * validate


def test_random_peaks_within_four_times_its_graph(monkeypatch):
    """random writes its document from the graph as it goes: no payload
    tree (4.9 times the graph before)."""
    tracemalloc.start()
    try:
        g = random_colored(3, 3000, 3)
        graph = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.n == 3000
    argv = ["random", "--rank", "3", "--size", "3000", "--seed", "3"]
    assert _main_peak(monkeypatch, argv) <= 4 * graph
