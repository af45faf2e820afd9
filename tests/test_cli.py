import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorgraphs
from tensorgraphs import cli, parse_graph, random_colored, serialize_graph, to_stranded
from tensorgraphs.cli import run

from .conftest import make_genus_one, make_quad


@pytest.fixture
def corpus(tmp_path, dipole, tadpole_a, tadpole_b):
    """Document corpus exercising the exit-code contract."""
    files = {}

    def put(name, data):
        path = tmp_path / name
        path.write_bytes(data)
        files[name] = str(path)

    put("dipole.json", serialize_graph(dipole))
    put("quad.json", serialize_graph(make_quad()))
    put("genus_one.json", serialize_graph(make_genus_one()))
    put("tadpoleA.json", serialize_graph(tadpole_a))
    put("tadpoleB.json", serialize_graph(tadpole_b))
    put("large.json", serialize_graph(random_colored(3, 300, 7)))  # faces --json: 346400 chars
    bad = json.loads(serialize_graph(dipole))
    bad["edges"][3]["color"] = 2
    put("duplicate_color.json", json.dumps(bad).encode())
    put("unknown_format.json", json.dumps({"format": "tensor-graph-x", "version": 1}).encode())
    put("malformed.json", b"{not json")
    put("dangling.json", json.dumps({
        "format": "stranded-tensor-graph", "version": 1, "rank": 3,
        "vertices": [{"id": "v", "halfedges": ["h0", "h1", "h2", "h3"]}],
        "edges": [{"halfedges": ["h0", "h1"]}],
    }).encode())
    return files


class TestValidate:
    def test_valid(self, corpus):
        result = run(["validate", corpus["dipole.json"]])
        assert result.exit_code == 0
        assert result.report == "valid"

    def test_invalid_graph(self, corpus):
        result = run(["validate", corpus["duplicate_color.json"]])
        assert result.exit_code == 1
        assert "DuplicateColorAtVertex" in result.report

    def test_unknown_format(self, corpus):
        assert run(["validate", corpus["unknown_format.json"]]).exit_code == 2

    def test_malformed(self, corpus):
        assert run(["validate", corpus["malformed.json"]]).exit_code == 2

    def test_missing_file(self, tmp_path):
        assert run(["validate", str(tmp_path / "nope.json")]).exit_code == 2

    def test_deep_nesting_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 200000)
        result = run(["validate", str(path)])
        assert (result.exit_code, result.report) == (2, "error: document: invalid JSON: nested too deeply")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no integer digit limit")
    def test_overlong_integer_exits_2(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_bytes(b'{"format": "colored-tensor-graph", "version": 1, "rank": 1'
                         + b"0" * 4999 + b', "whites": [], "blacks": [], "edges": []}')
        result = run(["validate", str(path)])
        assert result.exit_code == 2 and "digits" in result.report

    def test_stranded_valid(self, corpus):
        assert run(["validate", corpus["tadpoleA.json"]]).exit_code == 0


class TestFaces:
    def test_counts(self, corpus):
        result = run(["faces", corpus["dipole.json"]])
        assert result.exit_code == 0
        assert result.report.startswith("faces: 6")

    def test_json_deterministic(self, corpus):
        a = run(["faces", corpus["quad.json"], "--json"])
        b = run(["faces", corpus["quad.json"], "--json"])
        assert a == b
        payload = json.loads(a.report)
        assert payload["count"] == 8

    def test_stranded_input(self, corpus):
        payload = json.loads(run(["faces", corpus["tadpoleA.json"], "--json"]).report)
        assert payload["count"] == 3


class TestBubbles:
    def test_dipole_records(self, corpus):
        result = run(["bubbles", corpus["dipole.json"], "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.report)
        assert payload["total"] == 4
        assert all(r["planar"] for r in payload["records"])

    def test_k2(self, corpus):
        payload = json.loads(
            run(["bubbles", corpus["dipole.json"], "--k", "2", "--json"]).report)
        assert payload["total"] == 6

    def test_bad_k(self, corpus):
        assert run(["bubbles", corpus["dipole.json"], "--k", "9"]).exit_code == 2

    def test_stranded_rejected(self, corpus):
        assert run(["bubbles", corpus["tadpoleA.json"]]).exit_code == 2


class TestGenus:
    def test_counts_anchor(self):
        result = run(["genus", "--counts", "2", "3", "1", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.report)
        assert payload["genus"] == 1
        assert payload["planar"] is False

    def test_rank2_file(self, tmp_path):
        # rank-2 double edge pair: a sphere-like ribbon graph
        from tensorgraphs import build_colored
        g = build_colored(2, ["w1"], ["b1"], [(c, "w1", "b1") for c in range(3)])
        path = tmp_path / "r2.json"
        path.write_bytes(serialize_graph(g))
        payload = json.loads(run(["genus", str(path), "--json"]).report)
        assert payload == {
            "tool_version": payload["tool_version"],
            "v": 2, "e": 3, "f": 3, "chi": 2, "genus": 0, "planar": True}

    def test_rank3_file_rejected(self, corpus):
        assert run(["genus", corpus["dipole.json"]]).exit_code == 2

    def test_disconnected_fails_property(self, tmp_path):
        from tensorgraphs import build_colored
        edges = [(c, w, b) for c in range(3)
                 for w, b in [("w1", "b1"), ("w2", "b2")]]
        g = build_colored(2, ["w1", "w2"], ["b1", "b2"], edges)
        path = tmp_path / "split.json"
        path.write_bytes(serialize_graph(g))
        result = run(["genus", str(path)])
        assert result.exit_code == 1
        assert "Disconnected" in result.report

    def test_twisted_rank2_fails_property(self, tmp_path):
        # one swapped strand makes chi odd
        from tensorgraphs import build_stranded
        s = build_stranded(
            2,
            [("u", ["u0", "u1", "u2"]), ("v", ["v0", "v1", "v2"])],
            [(("u0", "v0"), None), (("u1", "v1"), None), (("u2", "v2"), (1, 0))])
        path = tmp_path / "twist.json"
        path.write_bytes(serialize_graph(s))
        result = run(["genus", str(path)])
        assert result.exit_code == 1
        assert "OddEuler" in result.report

    def test_no_input_rejected(self):
        assert run(["genus"]).exit_code == 2


class TestDual:
    def test_dipole(self, corpus):
        payload = json.loads(run(["dual", corpus["dipole.json"], "--json"]).report)
        assert (payload["tetrahedra"], payload["triangles"],
                payload["segments"], payload["points"]) == (2, 4, 6, 4)
        assert payload["euler"] == 0


class TestCheck:
    def test_colorable_dipole(self, corpus, dipole):
        result = run(["check", "colorable", corpus["dipole.json"], "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.report)
        assert payload["colorable"] is True
        witness = parse_graph(json.dumps(payload["witness"]).encode())
        assert len(list(witness.edges())) == len(list(dipole.edges()))

    def test_tadpole_a_not_colorable(self, corpus):
        result = run(["check", "colorable", corpus["tadpoleA.json"]])
        assert result.exit_code == 1
        assert "not colorable" in result.report

    def test_mo_tadpole_b(self, corpus):
        result = run(["check", "mo", corpus["tadpoleB.json"]])
        assert result.exit_code == 1
        assert "not admissible" in result.report
        assert "rotation" in result.report  # evidence present

    def test_mo_dipole(self, corpus):
        result = run(["check", "mo", corpus["dipole.json"]])
        assert result.exit_code == 0
        assert "admissible" in result.report

    def test_mo_block_pattern(self, corpus):
        result = run(["check", "mo", corpus["tadpoleA.json"], "--pattern", "block"])
        assert result.exit_code == 0


class TestRandomAndCensus:
    def test_random_writes_valid_document(self, tmp_path):
        out = tmp_path / "g.json"
        result = run(["random", "--rank", "3", "--size", "4", "--seed", "7",
                      "-o", str(out)])
        assert result.exit_code == 0
        g = parse_graph(out.read_bytes())
        assert g.n == 4

    def test_random_connected(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["random", "--rank", "3", "--size", "3", "--seed", "11",
                    "--connected", "-o", str(out)]).exit_code == 0

    def test_random_stdout_round_trip(self):
        result = run(["random", "--rank", "3", "--size", "2", "--seed", "1"])
        assert result.exit_code == 0
        assert parse_graph(result.report.encode()).n == 2

    def test_census_json_deterministic_across_jobs(self):
        base = ["census", "--rank", "3", "--size", "2", "--samples", "40",
                "--seed", "9", "--json"]
        a = run(base + ["--jobs", "1"])
        b = run(base + ["--jobs", "2"])
        assert a.exit_code == 0
        assert a.report == b.report

    def test_census_bad_parameters(self):
        assert run(["census", "--rank", "3", "--size", "2", "--samples", "0",
                    "--seed", "9"]).exit_code == 2


class TestExportDot:
    def test_writes_dot(self, corpus, tmp_path):
        out = tmp_path / "g.dot"
        assert run(["export-dot", corpus["quad.json"], "-o", str(out)]).exit_code == 0
        assert out.read_text().count("--") == 8


class TestExitContract:
    def test_usage_error(self):
        assert run(["no-such-command"]).exit_code == 2

    def test_corpus_contract(self, corpus):
        expected = {
            ("validate", "dipole.json"): 0,
            ("validate", "quad.json"): 0,
            ("validate", "tadpoleA.json"): 0,
            ("validate", "duplicate_color.json"): 1,
            ("validate", "dangling.json"): 1,
            ("validate", "unknown_format.json"): 2,
            ("validate", "malformed.json"): 2,
        }
        for (command, name), code in expected.items():
            assert run([command, corpus[name]]).exit_code == code, (command, name)

    def test_internal_fault_exits_3(self, corpus, monkeypatch):
        def fail(*_args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("tensorgraphs.checks.mo_admissibility", fail)
        result = run(["check", "mo", corpus["dipole.json"]])
        assert result.exit_code == 3
        assert result.report == (
            "internal error: RecursionError: maximum recursion depth exceeded")

    @pytest.mark.parametrize("argv, code, room", [
        (["faces", "dipole.json", "--json"], 0, 0),
        (["check", "mo", "tadpoleB.json"], 1, 0),
        (["faces", "large.json", "--json"], 0, cli._SLICE),
    ], ids=["faces-exit-0", "check-mo-exit-1", "faces-closed-mid-report"])
    def test_closed_stdout_keeps_exit_code(self, corpus, tmp_path, monkeypatch, capsys,
                                           argv, code, room):
        """A reader that closes the pipe early (``| head``) gets no traceback,
        and the command's own exit code survives.  The pipe takes ``room``
        characters first, so a report longer than one slice is cut in the
        middle."""
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        written = []

        class ClosedPipe:
            def write(self, text):
                if sum(map(len, written)) + len(text) > room:
                    raise BrokenPipeError(32, "Broken pipe")
                written.append(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        argv = [corpus.get(arg, arg) for arg in argv]
        monkeypatch.setattr(sys, "argv", ["tensorgraphs", *argv])
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        try:
            assert exit_.value.code == code == run(argv).exit_code
            assert capsys.readouterr().err == ""
            assert os.fstat(fd).st_rdev == os.stat(os.devnull).st_rdev  # later flushes are dropped
            assert "".join(written) == run(argv).report[:room]
        finally:
            os.close(fd)

    @pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
    def test_stdout_is_the_report(self, tmp_path, flags):
        """A report of several slices reaches stdout whole, with one newline."""
        labels = [f"\u00e9{i}" for i in range(2000)]  # non-ASCII in the text form
        g = random_colored(3, 1000, 7)._replace(whites=tuple(labels[:1000]),
                                                  blacks=tuple(labels[1000:]))
        path = tmp_path / "large.json"
        path.write_bytes(serialize_graph(g))
        argv = ["faces", str(path), *flags]
        report = run(argv).report
        assert len(report) > 2 * cli._SLICE
        src = str(Path(tensorgraphs.__file__).parents[1])
        out = subprocess.run([sys.executable, "-m", "tensorgraphs.cli", *argv], capture_output=True,
                             check=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"})
        assert out.stdout == (report + "\n").encode() and out.stderr == b""


def test_stranded_expansion_document_usable(tmp_path, quad):
    path = tmp_path / "quad_stranded.json"
    path.write_bytes(serialize_graph(to_stranded(quad)))
    payload = json.loads(run(["faces", str(path), "--json"]).report)
    assert payload["count"] == 8
    assert run(["check", "colorable", str(path)]).exit_code == 0
