"""The package namespace loads submodules on first use, and each CLI
command imports only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorgraphs
from tensorgraphs import checks, cli, random_colored, serialize_graph, to_stranded

# every name the package exported when it imported all submodules eagerly
PUBLIC_NAMES = [
    "Bubble", "BubbleCensus", "BubbleRecord", "bubble_census", "bubble_ribbon",
    "enumerate_bubbles",
    "ALTERNATING", "BLOCK", "ColorabilityResult", "MoObstruction", "MoResult", "SignAssignment",
    "SignPattern", "colorability", "colored_mo_witness", "is_untwisted", "mo_admissibility",
    "stranded_same_structure", "verify_sign_assignment",
    "BLACK", "WHITE", "ColoredEdge", "ColoredGraph", "Component", "HalfEdgeRef", "StrandSlot",
    "StrandedEdge", "StrandedGraph", "StrandedVertex", "ValidationReport", "Violation",
    "build_colored", "build_stranded", "components", "stranded_components", "to_stranded",
    "validate_colored",
    "DualComplexCounts", "complex_euler", "dual_counts",
    "export_dot", "parse_graph", "serialize_graph",
    "GENERATOR_ID", "CensusReport", "SplitMix64", "census", "random_colored",
    "random_connected", "subseed",
    "FaceSet", "RibbonCounts", "bicolored_face_count", "bicolored_faces",
    "euler_characteristic", "genus", "is_planar", "pair_cycle_count", "ribbon_counts",
    "trace_faces",
    "errors",
]

COMPUTE_MODULES = [f"tensorgraphs.{m}" for m in
                   ("core", "topology", "bubbles", "dual", "checks", "sampling", "formats",
                    "render")]

# runs in a fresh interpreter: import the CLI, run argv (if any) in-process,
# print the names of the loaded modules
LOADED = """
import json, sys
from tensorgraphs import cli
code = cli.run(sys.argv[1:]).exit_code if sys.argv[1:] else 0
print(json.dumps([code, sorted(sys.modules)]))
"""


def _loaded_after(argv: list[str]) -> set[str]:
    src = str(Path(tensorgraphs.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src}).stdout
    code, modules = json.loads(out.splitlines()[-1])  # after any report argparse prints
    assert code == 0
    return set(modules)


def test_all_is_the_eager_export_list():
    assert tensorgraphs.__all__ == PUBLIC_NAMES


def test_names_are_the_submodule_objects():
    for name in PUBLIC_NAMES[:-1]:
        module = tensorgraphs._HOME[name]
        assert getattr(tensorgraphs, name) is getattr(getattr(tensorgraphs, module), name)
    assert tensorgraphs.errors is sys.modules["tensorgraphs.errors"]


def test_dir_and_unknown_attribute():
    assert set(PUBLIC_NAMES) <= set(dir(tensorgraphs))
    with pytest.raises(AttributeError, match="no_such_name"):
        tensorgraphs.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from tensorgraphs import no_such_name  # noqa: F401


def test_pattern_choices_match_checks():
    parser = cli._build_parser()
    check = parser._subparsers._group_actions[0].choices["check"]
    mo = check._subparsers._group_actions[0].choices["mo"]
    pattern = next(action for action in mo._actions if action.dest == "pattern")
    assert list(pattern.choices) == sorted(checks.PATTERNS)


def test_cli_import_loads_no_compute_module():
    loaded = _loaded_after([])
    assert loaded.isdisjoint([*COMPUTE_MODULES, "multiprocessing", "fractions"])


def test_stranded_faces_loads_no_decision_or_sampling(tmp_path):
    path = tmp_path / "stranded.json"
    path.write_bytes(serialize_graph(to_stranded(random_colored(3, 5, 1))))
    loaded = _loaded_after(["faces", str(path), "--json"])
    assert {"tensorgraphs.formats", "tensorgraphs.topology"} <= loaded
    assert loaded.isdisjoint(["tensorgraphs.checks", "tensorgraphs.sampling",
                              "tensorgraphs.bubbles", "tensorgraphs.dual"])


def test_check_mo_loads_no_sampling(tmp_path):
    path = tmp_path / "colored.json"
    path.write_bytes(serialize_graph(random_colored(3, 5, 1)))
    loaded = _loaded_after(["check", "mo", str(path)])
    assert "tensorgraphs.checks" in loaded
    assert loaded.isdisjoint(["tensorgraphs.sampling", "tensorgraphs.bubbles",
                              "tensorgraphs.dual", "multiprocessing", "fractions"])


SERIAL_CENSUS = ["census", "--rank", "3", "--size", "3", "--samples", "5", "--seed", "1",
                 "--jobs", "1"]


def test_serial_census_loads_no_multiprocessing():
    loaded = _loaded_after(SERIAL_CENSUS)
    assert "tensorgraphs.sampling" in loaded
    assert "multiprocessing" not in loaded


def test_census_loads_no_bubbles_or_topology():
    # the census takes bubble genera from core's orbit counts
    loaded = _loaded_after(SERIAL_CENSUS)
    assert loaded.isdisjoint(["tensorgraphs.bubbles", "tensorgraphs.topology"])


@pytest.mark.parametrize("argv", [
    ["--version"], ["validate", "{}"], ["faces", "{}", "--json"], ["bubbles", "{}", "--json"],
    ["dual", "{}", "--json"], ["check", "mo", "{}", "--json"],
    ["check", "colorable", "{}", "--json"], SERIAL_CENSUS,
    ["random", "--rank", "3", "--size", "5", "--seed", "1"],
], ids=["version", "validate", "faces", "bubbles", "dual", "check-mo", "check-colorable",
        "census", "random"])
def test_commands_load_no_dataclasses_or_inspect(tmp_path, argv):
    # records are NamedTuples; dataclasses would pull in inspect, ast and dis
    path = tmp_path / "colored.json"
    path.write_bytes(serialize_graph(random_colored(3, 5, 1)))
    loaded = _loaded_after([arg.format(path) for arg in argv])
    assert loaded.isdisjoint(["dataclasses", "inspect"])
