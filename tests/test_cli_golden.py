"""Byte-level pins of CLI reports.

Each case runs ``cli.run`` on a document built here and compares the
sha256 of ``"<exit code>\\n<report>"`` with a recorded digest, so any
change to a report's bytes, to the order of its records, or to an exit
code shows up.  Labels run past ``w9`` so that string order and
declaration order of vertices differ.
"""

import hashlib
import random

import pytest

from tensorgraphs import ColoredGraph, build_stranded, random_colored, serialize_graph
from tensorgraphs.cli import run

from .conftest import dihedral_stranded, make_dipoles, make_tadpoles, reread


def _melonic(n: int, seed: int) -> ColoredGraph:
    """All four matchings equal one permutation: n dipoles."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return ColoredGraph(
        3, tuple(f"w{i}" for i in range(n)), tuple(f"b{j}" for j in range(n)),
        (tuple(perm),) * 4)


def _pairing(count: int, seed: int):
    """Rank-3 vertices with shuffled declaration order and half-edges
    paired at random, self-loops included, untwisted."""
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(count)]
    rng.shuffle(labels)
    halves = [f"{v}.{p}" for v in labels for p in range(4)]
    rng.shuffle(halves)
    return build_stranded(
        3, [(v, [f"{v}.{p}" for p in range(4)]) for v in labels],
        [((halves[i], halves[i + 1]), None) for i in range(0, len(halves), 2)])


DOCUMENTS = {
    "rank2": lambda: random_colored(2, 12, 3),
    "rank2-disconnected": lambda: random_colored(2, 7, 0),
    "rank3": lambda: random_colored(3, 12, 5),
    "rank4": lambda: random_colored(4, 11, 8),
    "melonic": lambda: _melonic(12, 4),
    "adversarial-mo": lambda: make_tadpoles(3),
    "adversarial-colorable": lambda: make_dipoles(2),
    "pairing": lambda: _pairing(11, 72),
    "reread-rank3": lambda: reread(random_colored(3, 4, 6), 6),
    "reread-rank4": lambda: reread(random_colored(4, 3, 1), 1),
    "odd-cycle": lambda: dihedral_stranded(2, ["w1", "b1", "w2", "b2"], [
        (0, "w1", "b1"), (0, "w2", "b2"), (1, "w1", "w2"), (1, "b1", "b2"),
        (2, "w1", "b2"), (2, "b1", "w2")], 3),
}

GRAPH_COMMANDS = {
    "faces": ["faces", "--json"],
    "bubbles": ["bubbles", "--json"],
    "bubbles-k1": ["bubbles", "--k", "1", "--json"],
    "bubbles-k2": ["bubbles", "--k", "2", "--json"],
    "bubbles-all": ["bubbles", "--k", "{colors}", "--json"],
    "dual": ["dual", "--json"],
    "genus": ["genus", "--json"],
}

CENSUS_COMMANDS = {
    "census-rank3": ["census", "--rank", "3", "--size", "6", "--samples", "30",
                     "--seed", "11", "--json"],
    "census-rank4": ["census", "--rank", "4", "--size", "4", "--samples", "20",
                     "--seed", "2", "--json"],
    "census-rank2": ["census", "--rank", "2", "--size", "9", "--samples", "20",
                     "--seed", "7", "--json"],
}

GOLDEN = {
    ("census", "census-rank2"):
        "2e7642a8618875e5a9f667eb18eb5e746e59d8b0fc14f822b2b4b609055d9e63",
    ("census", "census-rank3"):
        "7c6f1eddfef68e77ae23e8bb75431573077469e032e65a0a8450255a7d3c918a",
    ("census", "census-rank4"):
        "b19eaf1a41312148924ce7085c884144ddc9462e45603c9c7a8b889ecf52a59c",
    ("melonic", "bubbles"):
        "b02125fad9de009ef9efddd605274153fe69a32a14a93fae9c31f19e658c327c",
    ("melonic", "bubbles-all"):
        "a9df7ef03c25b794b820cdde4e1e67f08a2ec2412ff93f3aa4c7d5ec7095fe3b",
    ("melonic", "bubbles-k1"):
        "6ec69853deb41e72ceddb48fbc64e480bd277b4b9013360a4ab5986ca9fa0e17",
    ("melonic", "bubbles-k2"):
        "7132c9516e0bdf58d29fd0fa12c5773ea5d7fe2f0f632643f1c70995d15ca40a",
    ("melonic", "dual"):
        "b2b0933b842bceadc3da58be89c0b67e6a0043a9ecd3f532b68dec2266bc12c6",
    ("melonic", "faces"):
        "afc7d7297c00b1476507865829b0d06efc2ff31c9f69cfe8521a10afca2f86fb",
    ("rank2", "bubbles"):
        "3a41e214c22177832a31eaeee6b79a8a8a892c556bfeee93b955ff88f0deaf47",
    ("rank2", "bubbles-k1"):
        "a3110c34b2ffb93ab021179bfe3167262610f0449250bfd56d446ba885b6018d",
    ("rank2", "bubbles-k2"):
        "fd1a947d0bdde344d26576b4d05bf831939d51c24241b5619b61ce17dfbc79f3",
    ("rank2", "faces"):
        "9cb0de91978c368bf5c0afa306ac0f4c0bc366d90f596d53c3a7c39a9b7013cb",
    ("rank2", "genus"):
        "40e0957575df8df0c95469de4a95fabd610b796f234197a9db66ce13f2d38c2a",
    ("rank2-disconnected", "bubbles"):
        "93b9a2cef15d6a4b31bd06615b14acf6cc1426935323b1546879c65cdd18a1a0",
    ("rank2-disconnected", "genus"):
        "a8ee434eb14056544f3c9dc7471b3564f50c00492b682f8a055f280d4d60dbdd",
    ("rank3", "bubbles"):
        "30fa6e8b99807217ebcaa6cc59fc77a9bf2317ca94f6590eb1b68abd6741cdb7",
    ("rank3", "bubbles-all"):
        "0b71910b5e79a471c54be9e2df180ccf5735e64f518e691634a3d9679458b7b4",
    ("rank3", "bubbles-k1"):
        "b8d88599a4b29bb82c8543c2937d1d6a0617565426a9437bd3bf4f2a4c3b6803",
    ("rank3", "bubbles-k2"):
        "9e327a83de7b550b6e2ff44f029e87a6811f10da9cb60c40c3ec79572561b929",
    ("rank3", "dual"):
        "d7e770621bcae0e74b94cd3bd3c169c75a34f9c3166dc2a5d296962c17e8ff94",
    ("rank3", "faces"):
        "47001fe9ea0ccc43f7da8648cab7481ca167ab04b9d2279fc1de759a6a1c6406",
    ("rank4", "bubbles"):
        "3ae47a7b99cff5ce86a00dc1d0df50dd424f412989d032b1c6137ddef6b0d4a3",
    ("rank4", "bubbles-all"):
        "b3a04041c103593756779b2a80ac06e7da11f630296e6784e9fe40e2d9e1b71b",
    ("rank4", "bubbles-k2"):
        "be9ba8679ad34998da0173041e5baa48100f6ea9f3a66f3d66821ddacd02e3cc",
    ("rank4", "dual"):
        "3ad3ddb74387b8bd9fb2eeea66a75976ba30f62d61ea7362098dc834a4e90373",
    ("rank4", "faces"):
        "4a0849b31d6279c9edf112e4f6a477c125541280f10155a0bcd40ab62f1aaa90",
}


def _digest(argv: list[str]) -> str:
    result = run(argv)
    return hashlib.sha256(f"{result.exit_code}\n{result.report}".encode()).hexdigest()


@pytest.mark.parametrize("doc, command", sorted(GOLDEN), ids="-".join)
def test_report_bytes(tmp_path, doc, command):
    if doc == "census":
        argv = CENSUS_COMMANDS[command]
    else:
        g = DOCUMENTS[doc]()
        path = tmp_path / f"{doc}.json"
        path.write_bytes(serialize_graph(g))
        name, *flags = GRAPH_COMMANDS[command]
        flags = [f.format(colors=g.rank + 1) for f in flags]
        argv = [name, str(path), *flags]
    assert _digest(argv) == GOLDEN[(doc, command)]


DECISION_COMMANDS = {
    "check-mo": ["check", "mo", "{file}", "--json"],
    "check-mo-block": ["check", "mo", "{file}", "--pattern", "block", "--json"],
    "check-colorable": ["check", "colorable", "{file}", "--json"],
}

DECISION_GOLDEN = {
    ("adversarial-colorable", "check-colorable"):
        "08bff59b40329a8c4daba0b6921cb5833226c88029957cfa03d629e01f45b95d",
    ("adversarial-mo", "check-mo"):
        "bec9c3731785eba1e7b74e29774ed0e57ddf09040f6a8536f48a79570e501612",
    ("melonic", "check-colorable"):
        "9d0a35ab244e6dece9f35f813978979c0641551e2cc50ba683815aa643bd46cc",
    ("melonic", "check-mo"):
        "02e8aeca8a8dc2b978855e87fd484298ba132cee83bfc72754649d0a2eda4bb7",
    ("melonic", "check-mo-block"):
        "0ccf3aa2906a557a720db345b5da40e00314e542afe561ad6b0b1e6817713dc3",
    ("odd-cycle", "check-colorable"):
        "6b5d4b8bc24d0423649cbfd821a0d6ccd83947b60482056adeb3e4ea8a16e831",
    ("pairing", "check-colorable"):
        "27a6bae3e8bf5488ce655f3ac6071a6a9381d8b2015ebcedeeefef160cda56cc",
    ("pairing", "check-mo"):
        "d415257c212337d9f971454d720e45402b89fd2b114a1d77d0917f013d37076f",
    ("pairing", "check-mo-block"):
        "2da94fb453a88aa0ddc72d7aafb4ff6d65732d19a6e833b47bd5037fe7e2269d",
    ("rank2", "check-colorable"):
        "833dc9d28bfeecd9baec8f0036a0b53dbbea2f23deb0c58f62090012935a8cf8",
    ("rank3", "check-colorable"):
        "8dcf0801cb7dac166b476fb806102f07f8100f1121f52c422bacbb6b063ae2a3",
    ("rank3", "check-mo"):
        "02e8aeca8a8dc2b978855e87fd484298ba132cee83bfc72754649d0a2eda4bb7",
    ("rank3", "check-mo-block"):
        "0ccf3aa2906a557a720db345b5da40e00314e542afe561ad6b0b1e6817713dc3",
    ("rank4", "check-colorable"):
        "e39a29c1fee501315cfd37affb586a95b6efcf6b9e0ea9a0bd8defa4dbf82694",
    ("reread-rank3", "check-colorable"):
        "f2059e39c36f93c5fc95c45be3c5d1430debd1216d6bdaadb944deb9f331b5c3",
    ("reread-rank4", "check-colorable"):
        "ce9099c343dfe3f7016f824b4cbdb31cc31ac4153660454460c0372d23b6ca03",
}


@pytest.mark.parametrize("doc, command", sorted(DECISION_GOLDEN), ids=str)
def test_decision_bytes(tmp_path, doc, command):
    path = tmp_path / f"{doc}.json"
    path.write_bytes(serialize_graph(DOCUMENTS[doc]()))
    argv = [arg.format(file=path) for arg in DECISION_COMMANDS[command]]
    assert _digest(argv) == DECISION_GOLDEN[(doc, command)]
