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

from tensorgraphs import ColoredGraph, random_colored, serialize_graph
from tensorgraphs.cli import run


def _melonic(n: int, seed: int) -> ColoredGraph:
    """All four matchings equal one permutation: n dipoles."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return ColoredGraph(
        3, tuple(f"w{i}" for i in range(n)), tuple(f"b{j}" for j in range(n)),
        (tuple(perm),) * 4)


DOCUMENTS = {
    "rank2": lambda: random_colored(2, 12, 3),
    "rank2-disconnected": lambda: random_colored(2, 7, 0),
    "rank3": lambda: random_colored(3, 12, 5),
    "rank4": lambda: random_colored(4, 11, 8),
    "melonic": lambda: _melonic(12, 4),
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
