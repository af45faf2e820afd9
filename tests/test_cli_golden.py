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


ESCAPED = ['q"1', "b\\2", "é3", "w10", "w9", 'Ω"\\', "a", 'z"']


def _escaped_colored(seed: int) -> ColoredGraph:
    """Rank-3 colored graph on the eight labels of ``ESCAPED``, which
    need JSON escaping and whose string order differs from their order
    of declaration."""
    g = random_colored(3, 4, seed)
    names = dict(zip((label for label, _parity in g.nodes()), ESCAPED))
    return ColoredGraph(3, tuple(names[w] for w in g.whites), tuple(names[b] for b in g.blacks),
                        g.matchings)


def _escaped_expansion(seed: int):
    """Untwisted rank-3 expansion of ``_escaped_colored(seed)``, vertices
    declared in shuffled order."""
    rng = random.Random(seed)
    g = _escaped_colored(seed)
    vertices = [(v, [f"{v}:{c}" for c in g.colors]) for v, _parity in g.nodes()]
    rng.shuffle(vertices)
    return build_stranded(3, vertices, [
        ((f"{e.white}:{e.color}", f"{e.black}:{e.color}"), None) for e in g.edges()])


def _escaped_twisted(seed: int):
    """Rank 4 on six labels that need JSON escaping, declared in shuffled
    order, half-edges paired at random, each edge glued by a random strand
    permutation."""
    rng = random.Random(seed)
    labels = rng.sample(ESCAPED, 6)
    halves = [f"{v}.{p}" for v in labels for p in range(5)]
    rng.shuffle(halves)
    return build_stranded(
        4, [(v, [f"{v}.{p}" for p in range(5)]) for v in labels],
        [((halves[i], halves[i + 1]), rng.sample(range(4), 4))
         for i in range(0, len(halves), 2)])


DOCUMENTS = {
    "rank2": lambda: random_colored(2, 12, 3),
    "rank2-disconnected": lambda: random_colored(2, 7, 0),
    "rank3": lambda: random_colored(3, 12, 5),
    "rank4": lambda: random_colored(4, 11, 8),
    "melonic": lambda: _melonic(12, 4),
    "adversarial-mo": lambda: make_tadpoles(3),
    "adversarial-colorable": lambda: make_dipoles(2),
    "pairing": lambda: _pairing(11, 72),
    "pairing-negative": lambda: _pairing(8, 16),
    "reread-rank3": lambda: reread(random_colored(3, 4, 6), 6),
    "reread-rank4": lambda: reread(random_colored(4, 3, 1), 1),
    "odd-cycle": lambda: dihedral_stranded(2, ["w1", "b1", "w2", "b2"], [
        (0, "w1", "b1"), (0, "w2", "b2"), (1, "w1", "w2"), (1, "b1", "b2"),
        (2, "w1", "b2"), (2, "b1", "w2")], 3),
    "escaped-colored": lambda: _escaped_colored(17),
    "escaped-rank3": lambda: _escaped_expansion(17),
    "escaped-rank4-twisted": lambda: _escaped_twisted(23),
    "empty-colored": lambda: ColoredGraph(3, (), (), ((),) * 4),
    "empty-stranded": lambda: build_stranded(3, [], []),
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
    ("escaped-colored", "bubbles"):
        "c6d68921910051438b87599a22481fb1db8d179d39672c9d07463d0afa373666",
    ("escaped-colored", "dual"):
        "83498af16141268580143af5d27f4073def4999d1caea37c593e69a7fa1364a6",
    ("escaped-colored", "faces"):
        "6733140d827367125ea068fbb56eb69d54eafab41843b63bc28e0152a2b2689c",
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
        "ceb52e80fc84378d354b3bff7eb890bed56ebce974c8b9d232a07a528b84cd2e",
    ("pairing", "check-colorable"):
        "27a6bae3e8bf5488ce655f3ac6071a6a9381d8b2015ebcedeeefef160cda56cc",
    ("pairing", "check-mo"):
        "d415257c212337d9f971454d720e45402b89fd2b114a1d77d0917f013d37076f",
    ("pairing", "check-mo-block"):
        "2da94fb453a88aa0ddc72d7aafb4ff6d65732d19a6e833b47bd5037fe7e2269d",
    ("pairing-negative", "check-mo"):
        "b0047468b3207e5c2573715d3a04a8b1ed4e34f04f66c94d317ab5f555269216",
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


STRANDED_COMMANDS = {
    "faces": ["faces", "{file}", "--json"],
    "faces-text": ["faces", "{file}"],
    "genus": ["genus", "{file}", "--json"],
    "validate": ["validate", "{file}", "--json"],
    "export-dot": ["export-dot", "{file}"],
    "check-mo": DECISION_COMMANDS["check-mo"],
    "check-colorable": DECISION_COMMANDS["check-colorable"],
}

STRANDED_GOLDEN = {
    ("adversarial-colorable", "faces"):
        "c232451b8739cd4f03cf196d4008cfa3967f7c5fbbb71bf5a0a655233dccdd9c",
    ("adversarial-colorable", "faces-text"):
        "49c26fe8127b7398a1e32c452252ed4806d4b8e7c0d57afc83cdf1966902e0e5",
    ("adversarial-mo", "faces"):
        "6be542dc113926c8788d1e582030d12b1bd3fd9a670716552e5e15621450acb1",
    ("adversarial-mo", "faces-text"):
        "3d039e9b4cd06889133f9a34ca5ff1398a782f7904334317ff16abffa57e00c0",
    ("escaped-rank3", "check-colorable"):
        "7ea159fba641e644b26945af2b27d6a688b1a33726944400d93fde6d19ca3734",
    ("escaped-rank3", "check-mo"):
        "c7caffb073ff834c6f3381dd039828bb8e72b13ffd7c3c2b424d50c344ad5cb1",
    ("escaped-rank3", "export-dot"):
        "616782861670f1a8c084392a59177e789d646237ebbe67c903ae1a7bc4096eba",
    ("escaped-rank3", "faces"):
        "30790557427c5e3b18e6d48b86b50d7fe366bc98bff19528244c766158faa319",
    ("escaped-rank3", "faces-text"):
        "b0d00cd3b5eff4e14330c8747b7c3adad022761193524e69856f13f58c3ba3e4",
    ("escaped-rank3", "validate"):
        "e8b71552785891f6dd86dd9e9a847718e8913371fae09834b2274ce88032da33",
    ("escaped-rank4-twisted", "check-colorable"):
        "cc74aea7c6b76d44a4923ae0f7b052b066de090d44bcaad2deca7d782621aa93",
    ("escaped-rank4-twisted", "check-mo"):
        "cbe9248a11fa9b6622007ed3e72bbc19f6f37bdd57fd1947664d1730dc5f9e52",
    ("escaped-rank4-twisted", "export-dot"):
        "790cb7f2762d7f8bdc1688ff6001e252e7fc7263c80fe97b72384e7b16092809",
    ("escaped-rank4-twisted", "faces"):
        "bc04f66730a33d66743246afc230115d6972b9bcb9ff235f6d46222a424362cc",
    ("escaped-rank4-twisted", "faces-text"):
        "53f99554e46962f5e37edd06961fe6d787fd5fa578de713ad5f7b347225a0f7a",
    ("escaped-rank4-twisted", "validate"):
        "e8b71552785891f6dd86dd9e9a847718e8913371fae09834b2274ce88032da33",
    ("odd-cycle", "faces"):
        "4ca593c48f0ace80bbc9419c1a45afe6709cc4c9581694cfae8a9bf3ba3ed291",
    ("odd-cycle", "faces-text"):
        "c119f011bf9efc8318946d2d2628d2e94a342c907ec1df2c5885537b0406c5a2",
    ("odd-cycle", "genus"):
        "764813ceb52e50baf8901c241e57013b4925b3eb4abe588da1790e9f3e6ae145",
    ("pairing", "faces"):
        "538dff999da69e44ccaca129b9f14550dfb9ad362269e7bba08a205996e64743",
    ("pairing", "faces-text"):
        "3c4f97665855714a47e4132d46a8e7d684de02376ddbbc444c044db22698a8cc",
    ("reread-rank3", "faces"):
        "591c78637b52bef4a1ae30750b9412b63001b2b7854186ae0465b5556d9e18af",
    ("reread-rank3", "faces-text"):
        "d9880373e797abe35f63afb184676642fcc3dc739b655a7680bcdec0cbb592a8",
    ("reread-rank4", "faces"):
        "6a108f093710c1490bddf31b438198cda89dfb2eded7c0068f397a606fb960c0",
    ("reread-rank4", "faces-text"):
        "75bd0acd146c473971ebe4092b95578b87085f53b7ebfc3fe9918896707afa43",
}


@pytest.mark.parametrize("doc, command", sorted(STRANDED_GOLDEN), ids=str)
def test_stranded_bytes(tmp_path, doc, command):
    path = tmp_path / f"{doc}.json"
    path.write_bytes(serialize_graph(DOCUMENTS[doc]()))
    argv = [arg.format(file=path) for arg in STRANDED_COMMANDS[command]]
    assert _digest(argv) == STRANDED_GOLDEN[(doc, command)]


WALK_COMMANDS = {
    "faces": STRANDED_COMMANDS["faces"],
    "faces-text": STRANDED_COMMANDS["faces-text"],
    "bubbles": ["bubbles", "{file}", "--json"],
    "bubbles-text": ["bubbles", "{file}"],
}

# reports rendered straight from the face and bubble walks, beyond the
# --json forms pinned above: text forms and empty graphs
WALK_GOLDEN = {
    ("empty-colored", "bubbles"):
        "1a07e201d214adca52c775995113acadf2bd9818bed9f1cb7d64bb4d72b40724",
    ("empty-colored", "bubbles-text"):
        "c3e2f886bd4190994b2be3fa95c25686d4761009b23acfbfedb9c0d023e123f8",
    ("empty-colored", "faces"):
        "6fb1cffd54cf2a9375e10653f40261f4fd7cb83077920c2d8534b3b20194f3c4",
    ("empty-colored", "faces-text"):
        "7cf43308378cc0961286d5f108e3c2522011e733d12f628df500db8223803099",
    ("empty-stranded", "faces"):
        "0ae0d597c31d17e72a8d7460ed3cde674dfee791ddf59aed401170dc977b584a",
    ("empty-stranded", "faces-text"):
        "7cf43308378cc0961286d5f108e3c2522011e733d12f628df500db8223803099",
    ("escaped-colored", "bubbles-text"):
        "b4dc728b5e03c4c564ccf58b9d9b4eb1fb6dd22e48774b40367c3b50cd98d816",
    ("escaped-colored", "faces-text"):
        "ebb20e1787c2082cd7720aa729eaf34fc03fd611e36ea401ebb7f394bf24e707",
    ("melonic", "bubbles-text"):
        "5133e9aef57d539ae02ba93c740836a26e76e684c9bbeae70fcac80fefa55535",
    ("melonic", "faces-text"):
        "c37f3c0c826dd56c5d363af8745a073fe20fdf5e1237afc713883aeb1b8436e3",
    ("rank2", "bubbles-text"):
        "a90985cde781eac7be6851effebfc629eec3fdab7a11bd66d9f0d493580690a1",
    ("rank2", "faces-text"):
        "5afa0d51334942f8cd9d404d1c5738cb187fc84c567515052707b0f08a57c4bb",
    ("rank2-disconnected", "bubbles-text"):
        "f89a51e62726395399a6ceaa9027e2c2e19f153988c5a0076728d98ccf00d4f9",
    ("rank2-disconnected", "faces-text"):
        "f99a1dbf3b5e5dc287cb716be70d71b5cea3ece24cb86630c8cccdbce570b70b",
    ("rank3", "bubbles-text"):
        "6bb02af215757a5608c3689ea1e1945da84eea219c12cecc89c2d9297fbfdc10",
    ("rank3", "faces-text"):
        "5938660a2fe94396330beab155ee14ffdabfdb00ff7d57fb7db93225a49ceca0",
    ("rank4", "bubbles-text"):
        "20202725206715af12e9572ea7f9bd99ad8ccb35324cbc64fd28f13e7b00456d",
    ("rank4", "faces-text"):
        "bc68a4d60f3c37fc3ea59678afe9ee42ceff3edf1102c28d0bb510da954350ef",
}


@pytest.mark.parametrize("doc, command", sorted(WALK_GOLDEN), ids=str)
def test_walk_report_bytes(tmp_path, doc, command):
    path = tmp_path / f"{doc}.json"
    path.write_bytes(serialize_graph(DOCUMENTS[doc]()))
    argv = [arg.format(file=path) for arg in WALK_COMMANDS[command]]
    assert _digest(argv) == WALK_GOLDEN[(doc, command)]
