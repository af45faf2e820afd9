"""Workload inputs, CLI operations and the checks on their outputs.

A workload is a list of rounds; a round is a list of CLI operations.
Inputs are generated here from the workload seed and written as
documents, so the program sees only files and flags.  Every operation
carries its own output check, built on ``reference`` and never on the
package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

CENSUS_SIZE = 50
CENSUS_SAMPLES = 1000
MELONIC_SIZES = (100, 300, 1000)
STRANDED_SIZES = (100, 300, 600)
ADVERSARIAL_TADPOLES = 14
ADVERSARIAL_DIPOLES = 4

# Failures present at the commit that introduced the benchmark.  An op
# named here may fail only in the recorded way (exit 1, the named error
# on stderr); it still counts as failed.  Median op wall times of the
# adversarial members at that commit (2 vCPUs, Python 3.11) are recorded
# too; runs report them beside the measured medians, so fixes show as
# expected movement.
KNOWN_DEFECTS = {
    "check mo random-600": "RecursionError",
    "check colorable random-600": "RecursionError",
}
BASELINE_TIMINGS_S = {
    "check mo adversarial-mo": 0.21,
    "check colorable adversarial-colorable": 0.26,
}

Check = Callable[[int, bytes], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI process: ``args`` after the program name, and a check that
    returns None when (exit code, stdout) is right, else the reason."""

    name: str
    args: tuple[str, ...]
    check: Check

    @property
    def known_defect(self) -> str | None:
        return KNOWN_DEFECTS.get(self.name)


def _json(stdout: bytes) -> dict:
    return json.loads(stdout.decode("utf-8"))


def _require(condition: bool, message: str) -> None:
    """Self-check of the generated inputs against the reference."""
    if not condition:
        raise RuntimeError(message)


def _expect(exit_code: int, want: int, reason: str | None) -> str | None:
    if exit_code != want:
        return f"exit code {exit_code}, expected {want}"
    return reason


# -- checks on colored documents -------------------------------------------------

def check_validate(exit_code: int, stdout: bytes) -> str | None:
    return _expect(exit_code, 0, None if stdout == b"valid\n" else "not reported valid")


def colored_faces_check(sigma: list[list[int]]) -> Check:
    n = len(sigma[0])
    edges = {(c, f"w{i}", f"b{sigma[c][i]}") for c in range(4) for i in range(n)}
    lengths = {p: sorted(2 * length for _s, length in ref.cycle_starts(perm))
               for p, perm in ref.all_pairs(sigma).items()}
    expected = sum(len(v) for v in lengths.values())

    def check(exit_code: int, stdout: bytes) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        report = _json(stdout)
        if report["mode"] != "colored" or report["count"] != expected:
            return f"face count {report['count']}, expected {expected}"
        if len(report["faces"]) != expected:
            return "face list length differs from count"
        seen: dict[tuple[int, int], list[int]] = {p: [] for p in lengths}
        used = set()
        for face in report["faces"]:
            cycle = [(e["color"], e["white"], e["black"]) for e in face["edges"]]
            pair = tuple(face["colors"])
            if pair not in seen or face["length"] != len(cycle):
                return f"bad face header {face['colors']} length {face['length']}"
            for t, e in enumerate(cycle):
                nxt = cycle[(t + 1) % len(cycle)]
                shared = e[2] == nxt[2] if t % 2 == 0 else e[1] == nxt[1]
                if e not in edges or (pair, e) in used or e[0] != pair[t % 2] or not shared:
                    return f"face {cycle[:2]}... is not an alternating cycle"
                used.add((pair, e))
            seen[pair].append(len(cycle))
        if any(sorted(v) != lengths[p] for p, v in seen.items()):
            return "cycle lengths differ from the orbits of sigma_b^-1 sigma_a"
        return None

    return check


def bubbles_check(sigma: list[list[int]]) -> Check:
    expected = {
        (b["colors"], frozenset([f"w{i}" for i in b["whites"]] + [f"b{j}" for j in b["blacks"]])):
            (b["v"], b["e"], b["f"])
        for b in ref.bubbles(sigma, 3)
    }

    def check(exit_code: int, stdout: bytes) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        report = _json(stdout)
        records = report["records"]
        got = {(tuple(r["colors"]), frozenset(r["vertices"])): (r["v"], r["e"], r["f"])
               for r in records}
        if len(records) != len(expected) or got != expected:
            return "bubbles differ from the orbits over color triples"
        if [tuple(r["colors"]) for r in records] != sorted(tuple(r["colors"]) for r in records):
            return "color subsets out of lexicographic order"
        histogram: dict[int, int] = {}
        for r in records:
            chi = r["v"] - r["e"] + r["f"]
            if r["chi"] != chi or r["genus"] != (2 - chi) // 2 or r["planar"] != (r["genus"] == 0):
                return f"record {r['colors']} has inconsistent chi/genus"
            histogram[r["genus"]] = histogram.get(r["genus"], 0) + 1
        if (report["total"] != len(records) or report["planar_count"] != histogram.get(0, 0)
                or report["genus_histogram"] != {str(k): histogram[k] for k in sorted(histogram)}):
            return "aggregates differ from the records"
        return None

    return check


def dual_check(sigma: list[list[int]]) -> Check:
    n = len(sigma[0])
    want = {"tetrahedra": 2 * n, "triangles": 4 * n,
            "segments": ref.face_count(sigma), "points": len(ref.bubbles(sigma, 3))}
    want["euler"] = want["points"] - want["segments"] + want["triangles"] - want["tetrahedra"]

    def check(exit_code: int, stdout: bytes) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        report = _json(stdout)
        got = {k: report[k] for k in want}
        return None if got == want else f"dual counts {got}, expected {want}"

    return check


# -- checks on stranded documents ------------------------------------------------

def stranded_faces_check(s: ref.Stranded) -> Check:
    edge = s.edge_involution()
    expected = s.face_count()

    def check(exit_code: int, stdout: bytes) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        report = _json(stdout)
        if report["mode"] != "stranded" or report["count"] != expected:
            return f"face count {report['count']}, expected {expected}"
        if len(report["faces"]) != expected:
            return "face list length differs from count"
        seen = set()
        for face in report["faces"]:
            slots = [(x["vertex"], x["position"], x["slot"]) for x in face["slots"]]
            if face["length"] * 2 != len(slots):
                return "face length is not half its slot count"
            for t in range(0, len(slots), 2):
                cur, hop = slots[t], slots[t + 1]
                nxt = slots[(t + 2) % len(slots)]
                if edge.get(cur) != hop or nxt != (hop[0], hop[2], hop[1]):
                    return f"face through {cur} is not a strand circuit"
            seen.update(slots)
        if len(seen) != s.slot_count() or sum(len(f["slots"]) for f in report["faces"]) != len(seen):
            return "faces do not cover every slot exactly once"
        return None

    return check


def mo_check(s: ref.Stranded) -> Check:
    admissible = s.mo_alternating()

    def check(exit_code: int, stdout: bytes) -> str | None:
        report = _json(stdout) if exit_code in (0, 1) else {}
        if report.get("admissible") is not admissible:
            return f"admissible {report.get('admissible')}, expected {admissible} (exit {exit_code})"
        if admissible and not ref.mo_witness_ok(s, report):
            return "sign witness does not verify"
        return _expect(exit_code, 0 if admissible else 1, None)

    return check


def colorable_check(s: ref.Stranded) -> Check:
    colorable = s.colorable()

    def check(exit_code: int, stdout: bytes) -> str | None:
        report = _json(stdout) if exit_code in (0, 1) else {}
        if report.get("colorable") is not colorable:
            return f"colorable {report.get('colorable')}, expected {colorable} (exit {exit_code})"
        if colorable and not ref.coloring_witness_ok(s, report["witness"]):
            return "coloring witness does not verify"
        return _expect(exit_code, 0 if colorable else 1, None)

    return check


# -- documents -------------------------------------------------------------------

def rng_for(workload: str, seed: int, what: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{what}")


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def melonic_matchings(n: int, rng: random.Random) -> list[list[int]]:
    """All four matchings equal one permutation: n dipoles."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [list(perm) for _ in range(4)]


def uniform_matchings(n: int, rng: random.Random) -> list[list[int]]:
    out = []
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(perm)
    return out


def adversarial_mo() -> dict:
    """Admissible one-vertex tadpoles (cyclic neighbours paired), then one
    tadpole pairing opposite corners, which no rotation signs, sorted last."""
    vertices, edges = [], []
    members = [(f"a{i:02d}", ((0, 1), (2, 3))) for i in range(ADVERSARIAL_TADPOLES)]
    for label, pairs in members + [("z", ((0, 2), (1, 3)))]:
        vertices.append({"id": label, "halfedges": [f"{label}:{p}" for p in range(4)]})
        edges += [{"halfedges": [f"{label}:{a}", f"{label}:{b}"]} for a, b in pairs]
    return {"format": "stranded-tensor-graph", "version": 1, "rank": 3,
            "vertices": vertices, "edges": edges}


def adversarial_colorable() -> dict:
    """Dipoles, then one dipole with a strand twist on one edge, sorted last."""
    vertices, edges = [], []
    labels = [f"d{i}" for i in range(ADVERSARIAL_DIPOLES)] + ["t"]
    for label in labels:
        for side in "bw":
            v = f"{label}{side}"
            vertices.append({"id": v, "halfedges": [f"{v}:{c}" for c in range(4)]})
        for c in range(4):
            edge = {"halfedges": [f"{label}w:{c}", f"{label}b:{c}"]}
            if label == "t" and c == 0:
                edge["strand_permutation"] = [1, 0, 2]
            edges.append(edge)
    return {"format": "stranded-tensor-graph", "version": 1, "rank": 3,
            "vertices": vertices, "edges": edges}


# -- workloads -------------------------------------------------------------------

class Workload:
    """Rounds of CLI ops; ``round(i)`` is the i-th round.

    A run is as many whole rounds as fit in its seconds, but at least
    ``min_rounds`` and at most ``max_rounds``.  The bounds keep the op
    count in a range where "the highest percentile with at least 10 ops
    beyond it" falls on the same op of a mixed round whatever the
    machine's speed, and give single-op rounds a true tail.
    """

    name = ""
    min_rounds = 11
    max_rounds: int | None = None

    def __init__(self, seed: int, workdir: Path, tool_version: str):
        self.seed = seed
        self.workdir = workdir
        self.tool_version = tool_version

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError


def census_op(name: str, seed: int, jobs: int, samples: int, tool_version: str) -> Op:
    """A census whose report must equal the recomputed one byte for byte,
    which also makes reports identical for every --jobs value."""
    args = ("census", "--rank", "3", "--size", str(CENSUS_SIZE), "--samples", str(samples),
            "--seed", str(seed), "--jobs", str(jobs), "--json")

    def check(exit_code: int, stdout: bytes) -> str | None:
        want = ref.json_report(tool_version, ref.census_payload(3, CENSUS_SIZE, samples, seed))
        return _expect(exit_code, 0, None if stdout == want else "census report differs")

    return Op(name, args, check)


def melonic_ops(label: str, sigma: list[list[int]], workdir: Path) -> list[Op]:
    """The checks compare with orbit counts; these match the melonic closed
    forms: 6n faces, 4n bubbles all with V=2, E=3, F=3 (genus 0), hence
    the dual f-vector (2n, 4n, 6n, 4n) with Euler characteristic 0."""
    n = len(sigma[0])
    found = ref.bubbles(sigma, 3)
    _require(ref.face_count(sigma) == 6 * n and len(found) == 4 * n
             and all((b["v"], b["e"], b["f"]) == (2, 3, 3) for b in found),
             "melonic orbit counts must match the closed forms")
    path = _write(workdir, label, ref.colored_document(sigma))
    return [
        Op(f"validate {label}", ("validate", path), check_validate),
        Op(f"faces {label}", ("faces", path, "--json"), colored_faces_check(sigma)),
        Op(f"bubbles {label}", ("bubbles", path, "--json"), bubbles_check(sigma)),
        Op(f"dual {label}", ("dual", path, "--json"), dual_check(sigma)),
    ]


def stranded_ops(label: str, doc: dict, decisions: tuple[str, ...], workdir: Path) -> list[Op]:
    path = _write(workdir, label, doc)
    s = ref.Stranded(doc)
    ops = [
        Op(f"validate {label}", ("validate", path), check_validate),
        Op(f"faces {label}", ("faces", path, "--json"), stranded_faces_check(s)),
    ]
    if "mo" in decisions:
        ops.append(Op(f"check mo {label}", ("check", "mo", path, "--json"), mo_check(s)))
    if "colorable" in decisions:
        ops.append(Op(f"check colorable {label}", ("check", "colorable", path, "--json"),
                      colorable_check(s)))
    return ops


def random_stranded(n: int, rng: random.Random) -> dict:
    sigma = uniform_matchings(n, rng)
    doc = ref.stranded_expansion(sigma)
    _require(ref.Stranded(doc).face_count() == ref.face_count(sigma),
             "strand circuits of an expansion must equal its two-color cycles")
    return doc


class Census(Workload):
    """One census op per round, each on its own sub-seed of the workload seed."""

    jobs = 1

    def round(self, i: int) -> list[Op]:
        return [census_op(f"census seed-{i}", ref.subseed(self.seed, i), self.jobs,
                          CENSUS_SAMPLES, self.tool_version)]


class CensusSerial(Census):
    name = "census-serial"


class CensusParallel(Census):
    name = "census-parallel"
    jobs = 2


class Fixed(Workload):
    """The same documents and ops in every round.  With k ops per round,
    that percentile falls on the (k - ceil(11 / R))-th op type for R
    rounds, which is the same type for every R in 6..10."""

    min_rounds = 6
    max_rounds = 10

    def __init__(self, seed: int, workdir: Path, tool_version: str):
        super().__init__(seed, workdir, tool_version)
        self.ops = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def round(self, i: int) -> list[Op]:
        return self.ops


class AnalyzeMelonic(Fixed):
    name = "analyze-melonic"

    def build(self) -> list[Op]:
        return [op for n in MELONIC_SIZES for op in melonic_ops(
            f"melonic-{n}", melonic_matchings(n, rng_for(self.name, self.seed, f"n{n}")), self.workdir)]


class DecideStranded(Fixed):
    name = "decide-stranded"

    def build(self) -> list[Op]:
        ops = []
        for n in STRANDED_SIZES:
            doc = random_stranded(n, rng_for(self.name, self.seed, f"n{n}"))
            ops += stranded_ops(f"random-{n}", doc, ("mo", "colorable"), self.workdir)
        mo_doc, col_doc = adversarial_mo(), adversarial_colorable()
        _require(not ref.Stranded(mo_doc).mo_alternating(), "adversarial MO member must fail")
        _require(not ref.Stranded(col_doc).colorable(), "adversarial colorable member must fail")
        ops += stranded_ops("adversarial-mo", mo_doc, ("mo",), self.workdir)
        ops += stranded_ops("adversarial-colorable", col_doc, ("colorable",), self.workdir)
        return ops


class Coverage(Fixed):
    """Small ops touching every layer, appended to every traced pass so
    each layer has spans on every workload."""

    name = "coverage"

    def build(self) -> list[Op]:
        sigma = melonic_matchings(100, rng_for(self.name, self.seed, "melonic"))
        doc = random_stranded(100, rng_for(self.name, self.seed, "stranded"))
        return (melonic_ops("coverage-melonic-100", sigma, self.workdir)
                + stranded_ops("coverage-random-100", doc, ("mo", "colorable"), self.workdir)
                + [census_op("coverage census", ref.subseed(self.seed, 0), 1, 100,
                             self.tool_version)])


WORKLOADS = {w.name: w for w in (CensusSerial, CensusParallel, AnalyzeMelonic, DecideStranded)}


def classify(op: Op, exit_code: int | None, stdout: bytes, stderr: bytes,
             cache: dict) -> tuple[str, str | None]:
    """("ok" | "known" | "wrong" | "timeout", reason).  Identical outputs
    of one op are checked once."""
    if exit_code is None:
        return "timeout", "timed out"
    if op.known_defect and exit_code == 1 and op.known_defect.encode() in stderr:
        return "known", op.known_defect
    key = (op.name, exit_code, hashlib.sha256(stdout).digest())
    if key not in cache:
        try:
            cache[key] = op.check(exit_code, stdout)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as err:
            cache[key] = f"malformed output: {type(err).__name__}: {err}"
    reason = cache[key]
    return ("ok", None) if reason is None else ("wrong", reason)

