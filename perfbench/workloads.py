"""The benchmark's workloads: seeded inputs, the job each one runs, and the
checks that decide whether a job's output is correct.

Importing this module does not import ``anick``; the worker imports the
engine itself so that the import is part of the measured set-up time.
Checks use closed-form answers wherever one exists instead of asking the
engine a second time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# The checkout the benchmark sits in, and where runs leave their files.
ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_results"

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Worked example of the paper: k<x, y, z | x^2 + yx, xz, zy>, x > y > z.
XYZ_RELATIONS = ("{x}^2 + {y}*{x}", "{x}*{z}", "{z}*{y}")

# Exact counts of the xyz Betti job: the roadmap's baseline at D=12 (2.2%
# fill), and D=11, where the workloads run.
XYZ_D12_ANCHORS = {
    "groebner.basis_size": 13,
    "chains.count": 3587,
    "automaton.states": 13,
    "homology.matrix_entries": 697238,
    "homology.matrix_nnz": 15107,
}
XYZ_D11_ANCHORS = {
    "groebner.basis_size": 12,
    "chains.count": 1795,
    "automaton.states": 12,
    "homology.matrix_entries": 181918,
    "homology.matrix_nnz": 6659,
}

# Generic four-generator quadratic algebra; its Hilbert series is 1/(1-2t)^2.
G4_LETTERS = "abcd"
G4_RELATIONS = (
    "{a}*{b} - {b}*{a} + {c}*{d}",
    "{a}*{c} - 2*{d}*{b}",
    "{b}*{d} + {a}^2 - {c}^2",
    "{d}*{a} - {b}*{c}",
)

CLI_COMMANDS = (
    "gb", "chains", "resolution", "betti", "koszul", "dual", "hilbert", "gldim", "graph",
)

# sha256 of each cli-sweep output on example.alg at the default degree 8:
# the payload as the report renders it for JSON commands, the DOT text for
# graph.
CLI_DIGESTS = {
    "gb": "a02f92e82b49c9f470da93782f07dba30dc8380c34ccc4478ae920559dab765a",
    "chains": "26dfd4116e58d8f6b618c9198e63de77278f8589da304e34b26959562db1f9a2",
    "resolution": "7237b891760b15e32eb068aac561e776e92db5945ed88db6bb5f4e4c25264e09",
    "betti": "c11c36158f3638610617e4d11cc449a45ec9d3d59f8d0f3a9f6a3f5dc0955be8",
    "koszul": "23b55435b7804fa748cf74b1827841546ccf0bcf28eaca0f78b5a00e07e52598",
    "dual": "65709ded8f3010cee47878a62d62ea67e5aad41d9c045d6f8f88d4291827b84c",
    "hilbert": "eea8ff644330c83d1423ed51f803e48affa4a1cad3900ec1cbef7efc897298ef",
    "gldim": "7907384b28862459b36a35f415ce79603ff2c3a28fbd8dd2939a911b279bcdec",
    "graph": "ce763e2af0a92324e1ba8a8a7a1325b2cfb8dfa73848923b214037738d68ea83",
}

GLDIM_GOLDEN = Path("tests") / "golden" / "gldim_xyz_payload.json"


def input_path(name: str, seed: int) -> Path:
    """Where a run writes the presentation a workload's workers read."""
    return RESULTS / "inputs" / f"{name}-seed{seed}.alg"


class CheckFailure(Exception):
    """A job returned, but its output is wrong."""


def _presentation_text(order: list[str], field_name: str, relations: list[str]) -> str:
    lines = ["vars: " + " > ".join(order), f"field: {field_name}", "relations:"]
    lines += ["  " + r for r in relations]
    return "\n".join(lines) + "\n"


def relabelled_presentation(
    letters: str, pool: str, relations: tuple[str, ...], field_name: str, seed: int
) -> str:
    """The presentation with its letters renamed by a seeded permutation.

    New names are drawn from ``pool``.  The precedence follows the
    renaming, so every seed gives an ordered presentation isomorphic to the
    seed-0 one (which keeps the original names): the text, the names and
    the precedence among them change, the computation's cost does not.
    Relation order is shuffled as well.
    """
    rng = random.Random(seed)
    names = list(letters)
    if seed != 0:
        names = rng.sample(pool, len(letters))
    mapping = dict(zip(letters, names))
    rels = [r.format(**mapping) for r in relations]
    if seed != 0:
        rng.shuffle(rels)
    return _presentation_text(names, field_name, rels)


# ---------------------------------------------------------------- checks


def expected_betti_diagonal(degree: int) -> list[int]:
    diag = [1, 3, 3, 2, 1]
    return (diag + [0] * (degree + 1))[: degree + 1]


def check_betti_values(values: list[list[int]], degree: int) -> None:
    """The xyz table: 1, 3, 3, 2, 1 on the diagonal, zero elsewhere."""
    diag = expected_betti_diagonal(degree)
    if len(values) != degree + 1 or any(len(row) != degree + 1 for row in values):
        raise CheckFailure(f"betti table is not {degree + 1} x {degree + 1}")
    for i, row in enumerate(values):
        for j, v in enumerate(row):
            want = diag[i] if i == j else 0
            if v != want:
                raise CheckFailure(f"betti[{i}][{j}] = {v}, expected {want}")


def expected_xyz_basis(degree: int) -> set[frozenset]:
    """xz, zy and x y^k x + y^(k+1) x for 2 + k <= degree, as index words.

    Letters are indices in precedence order (x = 0, y = 1, z = 2), and
    every coefficient is one, so the set is the same over Q and Fp.
    """
    x, y, z = 0, 1, 2
    basis = {frozenset({((x, z), "1")}), frozenset({((z, y), "1")})}
    for k in range(0, degree - 1):
        basis.add(frozenset({((x,) + (y,) * k + (x,), "1"), ((y,) * (k + 1) + (x,), "1")}))
    return basis


def check_xyz_basis(elements, degree: int) -> None:
    got = {frozenset((w, str(c)) for w, c in g.terms.items()) for g in elements}
    if len(got) != len(elements) or got != expected_xyz_basis(degree):
        raise CheckFailure(f"xyz basis has {len(elements)} elements, not the closed form")


def normal_word_counts(leading_words, size: int, max_deg: int) -> list[int]:
    """Count words of each length with no leading word as a factor.

    Brute force over all words, independent of the engine's automaton.
    """
    forbidden = ["".join(chr(65 + i) for i in w) for w in leading_words]
    counts = [1]
    layer = [""]
    for _ in range(max_deg):
        layer = [
            u for u in (w + chr(65 + i) for w in layer for i in range(size))
            if not any(u.endswith(f) for f in forbidden)
        ]
        counts.append(len(layer))
    return counts


def expected_g4_hilbert(max_deg: int) -> list[int]:
    """Coefficients of 1/(1-2t)^2: (n + 1) 2^n."""
    return [(n + 1) * 2 ** n for n in range(max_deg + 1)]


def check_hilbert(coefficients: list[int], max_deg: int) -> None:
    want = expected_g4_hilbert(max_deg)
    if coefficients != want:
        raise CheckFailure(f"hilbert coefficients {coefficients}, expected {want}")


PAYLOAD_START = '\n  "payload": '
PAYLOAD_END = ',\n  "timing": '


def cli_output_digest(command: str, out: str) -> str:
    """Digest of the output without its timing.

    The payload is cut from the rendered report rather than parsed, so
    checking the 9 MB ``resolution`` report adds little to peak memory.
    """
    text = out
    if command != "graph":
        start, end = out.find(PAYLOAD_START), out.rfind(PAYLOAD_END)
        if start < 0 or end < start:
            raise CheckFailure(f"{command} did not print a JSON report")
        text = out[start + len(PAYLOAD_START):end]
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli_output(
    command: str, code: int, out: str, golden_gldim: str, err: str = ""
) -> None:
    if code != 0:
        raise CheckFailure(f"{command} exited {code}: {err.strip()}")
    if cli_output_digest(command, out) != CLI_DIGESTS[command]:
        raise CheckFailure(f"{command} output differs from its pinned digest")
    if command == "gldim":
        payload = json.loads(out)["payload"]
        if json.dumps(payload, indent=2) + "\n" != golden_gldim:
            raise CheckFailure("gldim payload differs from the golden file")


# ------------------------------------------------------------- workloads


@dataclass
class Job:
    """One timed unit of work and the check for what it returned."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    params: dict = field(default_factory=dict)
    # Exact per-layer counts a traced run must reproduce.
    anchors: dict = field(default_factory=dict)

    def input_text(self, seed: int) -> str:
        raise NotImplementedError

    def prepare(self, anick, path: Path, seed: int):
        """Read and parse the input; the result is passed to ``round``."""
        return anick.parse_presentation(path.read_text(encoding="utf-8"))

    def round(self, anick, state) -> list[Job]:
        """The jobs of one round; per-layer counts are taken per round."""
        raise NotImplementedError


class GroebnerG4(Workload):
    def input_text(self, seed):
        return relabelled_presentation(G4_LETTERS, G4_LETTERS, G4_RELATIONS, "Q", seed)

    def round(self, anick, presentation):
        degree = self.params["max_deg"]

        def check(gb):
            counts = normal_word_counts(gb.obstructions, presentation.alphabet.size, degree)
            check_hilbert(counts, degree)

        return [Job("complete", lambda: anick.complete(presentation, degree), check)]


class BettiXYZ(Workload):
    def input_text(self, seed):
        return relabelled_presentation("xyz", LETTERS, XYZ_RELATIONS, self.params["field"], seed)

    def round(self, anick, presentation):
        degree = self.params["max_deg"]

        def run():
            gb = anick.complete(presentation, degree)
            ctx = anick.ResolutionContext(gb, level_max=degree, deg_max=degree)
            return gb, anick.betti_table(presentation, degree, degree, ctx=ctx)

        def check(result):
            gb, table = result
            check_xyz_basis(gb.elements, degree)
            check_betti_values(table.values, degree)

        return [Job("betti", run, check)]


@dataclass
class CliState:
    input_path: Path
    order: list[str]
    golden_gldim: str


class CliSweep(Workload):
    def input_text(self, seed):
        return (ROOT / "example.alg").read_text(encoding="utf-8")

    def prepare(self, anick, path, seed):
        anick.parse_presentation(path.read_text(encoding="utf-8"))
        order = list(CLI_COMMANDS)
        random.Random(seed).shuffle(order)
        golden = (ROOT / GLDIM_GOLDEN).read_text(encoding="utf-8")
        return CliState(path, order, golden)

    def round(self, anick, state):
        def job(command):
            def run():
                buf, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    code = anick.cli.main([command, "--input", str(state.input_path)])
                return code, buf.getvalue(), err.getvalue()

            def check(result):
                code, out, err = result
                check_cli_output(command, code, out, state.golden_gldim, err)

            return Job(command, run, check)

        return [job(command) for command in state.order]


# Why each workload was chosen is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        GroebnerG4(
            "gb-g4",
            {"algebra": "g4", "max_deg": 6, "field": "Q"},
            {"groebner.basis_size": 43},
        ),
        BettiXYZ(
            "betti-xyz",
            {"algebra": "xyz", "max_deg": 11, "field": "Q"},
            XYZ_D11_ANCHORS,
        ),
        BettiXYZ(
            "betti-xyz-fp",
            {"algebra": "xyz", "max_deg": 11, "field": "Fp 32003"},
            XYZ_D11_ANCHORS,
        ),
        CliSweep(
            "cli-sweep",
            {"input": "example.alg", "max_deg": 8, "commands": list(CLI_COMMANDS)},
        ),
    )
}
