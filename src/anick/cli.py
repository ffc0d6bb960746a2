"""Command-line interface.

Subcommands: gb, chains, resolution, betti, koszul, dual, hilbert, gldim,
graph.  Exit codes: 0 success, 1 input error, 2 when --require-certified
was given and the computation could not be certified at the requested
bound.

The betti, koszul and gldim commands compute the algebra's Betti data on
the cheapest letter precedence a probe at a lower degree finds; the
answers do not depend on the precedence, the size of the Anick
resolution does.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import cache, cached_property
from itertools import permutations
from pathlib import Path

from . import __version__
from .automaton import normal_word_automaton
from .chains import chain_graph, chain_graph_dot, enumerate_chains
from .dual import gldim_report, quadratic_dual
from .errors import AlgebraError, NotQuadraticError
from .fields import field_from_name
from .groebner import GroebnerBasis, Presentation, complete
from .homology import betti_table, koszul_verdict
from .parser import parse_presentation
from .poly import Polynomial
from .reports import (
    betti_payload,
    build_report,
    chains_payload,
    dual_payload,
    gb_payload,
    gldim_payload,
    graph_payload,
    hilbert_payload,
    koszul_payload,
    render_json,
    render_text,
    slices_payload,
)
from .resolution import ResolutionContext
from .words import Alphabet

# The precedence search: one probe completion per letter order, at
# probe_degree(D).  Below PROBE_MIN_DEGREE the probe's term counts do not
# tell the cheap orders from the costly ones (on a generic 4-letter
# algebra at D=6 the fewest terms at degree 3 go with three orders that
# run 5-10 times slower than the fastest), and
# above SEARCH_MAX_LETTERS letters the n! probes can cost more than the
# whole run (120 probes of a 5-letter algebra at degree 4 take 0.05-3 s).
PROBE_MIN_DEGREE = 4
SEARCH_MAX_LETTERS = 4


def probe_degree(max_deg: int) -> int:
    return (max_deg + 1) // 2


class CertificationFailure(Exception):
    """Raised when --require-certified cannot be honored."""


class Pipeline:
    """One invocation: the parsed input, its bounds and, at most once, its
    completion."""

    def __init__(self, args):
        field = field_from_name(args.field) if args.field else None
        # Every command completes at D but dual, which needs quadratic
        # relations, so a term above max(D, 2) can only fail later.
        path = args.input
        text = sys.stdin.read() if path is None else Path(path).read_text(encoding="utf-8")
        self.presentation = parse_presentation(text, field, max(args.max_deg, 2))
        self.alphabet = self.presentation.alphabet
        self.max_deg = args.max_deg
        # Koszul and gldim verdicts need every level up to D, so D is the
        # level bound they use and report.
        level_is_degree = args.max_level is None or args.command in ("koszul", "gldim")
        self.max_level = args.max_deg if level_is_degree else args.max_level
        self.require_certified = args.require_certified
        self.format = args.format
        self._bases: dict[tuple[str, ...], GroebnerBasis] = {}

    @cached_property
    def gb(self) -> GroebnerBasis:
        gb = self.basis(self.presentation)
        if self.require_certified and not gb.certificate.complete:
            raise CertificationFailure(
                f"basis is only {gb.certificate}; certified answer unavailable "
                f"at degree {self.max_deg}"
            )
        return gb

    @cached_property
    def betti_presentation(self) -> Presentation:
        """The presentation under the precedence the Betti data is
        computed on.

        Each letter order is completed at the probe degree.  A certified
        complete basis beats a truncated one, and then the basis with the
        fewest terms wins; ties go to the given order, then to the first
        in ``permutations`` order.  A certified winner's probe basis is its
        basis at D, so it is kept rather than completed again.
        """
        given = self.presentation
        letters = given.alphabet.letters
        probe = probe_degree(self.max_deg)
        if not (
            2 <= len(letters) <= SEARCH_MAX_LETTERS
            and probe >= max(PROBE_MIN_DEGREE, given.max_relation_degree())
        ):
            return given
        orders = [given] + [_reordered(given, p) for p in permutations(letters) if p != letters]
        bases = [complete(pres, probe) for pres in orders]
        best = min(
            bases,
            key=lambda gb: (not gb.certificate.complete, sum(len(g.terms) for g in gb.elements)),
        )
        if best.certificate.complete:
            self._bases.setdefault(
                best.presentation.alphabet.letters, replace(best, truncation_degree=self.max_deg)
            )
        return best.presentation

    def basis(self, presentation: Presentation) -> GroebnerBasis:
        """The completion at D of the input under one of its precedences,
        computed once."""
        letters = presentation.alphabet.letters
        gb = self._bases.get(letters)
        if gb is None:
            gb = self._bases[letters] = complete(presentation, self.max_deg)
        return gb


def _reordered(presentation: Presentation, letters: tuple[str, ...]) -> Presentation:
    """The same algebra with its letters in the precedence ``letters``."""
    index = [letters.index(name) for name in presentation.alphabet.letters]
    relations = tuple(
        Polynomial({tuple(index[i] for i in w): c for w, c in rel.terms.items()}, rel.p)
        for rel in presentation.relations
    )
    return Presentation(Alphabet(letters), presentation.field, relations)


def _chains(run: Pipeline) -> dict:
    chain_set = enumerate_chains(run.alphabet, run.gb.obstructions, run.max_level, run.max_deg)
    return chains_payload(chain_set)


def _betti_table(run: Pipeline, check_input: bool = True):
    # --require-certified checks the input's basis under the given
    # precedence, whichever one the Betti data is computed on; the gldim
    # command checks its dual's basis instead.
    if check_input and run.require_certified:
        run.gb  # raises CertificationFailure unless certified complete
    gb = run.basis(run.betti_presentation)
    ctx = ResolutionContext(gb, run.max_level, run.max_deg)
    return betti_table(gb.presentation, run.max_level, run.max_deg, ctx=ctx)


def _koszul(run: Pipeline) -> dict:
    if not run.presentation.is_quadratic:
        raise NotQuadraticError("Koszul verdicts need a quadratic presentation")
    return koszul_payload(koszul_verdict(_betti_table(run), run.max_deg))


def _hilbert(run: Pipeline) -> dict:
    gb = run.gb
    automaton = normal_word_automaton(run.alphabet, gb.obstructions, gb.valid_degree)
    return hilbert_payload(automaton.hilbert_coefficients(run.max_deg), gb.valid_degree)


def _gldim(run: Pipeline) -> dict:
    # gldim_report checks this too, but only after the Betti job.
    if not run.presentation.is_quadratic:
        raise NotQuadraticError("global-dimension report needs a quadratic presentation")
    report = gldim_report(run.presentation, run.max_deg, _betti_table(run, check_input=False))
    # The dual verdict is conditional exactly when its basis is truncated.
    if run.require_certified and not report.dual_certificate.complete:
        raise CertificationFailure(
            "dual basis is not certified complete; the top degree is "
            "not exact at this bound"
        )
    return gldim_payload(report)


def _graph(run: Pipeline) -> dict | str:
    """The DOT text itself under --format dot, a payload otherwise."""
    graph = chain_graph(run.alphabet, run.gb.obstructions)
    return chain_graph_dot(graph) if run.format == "dot" else graph_payload(graph)


# Each command's payload builder.  Builders look the engine and report
# functions up in this module when they run, where perfbench/tracer.py
# wraps them.
PAYLOADS = {
    "gb": lambda run: gb_payload(run.gb),
    "chains": _chains,
    "resolution": lambda run: slices_payload(
        run.alphabet, ResolutionContext(run.gb, run.max_level, run.max_deg).slices()
    ),
    "betti": lambda run: betti_payload(_betti_table(run)),
    "koszul": _koszul,
    "dual": lambda run: dual_payload(quadratic_dual(run.presentation)),
    "hilbert": _hilbert,
    "gldim": _gldim,
    "graph": _graph,
}
COMMANDS = tuple(PAYLOADS)
# The commands whose Betti data is computed on Pipeline.betti_presentation.
BETTI_COMMANDS = ("betti", "koszul", "gldim")


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="anick",
        description="Exact Groebner, resolution and Koszulness computations "
        "for finitely presented graded algebras.",
    )
    parser.add_argument("--version", action="version", version=f"anick {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", default=None, help="presentation file (default: stdin)")
        p.add_argument("--max-deg", type=nonnegative_int, default=8, dest="max_deg")
        p.add_argument("--max-level", type=nonnegative_int, default=None, dest="max_level")
        p.add_argument(
            "--format",
            choices=("json", "text", "dot") if name == "graph" else ("json", "text"),
            default="dot" if name == "graph" else "json",
        )
        p.add_argument("--field", default=None, help="q or fp:<prime>")
        p.add_argument(
            "--require-certified",
            action="store_true",
            dest="require_certified",
            help="exit 2 unless the answer is certified at the requested bound",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        run = Pipeline(args)
        payload = PAYLOADS[args.command](run)
    except CertificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    if isinstance(payload, str):
        sys.stdout.write(payload)
        return 0
    config = {
        "input": args.input or "<stdin>",
        "max_deg": run.max_deg,
        "max_level": run.max_level,
        "order": " > ".join(run.alphabet.letters),
        "field": run.presentation.field.name,
        "format": args.format,
    }
    if args.command in BETTI_COMMANDS:
        config["betti_order"] = " > ".join(run.betti_presentation.alphabet.letters)
    report = build_report(args.command, config, payload, elapsed)
    render = render_text if args.format == "text" else render_json
    sys.stdout.write(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
