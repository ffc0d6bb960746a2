"""Command-line interface.

Subcommands: gb, chains, resolution, betti, koszul, dual, hilbert, gldim,
graph.  Exit codes: 0 success, 1 input error, 2 when --require-certified
was given and the computation could not be certified at the requested
bound.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cached_property

from . import __version__
from .automaton import normal_word_automaton
from .chains import chain_graph, chain_graph_dot, enumerate_chains
from .dual import gldim_report, quadratic_dual
from .errors import AlgebraError, NotQuadraticError
from .fields import field_from_name
from .groebner import GroebnerBasis, complete
from .homology import betti_table, koszul_verdict
from .parser import parse_presentation
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


class CertificationFailure(Exception):
    """Raised when --require-certified cannot be honored."""


def _read_input(path: str | None) -> str:
    if path is None:
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class Pipeline:
    """One invocation: the parsed input, its bounds and, at most once, its
    completion."""

    def __init__(self, args):
        field = field_from_name(args.field) if args.field else None
        self.presentation = parse_presentation(_read_input(args.input), field)
        self.alphabet = self.presentation.alphabet
        self.max_deg = args.max_deg
        # Koszul and gldim verdicts need every level up to D, so D is the
        # level bound they use and report.
        level_is_degree = args.max_level is None or args.command in ("koszul", "gldim")
        self.max_level = args.max_deg if level_is_degree else args.max_level
        self.require_certified = args.require_certified
        self.format = args.format

    @cached_property
    def gb(self) -> GroebnerBasis:
        gb = complete(self.presentation, self.max_deg)
        if self.require_certified and not gb.certificate.complete:
            raise CertificationFailure(
                f"basis is only {gb.certificate}; certified answer unavailable "
                f"at degree {self.max_deg}"
            )
        return gb

    def context(self, level_max: int) -> ResolutionContext:
        return ResolutionContext(self.gb, level_max, self.max_deg)


def _chains(run: Pipeline) -> dict:
    chain_set = enumerate_chains(run.alphabet, run.gb.obstructions, run.max_level, run.max_deg)
    return chains_payload(chain_set)


def _betti_table(run: Pipeline):
    ctx = run.context(run.max_level)
    return betti_table(run.presentation, run.max_level, run.max_deg, ctx=ctx)


def _koszul(run: Pipeline) -> dict:
    if not run.presentation.is_quadratic:
        raise NotQuadraticError("Koszul verdicts need a quadratic presentation")
    return koszul_payload(koszul_verdict(_betti_table(run), run.max_deg))


def _hilbert(run: Pipeline) -> dict:
    gb = run.gb
    automaton = normal_word_automaton(run.alphabet, gb.obstructions, gb.valid_degree)
    return hilbert_payload(automaton.hilbert_coefficients(run.max_deg), gb.valid_degree)


def _gldim(run: Pipeline) -> dict:
    report = gldim_report(run.presentation, run.max_deg)
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
    "resolution": lambda run: slices_payload(run.alphabet, run.context(run.max_level).slices()),
    "betti": lambda run: betti_payload(_betti_table(run)),
    "koszul": _koszul,
    "dual": lambda run: dual_payload(quadratic_dual(run.presentation)),
    "hilbert": _hilbert,
    "gldim": _gldim,
    "graph": _graph,
}
COMMANDS = tuple(PAYLOADS)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
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
            choices=("json", "text", "dot"),
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
    if args.format == "dot" and args.command != "graph":
        print("error: dot format is only available for the graph command", file=sys.stderr)
        return 1
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
    report = build_report(args.command, config, payload, elapsed)
    render = render_text if args.format == "text" else render_json
    sys.stdout.write(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
