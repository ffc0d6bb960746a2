"""Spans and counters recorded around the engine's public functions.

The tracer replaces a function at the attribute its callers look it up
by (a module global, a package attribute or a class attribute) with a
wrapper that records a span: name, start, end, parent span and job.
Spans stay in memory and are written out when the run ends.  Hot
functions that are too cheap for a span get a counter instead.  Nothing
inside the engine changes; a traced run is a separate process, so
untraced runs never see a wrapper.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

from workloads import CLI_COMMANDS

SETUP = "setup"
CHECK = "check"

NF_SITES = ("groebner.normal_form", "resolution.normal_form")
EXACT_UNITS = ("count", "ratio")


class Tracer:
    """In-memory spans plus per-job counters and maxima.

    A job is any hashable label; ``begin`` closes the previous job's
    counters and opens the next.  Each span is the list
    ``[name, start, end, parent index or -1, job]``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self.maxima: dict[object, dict[str, int]] = defaultdict(dict)
        self.job: object = SETUP
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def begin(self, job) -> None:
        self.finish()
        self.job = job

    def finish(self) -> None:
        """Move the counters into the current job's totals."""
        counts = self.counts[self.job]
        for name, cell in self._cells.items():
            if cell[0]:
                counts[name] += cell[0]
                cell[0] = 0

    def add(self, name: str, n: int = 1) -> None:
        self._cells.setdefault(name, [0])[0] += n

    def keep_max(self, name: str, value: int) -> None:
        maxima = self.maxima[self.job]
        if value > maxima.get(name, 0):
            maxima[name] = value

    def span(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr`` so that each call records a span.

        ``observe(tracer, args, result)`` runs after the call inside its
        own span, so its cost is not charged to the caller's self time.
        """
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                spans.append(["trace.observe", clock(), 0.0, record[3], self.job])
                observe(self, args, result)
                spans[-1][2] = clock()
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so that each call only bumps a counter."""
        fn = getattr(owner, attr)
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[3] >= 0:
            children[record[3]].append((record[1], record[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


# ------------------------------------------------------- the engine's layers


def _observe_basis(tracer, args, gb) -> None:
    tracer.keep_max("groebner.basis_size", len(gb.elements))


def _observe_nf(tracer, args, result) -> None:
    if not result.is_zero:
        tracer.add("nf.nonzero")


def _observe_chains(tracer, args, chain_set) -> None:
    tracer.add("chains.count", sum(len(v) for v in chain_set.by_level_degree.values()))


def _observe_automaton(tracer, args, automaton) -> None:
    tracer.keep_max("automaton.states", automaton.size)


def _observe_matrix(tracer, args, rank) -> None:
    rows = args[0]
    tracer.add("homology.matrix_entries", len(rows) * len(rows[0]) if rows else 0)
    tracer.add("homology.matrix_nnz", sum(1 for row in rows for x in row if x))


def _observe_output(tracer, args, text) -> None:
    tracer.add("reports.output_bytes", len(text.encode()))


REPORT_FUNCTIONS = (
    "build_report", "render_json", "render_text", "gb_payload", "chains_payload",
    "slices_payload", "betti_payload", "koszul_payload", "dual_payload",
    "gldim_payload", "hilbert_payload",
)


def install(tracer: Tracer, anick) -> None:
    """Wrap every public boundary the per-layer metrics are read from.

    A function imported by name into several modules is wrapped in each
    of them, because each caller looks it up in its own module.
    """
    import anick.automaton as automaton
    import anick.cli as cli
    import anick.dual as dual
    import anick.groebner as groebner
    import anick.homology as homology
    import anick.linalg as linalg
    import anick.resolution as resolution
    import anick.words as words

    def span(name, owners, attr, observe=None):
        for owner in owners:
            tracer.span(owner, attr, name, observe)

    context = resolution.ResolutionContext
    span("parser.parse", [anick, cli], "parse_presentation")
    span("groebner.complete", [anick, cli, resolution, homology, dual], "complete", _observe_basis)
    span("groebner.normal_form", [anick, groebner], "normal_form", _observe_nf)
    span("resolution.normal_form", [resolution], "normal_form", _observe_nf)
    span("groebner.s_polynomial", [anick, groebner], "s_polynomial")
    tracer.counter(words.DegLex, "key", "words.deglex_key")
    span("chains.enumerate", [anick, cli, resolution], "enumerate_chains", _observe_chains)
    span("automaton.build", [anick, cli, resolution, dual], "normal_word_automaton",
         _observe_automaton)
    span("automaton.hilbert", [automaton.NormalWordAutomaton], "hilbert_coefficients")
    span("resolution.context", [context], "__init__")
    span("resolution.differential", [context], "differential")
    span("resolution.split", [context], "split")
    span("resolution.nf_word", [context], "nf_word")
    span("homology.betti", [anick, cli, homology, dual], "betti_table")
    span("homology.induce", [homology], "induced_matrix_from_context")
    span("linalg.rank", [linalg], "rank", _observe_matrix)
    span("linalg.nullspace", [linalg], "nullspace")
    span("dual.quadratic_dual", [anick, cli, dual], "quadratic_dual")
    span("dual.gldim", [anick, cli, dual], "gldim_report")
    for attr in REPORT_FUNCTIONS:
        observe = _observe_output if attr in ("render_json", "render_text") else None
        span("reports.render", [cli], attr, observe)
    span("reports.render", [cli], "chain_graph_dot", _observe_output)
    span("cli.main", [cli], "main")


class RoundTotals:
    """Self time, calls, counts and maxima summed over one round's jobs."""

    def __init__(self):
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.top_level: Counter = Counter()

    def self_s(self, *names: str) -> float:
        return sum(self.self_time[n] for n in names)

    def n(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# Per-layer metrics: name, unit, value for one round.  Times are self
# times.  Counts and ratios are exact and must repeat from round to round;
# output bytes are not, because each report carries its own wall time.
PER_ROUND = [
    ("parser.parse_s", "s", lambda r: r.self_s("parser.parse")),
    ("groebner.complete_s", "s", lambda r: r.self_s("groebner.complete")),
    ("groebner.complete_calls", "count", lambda r: r.n("groebner.complete")),
    ("groebner.normal_form_s", "s", lambda r: r.self_s(*NF_SITES)),
    ("groebner.normal_form_calls", "count", lambda r: r.n(*NF_SITES)),
    ("groebner.nonzero_nf_ratio", "ratio",
     lambda r: _ratio(r.counts["nf.nonzero"], r.n(*NF_SITES))),
    ("groebner.s_polynomial_calls", "count", lambda r: r.n("groebner.s_polynomial")),
    ("groebner.basis_size", "count", lambda r: r.maxima.get("groebner.basis_size", 0)),
    ("words.deglex_key_calls", "count", lambda r: r.counts["words.deglex_key"]),
    ("chains.enumerate_s", "s", lambda r: r.self_s("chains.enumerate")),
    ("chains.count", "count", lambda r: r.counts["chains.count"]),
    ("automaton.build_s", "s", lambda r: r.self_s("automaton.build")),
    ("automaton.states", "count", lambda r: r.maxima.get("automaton.states", 0)),
    ("automaton.hilbert_s", "s", lambda r: r.self_s("automaton.hilbert")),
    ("resolution.context_s", "s", lambda r: r.self_s("resolution.context")),
    ("resolution.differential_s", "s", lambda r: r.self_s("resolution.differential")),
    ("resolution.differential_calls", "count", lambda r: r.n("resolution.differential")),
    ("resolution.split_calls", "count", lambda r: r.n("resolution.split")),
    ("resolution.nf_word_calls", "count", lambda r: r.n("resolution.nf_word")),
    ("resolution.nf_hit_ratio", "ratio",
     lambda r: _ratio(r.n("resolution.nf_word") - r.n("resolution.normal_form"),
                      r.n("resolution.nf_word"))),
    ("homology.betti_s", "s", lambda r: r.self_s("homology.betti")),
    ("homology.induce_s", "s", lambda r: r.self_s("homology.induce")),
    ("homology.matrix_entries", "count", lambda r: r.counts["homology.matrix_entries"]),
    ("homology.matrix_nnz", "count", lambda r: r.counts["homology.matrix_nnz"]),
    ("linalg.rank_s", "s", lambda r: r.self_s("linalg.rank")),
    ("linalg.rank_calls", "count", lambda r: r.n("linalg.rank")),
    ("linalg.nullspace_s", "s", lambda r: r.self_s("linalg.nullspace")),
    ("dual.quadratic_dual_s", "s", lambda r: r.self_s("dual.quadratic_dual")),
    ("dual.gldim_s", "s", lambda r: r.self_s("dual.gldim")),
    ("reports.render_s", "s", lambda r: r.self_s("reports.render")),
    ("reports.output_bytes", "bytes", lambda r: r.counts["reports.output_bytes"]),
] + [
    (f"cli.command_s.{c}", "s", lambda r, c=c: r.top_level[("cli.main", c)])
    for c in CLI_COMMANDS
]

# Metrics the benchmark adds outside the per-round table.
EXTRA = [
    ("parser.setup_parse_s", "s"),
    ("trace.round_s", "s"),
    ("trace.overhead_s", "s"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_ROUND} | dict(EXTRA)


def round_totals(tracer: Tracer) -> dict[object, RoundTotals]:
    """Totals keyed by round index, plus ``SETUP`` for the set-up phase.

    Jobs are ``(round, label)`` pairs; spans and counts of the check
    phase are dropped.
    """
    rounds: dict[object, RoundTotals] = defaultdict(RoundTotals)

    def key(job):
        return job[0] if isinstance(job, (tuple, list)) else job

    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, parent, job = record
        totals = rounds[key(job)]
        totals.self_time[name] += own
        totals.calls[name] += 1
        if parent < 0 and isinstance(job, (tuple, list)):
            totals.top_level[(name, job[1])] += end - start
    for job, counts in tracer.counts.items():
        rounds[key(job)].counts.update(counts)
    for job, maxima in tracer.maxima.items():
        merged = rounds[key(job)].maxima
        for name, value in maxima.items():
            merged[name] = max(merged.get(name, 0), value)
    rounds.pop(CHECK, None)
    return rounds


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer values and the names of exact metrics that changed
    between rounds (which would mean the engine is not deterministic).

    Times are medians over rounds; exact metrics come from the first round.
    """
    rounds = round_totals(tracer)
    setup = rounds.pop(SETUP, RoundTotals())
    ordered = [rounds[k] for k in sorted(rounds)]
    values: dict[str, float] = {}
    unstable: list[str] = []
    for name, unit, fn in PER_ROUND:
        per_round = [fn(r) for r in ordered] or [0]
        if unit not in EXACT_UNITS:
            values[name] = statistics.median(per_round)
        else:
            values[name] = per_round[0]
            if any(v != per_round[0] for v in per_round):
                unstable.append(name)
    values["parser.setup_parse_s"] = setup.self_s("parser.parse")
    return values, unstable
