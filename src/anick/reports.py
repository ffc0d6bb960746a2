"""Machine-readable reports: stable JSON payloads, text and DOT rendering.

Payloads are built from sorted engine output only, so two runs over the
same input produce byte-identical JSON.  Wall-clock timing lives in a
separate top-level field that golden comparisons are expected to drop.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .chains import ChainGraph, ChainSet
from .dual import GldimReport
from .groebner import GroebnerBasis, Presentation
from .homology import BettiTable, KoszulVerdict
from .parser import format_presentation
from .poly import render_poly
from .resolution import ResolutionSlice
from .words import Alphabet


def build_report(
    command: str, config: dict[str, Any], payload: dict[str, Any], seconds: float
) -> dict[str, Any]:
    return {
        "command": command,
        "config": config,
        "payload": payload,
        "timing": {"seconds": round(seconds, 6)},
    }


def render_json(report: dict[str, Any]) -> str:
    """The report as ``json.dumps(report, indent=2) + "\\n"``, byte for byte.

    ``json.dumps`` drops to its pure-Python encoder whenever ``indent`` is
    set, which yields one chunk per matrix entry; this walk emits a list of
    strings (a matrix row, a label list) or of ints (an occurrence span)
    with a single join instead.  Only an exact ``int`` is written with
    ``str``: a bool, an ``IntEnum`` member or another subclass goes through
    ``json.dumps``, as its ``str`` need not be its JSON text.  When
    the joined text is printable ASCII without a quote or a backslash, as
    a matrix row is, nothing in it needs escaping and the items are joined
    between quotes as they are; otherwise each item is escaped.  A dict of
    strings, such as a resolution label shared by many slices, is rendered
    once per indent and its text reused.  Dict keys must be strings, as
    every report's are.
    """
    parts: list[str] = []
    _render(report, "\n", parts, {})
    parts.append("\n")
    return "".join(parts)


def _render(value: Any, newline: str, parts: list[str], flat: dict) -> None:
    """Append the text of ``value`` at indent ``newline`` to ``parts``.

    ``flat`` maps (id, newline) of each dict of strings rendered so far to
    its text; the report holds every such dict for the whole walk, so no id
    is reused within it.
    """
    inner = newline + "  "
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        key = (id(value), newline)
        text = flat.get(key)
        if text is None:
            try:
                text = flat[key] = (
                    "{" + inner
                    + ("," + inner).join(
                        encode_basestring_ascii(k) + ": " + encode_basestring_ascii(v)
                        for k, v in value.items()
                    )
                    + newline + "}"
                )
            except TypeError:  # a value is not a str: walk the items one by one
                sep = "{" + inner
                for name, item in value.items():
                    parts += (sep, encode_basestring_ascii(name), ": ")
                    _render(item, inner, parts, flat)
                    sep = "," + inner
                parts.append(newline + "}")
                return
        parts.append(text)
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        try:
            text = "".join(value)
        except TypeError:  # an item is not a str: walk the items one by one
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _render(item, inner, parts, flat)
                sep = "," + inner
        else:
            if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
                # Nothing to escape: each item is its own text in quotes.
                parts += ("[", inner, '"', ('",' + inner + '"').join(value), '"')
            else:
                parts += ("[", inner, ("," + inner).join(map(encode_basestring_ascii, value)))
        parts.append(newline + "]")
    elif type(value) is int:
        parts.append(str(value))
    else:
        parts.append(json.dumps(value))


def gb_payload(gb: GroebnerBasis) -> dict[str, Any]:
    alphabet = gb.presentation.alphabet
    return {
        "basis": [render_poly(alphabet, g) for g in gb.elements],
        "leading_terms": [alphabet.str_word(w) for w in gb.obstructions],
        "certificate": str(gb.certificate),
        "truncation_degree": gb.truncation_degree,
    }


def chains_payload(chain_set: ChainSet) -> dict[str, Any]:
    alphabet = chain_set.alphabet
    levels = []
    for level in range(0, chain_set.level_max + 1):
        entries = [
            {
                "word": alphabet.str_word(c.word),
                "degree": c.degree,
                "occurrences": [list(span) for span in c.decomposition],
            }
            for c in chain_set.level(level)
        ]
        levels.append({"level": level, "count": len(entries), "chains": entries})
    return {"chains": levels}


def graph_payload(graph: ChainGraph) -> dict[str, Any]:
    names = [node.name(graph.alphabet) for node in graph.nodes]
    nodes = [
        {"id": nid, "kind": node.kind, "tail_degree": len(node.tail)}
        for nid, node in zip(names, graph.nodes)
    ]
    return {"graph": {"nodes": nodes, "edges": [[names[a], names[b]] for a, b in graph.edges]}}


def slices_payload(alphabet: Alphabet, slices: list[ResolutionSlice]) -> dict[str, Any]:
    # A pair is a source one level up from where it is a target: its label
    # is built once and shared, keyed by the chain's word and the cofactor,
    # which hash faster than the chain.  Far fewer words than pairs occur,
    # and each is rendered once.
    labels: dict = {}
    texts: dict = {}

    def text(word) -> str:
        made = texts.get(word)
        if made is None:
            made = texts[word] = alphabet.str_word(word)
        return made

    def label(pair) -> dict[str, str]:
        key = pair[0].word, pair[1]
        made = labels.get(key)
        if made is None:
            made = labels[key] = {"chain": text(key[0]), "cofactor": text(key[1])}
        return made

    out = []
    for s in slices:
        if not s.col_labels:
            continue
        if s.level == 0:
            rows: list[Any] = [text(w) for w in s.row_labels]
        else:
            rows = [label(p) for p in s.row_labels]
        # One shared "0" for every zero entry: str() runs on nonzeros only.
        matrix = [["0"] * len(s.col_labels) for _ in s.row_labels]
        for j, col in enumerate(s.columns):
            for i, x in col.items():
                matrix[i][j] = str(x)
        out.append(
            {
                "level": s.level,
                "degree": s.degree,
                "source": [label(p) for p in s.col_labels],
                "target": rows,
                "matrix": matrix,
                "composes_to_zero": s.composes_to_zero,
            }
        )
    return {"slices": out}


def betti_payload(table: BettiTable) -> dict[str, Any]:
    return {
        "betti": table.values,
        "reliable": table.reliable,
        "i_max": table.i_max,
        "j_max": table.j_max,
        "diagonal": table.diagonal(),
    }


def koszul_payload(verdict: KoszulVerdict) -> dict[str, Any]:
    payload: dict[str, Any] = {"verdict": str(verdict)}
    if not verdict.is_koszul:
        i, j = verdict.fails_at
        payload["witness"] = {"i": i, "j": j, "value": verdict.witness}
    return payload


def hilbert_payload(coefficients: list[int], valid_degree: int | None) -> dict[str, Any]:
    return {"hilbert": coefficients, "valid_degree": valid_degree}


def dual_payload(dual: Presentation) -> dict[str, Any]:
    alphabet = dual.alphabet
    return {
        "dual": {
            "vars": " > ".join(alphabet.letters),
            "relations": [render_poly(alphabet, r) for r in dual.relations],
            "presentation": format_presentation(dual),
        }
    }


def gldim_payload(report: GldimReport) -> dict[str, Any]:
    return {
        "gldim": report.gldim,
        "dim_A1": report.dim_degree_one,
        "conjecture_counterexample": report.conjecture_counterexample,
        "koszul": str(report.koszul),
        "dual_top_degree": report.dual_verdict.top_degree,
        "dual_certificate": str(report.dual_certificate),
        "dual_finite": report.dual_verdict.finite,
        "dual_hilbert": report.dual_hilbert,
        "conditional_on_koszulness_beyond": report.checked_degree,
    }


def render_text(report: dict[str, Any]) -> str:
    """Plain-text rendering of a report, payload keys one per line."""
    lines = [f"command: {report['command']}"]
    for key, value in report["config"].items():
        lines.append(f"  {key}: {value}")
    lines.append("")
    lines.extend(_text_block(report["payload"], indent=0))
    return "\n".join(lines) + "\n"


def _text_block(value: Any, indent: int) -> list[str]:
    pad = "  " * indent
    out: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                out.extend(_text_block(v, indent + 1))
            else:
                out.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        simple = all(not isinstance(v, (dict, list)) for v in value)
        rows = all(
            isinstance(v, list) and not any(isinstance(x, (dict, list)) for x in v)
            for v in value
        )
        if simple:
            out.append(f"{pad}{value}")
        elif rows and value:
            out.extend(f"{pad}{v}" for v in value)
        else:
            for v in value:
                out.extend(_text_block(v, indent))
                out.append("")
            while out and out[-1] == "":
                out.pop()
    else:
        out.append(f"{pad}{value}")
    return out
