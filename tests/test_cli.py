import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from anick import (
    Alphabet,
    Polynomial,
    Presentation,
    ResolutionContext,
    betti_table,
    cli,
    complete,
    enumerate_chains,
    format_presentation,
    gldim_report,
    koszul_verdict,
    parse_presentation,
)
from anick.cli import BETTI_COMMANDS, COMMANDS, main, probe_degree
from anick.fields import PrimeField, Rationals
from anick.reports import betti_payload, gldim_payload, koszul_payload, slices_payload
from conftest import G4_TEXT

XYZ = "vars: x > y > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
YXSQ_LOW = "vars: x < y\nrelations:\n  x^2 - y*x\n"


@pytest.fixture
def xyz_file(tmp_path):
    path = tmp_path / "xyz.alg"
    path.write_text(XYZ)
    return str(path)


@pytest.fixture
def yxsq_file(tmp_path):
    path = tmp_path / "yxsq.alg"
    path.write_text(YXSQ_LOW)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_gldim_json_payload(capsys, xyz_file):
    report = run_json(
        capsys, "gldim", "--input", xyz_file, "--max-deg", "8", "--format", "json"
    )
    payload = report["payload"]
    assert payload["gldim"] == 4
    assert payload["dim_A1"] == 3
    assert payload["conjecture_counterexample"] is True
    assert payload["dual_certificate"] == "certified-complete"
    assert payload["koszul"] == "koszul-up-to(8)"
    assert set(report) == {"command", "config", "payload", "timing"}


def test_gb_certified_quadratic_basis(capsys, yxsq_file):
    report = run_json(capsys, "gb", "--input", yxsq_file, "--max-deg", "6")
    payload = report["payload"]
    assert payload["basis"] == ["y*x - x^2"]
    assert payload["certificate"] == "certified-complete"


def test_gb_truncated_certificate(capsys, xyz_file):
    report = run_json(capsys, "gb", "--input", xyz_file, "--max-deg", "6")
    assert report["payload"]["certificate"] == "complete-up-to-degree(6)"
    assert len(report["payload"]["basis"]) == 7


def test_hilbert_payload(capsys, xyz_file):
    report = run_json(capsys, "hilbert", "--input", xyz_file, "--max-deg", "8")
    assert report["payload"]["hilbert"] == [1, 3, 6, 11, 20, 36, 64, 113, 199]


def test_betti_payload(capsys, xyz_file):
    report = run_json(
        capsys, "betti", "--input", xyz_file, "--max-deg", "6", "--max-level", "4"
    )
    assert report["payload"]["diagonal"] == [1, 3, 3, 2, 1]
    assert all(all(row) for row in report["payload"]["reliable"])


def test_koszul_payload(capsys, xyz_file):
    report = run_json(capsys, "koszul", "--input", xyz_file, "--max-deg", "6")
    assert report["payload"]["verdict"] == "koszul-up-to(6)"


def test_dual_payload(capsys, xyz_file):
    report = run_json(capsys, "dual", "--input", xyz_file)
    dual = report["payload"]["dual"]
    assert dual["vars"] == "x! > y! > z!"
    assert "x!^2 - y!*x!" in dual["relations"]
    assert len(dual["relations"]) == 6


def test_chains_payload(capsys, xyz_file):
    report = run_json(
        capsys, "chains", "--input", xyz_file, "--max-deg", "4", "--max-level", "3"
    )
    levels = report["payload"]["chains"]
    assert levels[0]["count"] == 3
    level1 = {entry["word"] for entry in levels[1]["chains"]}
    assert level1 == {"x^2", "x*y*x", "x*y^2*x", "x*z", "z*y"}


def test_resolution_payload_composes_to_zero(capsys, xyz_file):
    report = run_json(
        capsys, "resolution", "--input", xyz_file, "--max-deg", "4", "--max-level", "2"
    )
    slices = report["payload"]["slices"]
    assert slices
    assert all(s["composes_to_zero"] for s in slices if s["level"] >= 1)


def test_graph_dot_output(capsys, xyz_file):
    code, out, err = run(capsys, "graph", "--input", xyz_file, "--max-deg", "6")
    assert code == 0
    assert out.startswith("digraph chains {")
    assert '"x" -> "x^2|1";' in out


def test_graph_json_output(capsys, xyz_file):
    report = run_json(
        capsys, "graph", "--input", xyz_file, "--max-deg", "6", "--format", "json"
    )
    graph = report["payload"]["graph"]
    ids = {node["id"] for node in graph["nodes"]}
    assert {"x", "y", "z"} <= ids


def test_json_reports_are_byte_stable(capsys, xyz_file):
    outputs = []
    for _ in range(2):
        code, out, err = run(
            capsys, "gldim", "--input", xyz_file, "--max-deg", "6", "--format", "json"
        )
        assert code == 0
        parsed = json.loads(out)
        parsed.pop("timing")
        outputs.append(json.dumps(parsed, indent=2))
    assert outputs[0] == outputs[1]


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(XYZ))
    code, out, err = run(capsys, "hilbert", "--max-deg", "4")
    assert code == 0
    assert json.loads(out)["payload"]["hilbert"] == [1, 3, 6, 11, 20]


def test_parse_error_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("vars: x > x\nrelations:\n")
    code, out, err = run(capsys, "gb", "--input", str(bad))
    assert code == 1
    assert "duplicate" in err


@pytest.mark.parametrize("field, coeff", [("Q", "1/0"), ("Fp 5", "1/5")])
def test_zero_denominator_exits_one(capsys, tmp_path, field, coeff):
    bad = tmp_path / "bad.alg"
    bad.write_text(f"vars: x > y\nfield: {field}\nrelations:\n  {coeff}*x*y\n")
    code, out, err = run(capsys, "gb", "--input", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 4, col 3: zero denominator")


def test_non_utf8_input_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"\xff\xfe" + XYZ.encode())
    code, out, err = run(capsys, "gb", "--input", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_missing_file_exits_one(capsys):
    code, out, err = run(capsys, "gb", "--input", "/nonexistent/file.alg")
    assert code == 1


def test_require_certified_exits_two(capsys, xyz_file):
    code, out, err = run(
        capsys, "gb", "--input", xyz_file, "--max-deg", "8", "--require-certified"
    )
    assert code == 2
    assert "certified" in err


def test_require_certified_passes_when_certified(capsys, yxsq_file):
    code, out, err = run(
        capsys, "gb", "--input", yxsq_file, "--max-deg", "6", "--require-certified"
    )
    assert code == 0


def test_gldim_require_certified_accepts_certified_dual(capsys, xyz_file):
    code, out, err = run(
        capsys, "gldim", "--input", xyz_file, "--max-deg", "8", "--require-certified"
    )
    assert code == 0


def test_dot_rejected_outside_graph(capsys, xyz_file):
    code, out, err = run(capsys, "gb", "--input", xyz_file, "--format", "dot")
    assert code == 1
    assert "invalid choice: 'dot'" in err


def test_text_format(capsys, xyz_file):
    code, out, err = run(
        capsys, "hilbert", "--input", xyz_file, "--max-deg", "4", "--format", "text"
    )
    assert code == 0
    assert "hilbert" in out


def test_field_flag(capsys, xyz_file):
    report = run_json(
        capsys, "betti", "--input", xyz_file, "--max-deg", "5", "--field", "fp:5"
    )
    assert report["payload"]["diagonal"] == [1, 3, 3, 2, 1, 0]


def test_bad_usage_exits_one(capsys):
    assert main(["not-a-command"]) == 1


@pytest.mark.parametrize(
    "field", ["fp:²", "fp:" + "7" * 5000], ids=["superscript", "5000-digits"]
)
def test_bad_field_flag_exits_one(capsys, xyz_file, field):
    # '²' passes str.isdigit but not int(); 5000 digits pass neither limit.
    code, out, err = run(capsys, "gb", "--input", xyz_file, "--field", field)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad prime in field descriptor")


def test_field_flag_above_the_primality_bound_exits_one(capsys, xyz_file):
    code, out, err = run(capsys, "gb", "--input", xyz_file, "--field", "fp:" + "1" * 30)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot certify 1111")


@pytest.mark.parametrize(
    ("exponent", "message"),
    [("1000000", "term degree 1000000 is above the bound 3"), ("7" * 5000, "number too long")],
    ids=["10**6", "5000-digits"],
)
def test_huge_exponent_exits_one_before_expanding(capsys, tmp_path, exponent, message):
    path = tmp_path / "huge.alg"
    path.write_text(f"vars: x\nrelations:\n  x^{exponent}\n")
    code, out, err = run(capsys, "gb", "--input", str(path), "--max-deg", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: line 3, col ") and message in err


def test_dual_below_degree_two_still_parses_quadratic_relations(capsys):
    # The parser's bound is max(D, 2): dual never completes at D.
    code, out, err = run(capsys, "dual", "--input", str(EXAMPLE), "--max-deg", "1")
    assert code == 0, err


def test_one_parser_serves_every_call_in_a_process(capsys, xyz_file):
    assert cli._build_parser() is cli._build_parser()
    # A refused argv leaves nothing behind for the next call.
    assert main(["not-a-command"]) == 1
    assert main(["gb", "--input", xyz_file, "--max-deg", "-1"]) == 1
    assert main(["gb", "--input", xyz_file]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("anick ")


@pytest.mark.parametrize("command", COMMANDS)
def test_second_call_in_a_process_gives_the_same_output(capsys, xyz_file, command):
    outputs = []
    for _ in range(2):
        code, out, err = run(capsys, command, "--input", xyz_file, "--max-deg", "5")
        assert code == 0, err
        if command != "graph":
            report = json.loads(out)
            out = (report["config"], report["payload"])
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cubic_koszul_request_exits_one(capsys, tmp_path):
    path = tmp_path / "cubic.alg"
    path.write_text("vars: x > y\nrelations:\n  x*y*x\n")
    code, out, err = run(capsys, "koszul", "--input", str(path))
    assert code == 1
    assert "quadratic" in err


def test_cubic_gldim_request_exits_one(capsys, tmp_path):
    path = tmp_path / "cubic.alg"
    path.write_text("vars: x > y\nrelations:\n  x*y*x\n")
    code, out, err = run(capsys, "gldim", "--input", str(path))
    assert (code, out) == (1, "")
    assert "global-dimension report needs a quadratic presentation" in err


def test_gldim_require_certified_exits_two_on_an_uncertified_dual(capsys, tmp_path):
    path = tmp_path / "g4.alg"
    path.write_text(G4_TEXT)
    code, out, err = run(
        capsys, "gldim", "--input", str(path), "--max-deg", "4", "--require-certified"
    )
    assert (code, out) == (2, "")
    assert "dual basis is not certified complete" in err


def test_gldim_payload_matches_golden_file(capsys, xyz_file):
    code, out, err = run(
        capsys, "gldim", "--input", xyz_file, "--max-deg", "8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    golden = pathlib.Path(__file__).parent / "golden" / "gldim_xyz_payload.json"
    assert json.dumps(payload, indent=2) + "\n" == golden.read_text()


EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "example.alg"

# sha256 of each command's output on example.alg at D=8: the payload as the
# JSON report renders it, or the DOT text for graph; "<command>-fp5" is the
# payload with --field fp:5, pinned while prime-field coefficients were
# still a wrapper type and not int residues.
EXAMPLE_DIGESTS = {
    "gb": "a02f92e82b49c9f470da93782f07dba30dc8380c34ccc4478ae920559dab765a",
    "chains": "26dfd4116e58d8f6b618c9198e63de77278f8589da304e34b26959562db1f9a2",
    "resolution": "7237b891760b15e32eb068aac561e776e92db5945ed88db6bb5f4e4c25264e09",
    "betti": "c11c36158f3638610617e4d11cc449a45ec9d3d59f8d0f3a9f6a3f5dc0955be8",
    "koszul": "23b55435b7804fa748cf74b1827841546ccf0bcf28eaca0f78b5a00e07e52598",
    "dual": "65709ded8f3010cee47878a62d62ea67e5aad41d9c045d6f8f88d4291827b84c",
    "hilbert": "eea8ff644330c83d1423ed51f803e48affa4a1cad3900ec1cbef7efc897298ef",
    "gldim": "7907384b28862459b36a35f415ce79603ff2c3a28fbd8dd2939a911b279bcdec",
    "graph": "ce763e2af0a92324e1ba8a8a7a1325b2cfb8dfa73848923b214037738d68ea83",
    "gb-fp5": "a02f92e82b49c9f470da93782f07dba30dc8380c34ccc4478ae920559dab765a",
    "dual-fp5": "3e212f2915e239bd3bfff2cd192efe167898c7d947163887dec848860cddd15c",
    "betti-fp5": "c11c36158f3638610617e4d11cc449a45ec9d3d59f8d0f3a9f6a3f5dc0955be8",
    "gldim-fp5": "7907384b28862459b36a35f415ce79603ff2c3a28fbd8dd2939a911b279bcdec",
}


@pytest.mark.parametrize("command", list(EXAMPLE_DIGESTS))
def test_example_output_matches_pinned_digest(capsys, command):
    name, _, p = command.partition("-fp")
    flags = ["--field", f"fp:{p}"] if p else []
    code, out, err = run(capsys, name, "--input", str(EXAMPLE), "--max-deg", "8", *flags)
    assert code == 0, err
    if command != "graph":
        out = out.split('\n  "payload": ', 1)[1].rsplit(',\n  "timing": ', 1)[0]
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_DIGESTS[command]


# sha256 of the resolution matrices of example.alg at D=8 in the renderings
# the digests above leave out: the JSON payload over F_5, and the text
# report after its config block (which echoes the input path).
RESOLUTION_DIGESTS = {
    "json-fp5": "6a40701bbbc30d781162c9fa33f2c97b5cf8a01cf8344b81d882d3cde2a63487",
    "text-q": "4df5abd176ffdcea6397ec58a2c0958254533d2c58baedd06fcd546f732e0203",
}


@pytest.mark.parametrize(
    ("name", "flags"),
    [("json-fp5", ["--field", "fp:5"]), ("text-q", ["--format", "text"])],
)
def test_example_resolution_renderings_match_pinned_digest(capsys, name, flags):
    code, out, err = run(
        capsys, "resolution", "--input", str(EXAMPLE), "--max-deg", "8", *flags
    )
    assert code == 0, err
    if name.startswith("json"):
        out = out.split('\n  "payload": ', 1)[1].rsplit(',\n  "timing": ', 1)[0]
    else:
        out = out.split("\n\n", 1)[1]
    assert hashlib.sha256(out.encode()).hexdigest() == RESOLUTION_DIGESTS[name]


def test_resolution_payload_allocates_little_beside_its_matrices():
    # 489,103 matrix entries, 4,126 of them nonzero: a str per entry made
    # the payload peak at 29 MiB; one shared "0" keeps it near 6 MiB.
    pres = parse_presentation(EXAMPLE.read_text())
    slices = ResolutionContext(complete(pres, 8), 8, 8).slices()
    tracemalloc.start()
    try:
        slices_payload(pres.alphabet, slices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_completes_at_most_once(capsys, monkeypatch, xyz_file, command):
    # One completion at D of the input (gldim: and of its dual).  The Betti
    # commands may add probes of the letter orders, at most 3! of them and
    # every one at the probe degree; the other commands add none.  At D=8
    # the probe's winner y > x > z is certified complete, so its probe basis
    # stands in for the Betti job's completion at D.
    import anick.cli
    import anick.dual
    import anick.homology
    import anick.resolution
    from anick.groebner import complete

    calls = []

    def counting_complete(presentation, max_deg):
        calls.append(max_deg)
        return complete(presentation, max_deg)

    for module in (anick.cli, anick.resolution, anick.homology, anick.dual):
        monkeypatch.setattr(module, "complete", counting_complete)
    for degree in (5, 8):
        calls.clear()
        code, out, err = run(capsys, command, "--input", xyz_file, "--max-deg", str(degree))
        assert code == 0, err
        expected = {"dual": 0, "gldim": 2}.get(command, 1)  # gldim: the input and its dual
        reused = command in BETTI_COMMANDS and probe_degree(degree) >= cli.PROBE_MIN_DEGREE
        assert calls.count(degree) == expected - reused
        probes = [d for d in calls if d != degree]
        assert all(d == probe_degree(degree) for d in probes), calls
        assert len(probes) <= (math.factorial(3) if command in BETTI_COMMANDS else 0)


@pytest.mark.parametrize("command", BETTI_COMMANDS)
def test_a_certified_probe_basis_is_not_completed_again(monkeypatch, command):
    # On example.alg at D=10 the probe at degree 5 picks y > x > z, whose
    # basis is certified complete: the six probes are the Betti job's only
    # completions of the input, and the report equals the one that
    # completes the winner again at D.
    calls = []

    def counting_complete(presentation, max_deg):
        calls.append((presentation.alphabet.letters, max_deg))
        return complete(presentation, max_deg)

    monkeypatch.setattr(cli, "complete", counting_complete)
    text = EXAMPLE.read_text()
    payload, config = cli_payload(command, text, 10)
    assert config["betti_order"] == "y > x > z"
    assert sorted(calls) == sorted((p, 5) for p in itertools.permutations("xyz"))
    calls.clear()
    monkeypatch.setattr(cli, "replace", lambda gb, truncation_degree: counting_complete(
        gb.presentation, truncation_degree
    ))
    assert cli_payload(command, text, 10) == (payload, config)
    assert (("y", "x", "z"), 10) in calls


def test_the_probe_ranks_g4_by_the_terms_of_its_bases(tmp_path):
    # At degree 4 the fewest terms (38) go with d > b > a > c, which runs
    # D=7 about 6 times faster than the given order; the fewest chains (18)
    # go with b > a > c > d, one of the slowest orders.
    path = tmp_path / "g4.alg"
    path.write_text(G4_TEXT)
    args = cli._build_parser().parse_args(["betti", "--input", str(path), "--max-deg", "7"])
    assert cli.Pipeline(args).betti_presentation.alphabet.letters == ("d", "b", "a", "c")


def test_the_probe_enumerates_no_chains(monkeypatch):
    calls = []

    def counting_enumerate_chains(*args):
        calls.append(args)
        return enumerate_chains(*args)

    monkeypatch.setattr(cli, "enumerate_chains", counting_enumerate_chains)
    _, config = cli_payload("betti", EXAMPLE.read_text(), 8)
    assert config["betti_order"] == "y > x > z"
    assert calls == []


@pytest.mark.parametrize("command, code", [("betti", 2), ("koszul", 2), ("gldim", 0)])
def test_require_certified_checks_the_given_precedence(capsys, command, code):
    # Under x > y > z the basis of example.alg is infinite; the Betti data is
    # computed under y > x > z, where it is finite, but the flag still checks
    # the given order's basis.  gldim checks its dual's basis, which is finite.
    got, out, err = run(
        capsys, command, "--input", str(EXAMPLE), "--max-deg", "8", "--require-certified"
    )
    assert got == code, err
    if code == 2:
        assert out == "" and "complete-up-to-degree(8)" in err


@pytest.mark.parametrize("flag", ["--max-deg", "--max-level"])
@pytest.mark.parametrize("command", ["betti", "chains", "resolution"])
def test_negative_bound_exits_one(capsys, xyz_file, command, flag):
    code, out, err = run(capsys, command, "--input", xyz_file, flag, "-1")
    assert code == 1
    assert f"argument {flag}" in err and ">= 0" in err
    assert out == ""


@pytest.mark.parametrize("command, level_bound", [("betti", 3), ("koszul", 5), ("gldim", 5)])
def test_reported_level_bound_is_the_one_used(capsys, xyz_file, command, level_bound):
    # Koszul and gldim verdicts need every level up to D, whatever --max-level asks.
    report = run_json(
        capsys, command, "--input", xyz_file, "--max-deg", "5", "--max-level", "3"
    )
    assert report["config"]["max_level"] == level_bound
    if command == "betti":
        assert report["payload"]["i_max"] == level_bound


def test_cli_run_loads_only_the_standard_library(xyz_file):
    # The runtime has no dependencies.  The interpreter runs with -S, so
    # that modules which site-packages hooks import at start-up do not count.
    script = (
        "import json, sys\n"
        "from anick.cli import main\n"
        f"code = main(['gldim', '--input', {xyz_file!r}, '--max-deg', '5'])\n"
        "top = {name.partition('.')[0] for name in sys.modules}\n"
        "print(json.dumps([code, sorted(top - set(sys.stdlib_module_names))]))\n"
    )
    src_dir = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, foreign = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert set(foreign) <= {"__main__", "anick"}, foreign


LIBRARY_PAYLOADS = {
    "betti": lambda pres, d: betti_payload(betti_table(pres, d, d)),
    "koszul": lambda pres, d: koszul_payload(koszul_verdict(betti_table(pres, d, d), d)),
    "gldim": lambda pres, d: gldim_payload(gldim_report(pres, d)),
}


def cli_payload(command, text, degree):
    """The payload text and config of one in-process run on stdin."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        assert main([command, "--max-deg", str(degree)]) == 0
    report = out.getvalue()
    payload = report.split('\n  "payload": ', 1)[1].rsplit(',\n  "timing": ', 1)[0]
    return payload, json.loads(report)["config"]


@st.composite
def small_quadratic_presentations(draw):
    field = draw(st.sampled_from([Rationals(), PrimeField(5)]))
    alphabet = Alphabet(("x", "y", "z", "w")[: draw(st.integers(2, 4))])
    pool = list(itertools.product(range(alphabet.size), repeat=2))
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        coeffs = st.sampled_from([-2, -1, 1, 2]).map(field.of)
        rels.append(Polynomial({w: draw(coeffs) for w in support}, field.p))
    return Presentation(alphabet, field, tuple(rels))


@settings(max_examples=30, deadline=None)
@given(small_quadratic_presentations(), st.integers(3, 6))
def test_chosen_precedence_gives_the_given_precedences_payloads(pres, degree):
    # The search runs from probe degree 2 on here, so that these small
    # degrees exercise it; the payloads must not depend on its choice.
    text = format_presentation(pres)
    with mock.patch("anick.cli.PROBE_MIN_DEGREE", 2):
        for command, build in LIBRARY_PAYLOADS.items():
            payload, config = cli_payload(command, text, degree)
            assert json.loads(payload) == json.loads(json.dumps(build(pres, degree)))
            assert sorted(config["betti_order"].split(" > ")) == sorted(pres.alphabet.letters)
            assert config["order"] == " > ".join(pres.alphabet.letters)


@pytest.mark.parametrize("command", BETTI_COMMANDS)
def test_example_payloads_are_equal_under_every_letter_order(command):
    body = EXAMPLE.read_text().split("\n", 2)[2]
    assert body.startswith("field: Q\n")
    shipped = parse_presentation(EXAMPLE.read_text())
    want = json.dumps(LIBRARY_PAYLOADS[command](shipped, 10), indent=2).replace("\n", "\n  ")
    # Three orders give a certified basis with 5 terms; the other orders
    # have 10. A tie keeps the given order, or else goes to the first
    # permutation of the given letters.
    cheapest = ("y > x > z", "y > z > x", "z > y > x")
    for letters in itertools.permutations("xyz"):
        order = " > ".join(letters)
        payload, config = cli_payload(command, f"vars: {order}\n" + body, 10)
        assert payload == want, order
        first = next(o for o in map(" > ".join, itertools.permutations(letters)) if o in cheapest)
        assert config["betti_order"] == first
