import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from anick import ResolutionContext, complete, parse_presentation
from anick.cli import COMMANDS, main
from anick.reports import slices_payload

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
    import io

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


def test_cubic_koszul_request_exits_one(capsys, tmp_path):
    path = tmp_path / "cubic.alg"
    path.write_text("vars: x > y\nrelations:\n  x*y*x\n")
    code, out, err = run(capsys, "koszul", "--input", str(path))
    assert code == 1
    assert "quadratic" in err


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
# JSON report renders it, or the DOT text for graph.
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
}


@pytest.mark.parametrize("command", COMMANDS)
def test_example_output_matches_pinned_digest(capsys, command):
    code, out, err = run(capsys, command, "--input", str(EXAMPLE), "--max-deg", "8")
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
    code, out, err = run(capsys, command, "--input", xyz_file, "--max-deg", "5")
    assert code == 0, err
    expected = {"dual": 0, "gldim": 2}.get(command, 1)  # gldim: the input and its dual
    assert len(calls) == expected


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
