import json
import pathlib

from hypothesis import given, settings, strategies as st

from anick import cli, reports

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "example.alg"

# Quotes, backslashes, control characters and non-ASCII text (including
# characters outside the basic plane) beside arbitrary code points.
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aé€ 😀') | st.characters(), max_size=8)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
)

JSON_TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.lists(TEXT, max_size=4),
        st.lists(TEXT | st.integers(), max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
def test_render_json_matches_indented_json_dumps(tree):
    assert reports.render_json(tree) == json.dumps(tree, indent=2) + "\n"


def test_render_json_matches_json_dumps_on_a_resolution_report(capsys, monkeypatch):
    rendered = []

    def render(report):
        rendered.append(report)
        return reports.render_json(report)

    monkeypatch.setattr(cli, "render_json", render)
    assert cli.main(["resolution", "--input", str(EXAMPLE), "--max-deg", "5"]) == 0
    out = capsys.readouterr().out
    (report,) = rendered
    assert report["payload"]["slices"]
    assert out == json.dumps(report, indent=2) + "\n"
