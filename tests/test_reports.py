import enum
import json
import pathlib

from hypothesis import example, given, settings, strategies as st

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

# Printable ASCII without a quote or a backslash needs no escaping, so a
# list of such strings is rendered by one join; one odd item sends the
# whole list through the escaper.
PLAIN = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'),
    max_size=6,
)
ODD = st.builds(
    lambda head, odd, tail: head + odd + tail,
    PLAIN,
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x80", "é", "\u2028", "😀"]),
    PLAIN,
)


@st.composite
def plain_but_one(draw):
    items = draw(st.lists(PLAIN, max_size=4))
    items.insert(draw(st.integers(0, len(items))), draw(ODD))
    return items


JSON_TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.lists(TEXT, max_size=4),
        st.lists(TEXT | st.integers(), max_size=4),
        st.lists(st.integers() | st.booleans(), max_size=6),
        st.lists(PLAIN, max_size=6),
        plain_but_one(),
    ),
    max_leaves=30,
)


class Level(enum.IntEnum):
    TOP = 3


# One dict of strings shared at three indents, as a resolution label is
# shared between the slices where its pair is a source and a target.
LABEL = {"chain": "x*y", "cofactor": "\u03b1"}


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
@example({"source": [LABEL, LABEL], "target": [[LABEL]], "label": LABEL, "empty": {}})
@example({"rows": [["", "0", "-3/4", "a b~", ""], [""], ("1", "2")]})
@example([["0", 'say "x"'], ["0", "a\\b"], ["0", "\t"], ["0", "\x7f"], ["0", "\u03b1"]])
# A list of exact ints is joined as str() writes them; a bool or an IntEnum
# member among them, or on its own, still goes through json.dumps.
@example([1, True, 0])
@example([True])
@example([0, -(10**40), 10**40])
@example([[1, 2], [3]])
@example([1, Level.TOP])
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


def test_render_text_writes_a_scalar_in_a_mixed_list_on_its_own_line():
    report = {"command": "t", "config": {}, "payload": {"a": [1, {"b": 2}]}}
    assert reports.render_text(report) == "command: t\n\na:\n  1\n\n  b: 2\n"
