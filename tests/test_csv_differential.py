"""``load_csv`` against the cell parser it keeps as a fallback, over generated files.

The vectorised parse must either return the cell parser's exact bits or hand
the file to the cell parser, so on every file both give the same matrix or
raise ``ParseError`` with the same text.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustpls.errors import ParseError
from robustpls.io import DatasetFile, _parse_cells, load_csv

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: "%.17g" % v),
    FINITE.map(lambda v: "%.3e" % v),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0.0", "5e-324", "1e308", "-1e308", ".5", "5.", "+7", "1E-3"]),
)
PAD = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\xa0"])
ODD = st.one_of(
    NUMBER.map(lambda s: f'"{s}"'),  # quoted
    st.tuples(PAD, NUMBER, PAD).map("".join),  # leading or trailing space
    NUMBER.map(lambda s: s + "#"),  # not a comment
    st.sampled_from([
        "1_0", "\u0663", "1e400", "nan", "-inf", "Infinity", "", " ", "abc", "1e", "0x10", "1d5",
        '"1,5"', '"2\n"', '"', "#1", "1\x00", "\ufeff1",
    ]),
)
BLANK = st.sampled_from(["", "", " ", "\t "])
HEADER = st.sampled_from(["a,b", '"x,1",y', "", '"multi\nline",h', "\ufeffa"])


@st.composite
def csv_files(draw):
    """The text of a CSV file and whether its first line is a header."""
    n, w = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    rows = [[draw(NUMBER) for _ in range(w)] for _ in range(n)]
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, w - 1))] = draw(ODD)
    if rows and draw(st.integers(0, 3)) == 0:  # one ragged row
        row = rows[draw(st.integers(0, n - 1))]
        row.append(draw(NUMBER)) if draw(st.booleans()) or len(row) == 1 else row.pop()
    lines = [",".join(r) for r in rows]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(BLANK))
    has_header = draw(st.booleans())
    if has_header:  # a numeric header must still be skipped
        lines.insert(0, draw(st.one_of(HEADER, st.lists(NUMBER, min_size=w, max_size=w).map(",".join))))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, has_header


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_load_csv_matches_cell_parser(tmp_path, case):
    text, has_header = case
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    file = DatasetFile(str(path), has_header=has_header)
    try:
        expected = _parse_cells(file)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            load_csv(file)
        assert str(info.value) == str(exc)
    else:
        got = load_csv(file)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
