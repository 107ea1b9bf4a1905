import pytest
from hypothesis import given, settings, strategies as st

from yangbaxter import braces, fileio, solutions
from yangbaxter.fileio import ParseError, StreamHeader
from yangbaxter.perms import relabel_table


def test_solution_round_trip(sol4_irr):
    text = fileio.solution_to_text(sol4_irr)
    parsed = fileio.parse_text(text)
    assert parsed == sol4_irr


def test_brace_round_trip():
    A = braces.brace_from_radical_ring(braces.mod4_radical_ring())
    text = fileio.brace_to_text(A)
    parsed = fileio.parse_text(text)
    assert parsed.add == A.add and parsed.mul == A.mul


def test_ring_round_trip():
    R = braces.mod4_radical_ring()
    text = fileio.ring_to_text(R)
    parsed = fileio.parse_text(text)
    assert parsed.add == R.add and parsed.prod == R.prod


def test_stream_round_trip(sol4_irr, sol5_mp):
    header = StreamHeader(size=4, mode="involutive", count=2, meta={"engine": "orderly"})
    # every record must match the header's size and, here, be involutive
    trivial = solutions.make_trivial(4)
    text = fileio.stream_to_text(header, [sol4_irr, trivial])
    stream = fileio.parse_text(text)
    assert stream.header.size == 4
    assert stream.header.meta["engine"] == "orderly"
    assert stream.solutions == [sol4_irr, trivial]


def test_parse_rejects_bad_rows():
    with pytest.raises(ParseError):
        fileio.parse_text("kind: solution\nsize: 2\nsigma:\n0 1\nbad row\ntau:\n0 1\n1 0\n")


def test_parse_rejects_missing_kind():
    with pytest.raises(ParseError):
        fileio.parse_text("size: 2\nsigma:\n0 1\n1 0\n")


def test_parse_rejects_wrong_row_count():
    with pytest.raises(ParseError):
        fileio.parse_text("kind: solution\nsize: 3\nsigma:\n0 1 2\ntau:\n0 1 2\n")


def test_parse_propagates_validation_failure():
    bad = "kind: solution\nsize: 2\nsigma:\n0 0\n0 1\ntau:\n0 1\n0 1\n"
    with pytest.raises(solutions.InvalidSolutionError):
        fileio.parse_text(bad)


def test_parse_rejects_a_repeated_section():
    # the first sigma block is invalid; a later valid one must not replace it
    text = "kind: solution\nsize: 2\nsigma:\n9 9\n9 9\nsigma:\n0 1\n0 1\ntau:\n0 1\n0 1\n"
    with pytest.raises(ParseError, match="'sigma'"):
        fileio.parse_text(text)


def test_parse_rejects_a_repeated_size():
    text = "kind: solution\nsize: 5\nsize: 2\nsigma:\n0 1\n0 1\ntau:\n0 1\n0 1\n"
    with pytest.raises(ParseError, match="'size'"):
        fileio.parse_text(text)


def test_parse_rejects_a_repeated_kind(sol4_irr):
    text = "kind: brace\n" + fileio.solution_to_text(sol4_irr)
    with pytest.raises(ParseError, match="'kind'"):
        fileio.parse_text(text)


def test_comments_and_blank_lines_ignored(sol4_irr):
    text = "# a comment\n" + fileio.solution_to_text(sol4_irr)
    assert fileio.parse_text(text) == sol4_irr


def test_parse_missing_file():
    with pytest.raises(ParseError):
        fileio.parse_file("/nonexistent/path.txt")


def test_brace_with_nonzero_identity_is_relabeled_on_load():
    # trivial brace on Z/3 written with the identity at index 2: tables are
    # (a + b) mod 3 shifted so that 2 acts as the neutral element
    shifted = [[(a + b + 1) % 3 for b in range(3)] for a in range(3)]
    # identity of `shifted` is the element e with e + 1 = 0 mod 3, i.e. 2
    text = (
        "kind: brace\nsize: 3\nadd:\n"
        + "\n".join(" ".join(map(str, row)) for row in shifted)
        + "\nmul:\n"
        + "\n".join(" ".join(map(str, row)) for row in shifted)
        + "\n"
    )
    A = fileio.parse_text(text)
    assert A.add[0] == (0, 1, 2) or A.add[0][0] == 0
    assert A.add[0][1] == 1  # identity really is 0 after the relabel


def _one_record_stream(count_line: str) -> str:
    header = "kind: enumeration-stream\nschema: 1\nsize: 4\nmode: involutive\n"
    record = fileio.solution_to_text(solutions.make_trivial(4))
    return header + count_line + "\n" + record


def test_stream_record_count_must_match_a_zero_count():
    with pytest.raises(ParseError, match="announces 0 records, found 1"):
        fileio.parse_text(_one_record_stream("count: 0\n"))


def test_stream_record_count_is_required():
    with pytest.raises(ParseError, match="count"):
        fileio.parse_text(_one_record_stream(""))


def test_empty_stream_with_zero_count_parses():
    header = StreamHeader(size=4, mode="involutive", count=0)
    stream = fileio.parse_text(fileio.stream_to_text(header, []))
    assert stream.header.count == 0 and stream.solutions == []


def _stream(header_lines: str, *records) -> str:
    return "kind: enumeration-stream\n" + header_lines + "\n" + "\n".join(
        fileio.solution_to_text(s) for s in records
    )


def test_stream_schema_must_be_current(sol4_irr):
    text = _stream("schema: 99\nsize: 4\nmode: involutive\ncount: 1\n", sol4_irr)
    with pytest.raises(ParseError, match="schema '99'"):
        fileio.parse_text(text)


def test_stream_mode_is_required(sol4_irr):
    text = _stream("schema: 1\nsize: 4\ncount: 1\n", sol4_irr)
    with pytest.raises(ParseError, match="mode None"):
        fileio.parse_text(text)


def test_stream_mode_must_be_known(sol4_irr):
    text = _stream("schema: 1\nsize: 4\nmode: braces\ncount: 1\n", sol4_irr)
    with pytest.raises(ParseError, match="mode 'braces'"):
        fileio.parse_text(text)


def test_stream_records_must_have_the_header_size(sol_3_noninvolutive):
    text = _stream("schema: 1\nsize: 5\nmode: all\ncount: 1\n", sol_3_noninvolutive)
    with pytest.raises(ParseError, match="size 5 holds a record of size 3"):
        fileio.parse_text(text)


def test_involutive_stream_rejects_a_non_involutive_record(sol_3_noninvolutive):
    header = "schema: 1\nsize: 3\nmode: {}\ncount: 1\n"
    with pytest.raises(ParseError, match="non-involutive record"):
        fileio.parse_text(_stream(header.format("involutive"), sol_3_noninvolutive))
    stream = fileio.parse_text(_stream(header.format("all"), sol_3_noninvolutive))
    assert stream.solutions == [sol_3_noninvolutive]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_records_round_trip_exactly(data, involutive_corpus, brace_corpus):
    """A relabelled corpus solution or brace (braces by maps fixing 0) is
    written and parsed back to the same tables."""
    if data.draw(st.booleans(), label="brace"):
        A = data.draw(st.sampled_from([A for n in range(1, 9) for A in brace_corpus[n]]))
        f = (0, *data.draw(st.permutations(range(1, A.size))))
        add, mul = relabel_table(A.add, f), relabel_table(A.mul, f)
        parsed = fileio.parse_text(fileio.brace_to_text(braces.SkewBrace(A.size, add, mul)))
        assert (parsed.add, parsed.mul) == (add, mul)
    else:
        s = data.draw(st.sampled_from([s for n in range(1, 6) for s in involutive_corpus[n]]))
        s = solutions.relabel(s, data.draw(st.permutations(range(s.size))))
        assert fileio.parse_text(fileio.solution_to_text(s)) == s


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_streams_round_trip_exactly(data, involutive_corpus):
    n = data.draw(st.integers(1, 5), label="size")
    sols = data.draw(st.lists(st.sampled_from(involutive_corpus[n]), max_size=6))
    sols = [solutions.relabel(s, data.draw(st.permutations(range(n)))) for s in sols]
    meta = data.draw(st.dictionaries(
        st.sampled_from(["seed", "jobs", "engine"]), st.integers(0, 10**6).map(str)
    ))
    header = StreamHeader(size=n, mode=data.draw(st.sampled_from(["involutive", "all"])),
                          count=len(sols), meta=meta)
    stream = fileio.parse_text(fileio.stream_to_text(header, sols))
    assert stream.header == header
    assert stream.solutions == sols
