"""Text formats against per-element parsers and formatters: the same
output bytes and the same exception class on random lines and on edge
tokens.  Integer lines are ASCII decimal digits separated by spaces or
tabs; anything else is rejected, not coerced."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav import cli, trees
from pav.errors import BadStep
from pav.perms import Permutation, ints_from_text, ints_to_text
from pav.rng import substream
from test_trees import contour_parents

EDGE_TOKENS = (
    "+1", "1_0", "١٢", "1.5", "x", "99999999999999999999",
    "-1", "0", "00012", "1__0", "１", "²",
    "9223372036854775807", "9223372036854775808",
    "18446744073709551616",  # 2**64: wraps a bare uint64
    "0" * 25 + "12", "1\t2",
)
EDGE_LINES = (
    "", " ", "\t", *EDGE_TOKENS, "1 +2", "3 1_0",
    "2 1 99999999999999999999", "99999999999999999999 1.5",
    "３ 2 1", "+3 2 1", "3\x1c2 1", "3\u20282 1", "1_0 2 3 4 5 6 7 8 9 1", "0 ０",
)
STEP_LINES = ("", "UD", "UDX", "ud", "U D", "ÜD", "ＵＤ", "UUDD\n", "DU")


# ---------------------------------------------------------------------------
# oracles: the per-element forms


def path_to_text_oracle(path):
    return "".join("U" if s == 1 else "D" for s in path.steps)


def path_from_text_oracle(text):
    bad = set(text) - {"U", "D"}
    if bad:
        raise BadStep(f"unexpected step characters: {sorted(bad)!r}")
    return pav.DyckPath(np.array([{"U": 1, "D": -1}[c] for c in text], dtype=np.int8))


def int_line_oracle(text):
    """The documented integer line, checked character by character."""
    if any(ch not in "0123456789 \t" for ch in text):
        raise ValueError(f"not an integer line: {text!r}")
    return [int(tok) for tok in text.split()]


def ints_oracle(text):
    return np.array(int_line_oracle(text), dtype=np.int64)


def perm_from_text_oracle(text):
    return Permutation(ints_oracle(text))


def perm_to_text_oracle(perm):
    return " ".join(str(int(v)) for v in perm.images)


def tree_from_text_oracle(text):
    try:
        parents = [-1] + int_line_oracle(text)
        return trees.OrderedTree(np.array(parents, dtype=np.int64))
    except (ValueError, OverflowError) as exc:
        raise cli.DataError(f"invalid tree {text!r}: {exc}") from exc


def tree_to_text_oracle(path):
    return " ".join(str(p) for p in contour_parents(path)[1:])


parse_tree = functools.partial(cli._parse, trees.OrderedTree)


_DATA = {pav.DyckPath: "steps", Permutation: "images", trees.OrderedTree: "parent"}


def outcome(parse, text):
    """The bytes of the array a parsed object holds, or the class of the
    exception the parser raised."""
    try:
        obj = parse(text)
    except Exception as exc:  # the class is the observable outcome
        return type(exc)
    if isinstance(obj, np.ndarray):
        return obj.dtype, obj.tobytes()
    return getattr(obj, _DATA[type(obj)]).tobytes()


tokens = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.integers(-3, 40).map(str),
    st.integers(0, 2**65).map(str),
    st.builds(lambda pad, v: "0" * pad + str(v), st.integers(0, 30), st.integers(0, 2**65)),
)
lines = st.one_of(
    st.lists(tokens, max_size=12).map(" ".join),
    st.permutations(range(1, 13)).map(lambda p: " ".join(map(str, p))),
    st.text(max_size=30),
)
step_lines = st.one_of(st.text(alphabet="UD", max_size=40), st.text(max_size=20))


class TestPathText:
    @pytest.mark.parametrize("text", STEP_LINES)
    def test_edge_lines(self, text):
        assert outcome(pav.from_text, text) == outcome(path_from_text_oracle, text)

    @given(step_lines)
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_oracle(self, text):
        assert outcome(pav.from_text, text) == outcome(path_from_text_oracle, text)

    @given(st.integers(1, 500), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_format_matches_oracle(self, n, seed):
        path = pav.sample_uniform(n, substream(seed))
        assert path.to_text().encode() == path_to_text_oracle(path).encode()
        assert pav.from_text(path.to_text()) == path

    def test_empty_path(self):
        assert pav.from_text("").to_text() == path_to_text_oracle(pav.from_text("")) == ""


class TestIntLine:
    @pytest.mark.parametrize("text", EDGE_LINES)
    def test_edge_lines(self, text):
        assert outcome(ints_from_text, text) == outcome(ints_oracle, text)

    @given(lines)
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_oracle(self, text):
        assert outcome(ints_from_text, text) == outcome(ints_oracle, text)

    def test_leading_zeros_at_any_length(self):
        # beyond the 4,300 digits CPython's int() converts by default
        assert ints_from_text("0" * 5000 + "12 " + "0" * 5000).tolist() == [12, 0]
        with pytest.raises(OverflowError):
            ints_from_text("1" + "0" * 5000)
        with pytest.raises(OverflowError):
            ints_from_text("7 " + "0" * 30 + "1" + "0" * 19)

    def test_format_matches_join(self):
        values = [0, 9, 10, 99, 100, 2**63 - 1]
        assert ints_to_text(values) == " ".join(map(str, values))
        assert ints_to_text([]) == ""
        for bad in ([3, -1], [1.0], [[1]]):
            with pytest.raises(ValueError):
                ints_to_text(bad)
        for top in (2**63, 2**64 - 1):  # lines that ints_from_text refuses
            with pytest.raises(ValueError, match=str(top)):
                ints_to_text(np.array([top, 3], dtype=np.uint64))


def digit_runs(width):
    """Tokens of `width` characters: the largest and smallest with `width`
    significant digits, one drawn at random, and the same values behind
    leading zeros."""
    pick = np.random.default_rng(width)
    out = ["9" * width, "1" + "0" * (width - 1), "".join(map(str, pick.integers(0, 10, width)))]
    for lead in (1, width // 2, width - 1):
        if 0 < lead < width:
            out.append("0" * lead + out[0][lead:])
            out.append("0" * lead + out[2][lead:])
    return out


class TestIntLineWindows:
    """Tokens against the 8-byte windows the parser reads: a window of the
    first token reaches into the padding before the line, and one after a
    short run of separators spans them and the token before."""

    @pytest.mark.parametrize("width", range(1, 26))
    def test_every_width_first_and_after_separators(self, width):
        before = ("7", "12345678901234567")
        for token in digit_runs(width):
            texts = [token, token + " 5"]
            for run in range(1, 11):
                for sep in (" " * run, "\t" * run, (" \t" * run)[:run]):
                    texts += [prev + sep + token for prev in before]
            for text in texts:
                assert outcome(ints_from_text, text) == outcome(ints_oracle, text), text

    @pytest.mark.parametrize("value", [
        *(10**k + d for k in range(1, 19) for d in (-1, 0)),
        2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64,
    ])
    def test_powers_alone_and_in_a_line(self, value):
        for text in (str(value), f"3 {value}", f"{value} 3", f"12\t\t{value} 0{value} 1"):
            assert outcome(ints_from_text, text) == outcome(ints_oracle, text), text

    @pytest.mark.parametrize("digits", range(1, 20))
    def test_format_at_every_digit_count(self, digits):
        pick = np.random.default_rng(digits)
        low, high = 10 ** (digits - 1), min(10**digits - 1, 2**63 - 1)
        values = [low, high, *pick.integers(low, high, 20, endpoint=True), 0, 7, 2**32 - 1]
        values = [v for v in values if v <= high]  # the widest value sets the row width
        assert ints_to_text(values) == " ".join(map(str, values))
        assert ints_from_text(ints_to_text(values)).tolist() == values


DIGIT_BOUNDARIES = (9, 10, 99, 100, 9999, 10000, 100000)


class TestPermText:
    @pytest.mark.parametrize("text", EDGE_LINES)
    def test_edge_lines(self, text):
        assert outcome(Permutation, text) == outcome(perm_from_text_oracle, text)

    @given(lines)
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_oracle(self, text):
        assert outcome(Permutation, text) == outcome(perm_from_text_oracle, text)

    @given(st.integers(1, 2000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_format_matches_oracle(self, n, seed):
        perm = Permutation(substream(seed).permutation(n) + 1)
        assert perm.to_text().encode() == perm_to_text_oracle(perm).encode()
        assert Permutation(perm.to_text()) == perm

    @pytest.mark.parametrize("n", DIGIT_BOUNDARIES)
    def test_format_across_digit_counts(self, n):
        perm = Permutation(substream(n).permutation(n) + 1)
        assert perm.to_text().encode() == perm_to_text_oracle(perm).encode()
        assert Permutation(perm.to_text()) == perm

    def test_six_digit_images(self):
        perm = Permutation(substream(6).permutation(10**5) + 1)
        text = perm_to_text_oracle(perm)
        assert perm.to_text().encode() == text.encode()
        assert Permutation(text) == perm_from_text_oracle(text) == perm


class TestTreeText:
    """Tree lines: parent labels of v_1..v_N-1, parsed as the CLI does."""

    @pytest.mark.parametrize("text", ("0 1 1", "0 0", "1", "0 2", *EDGE_LINES))
    def test_edge_lines(self, text):
        assert outcome(parse_tree, text) == outcome(tree_from_text_oracle, text)

    @given(lines)
    @settings(max_examples=200, deadline=None)
    def test_parse_matches_oracle(self, text):
        assert outcome(parse_tree, text) == outcome(tree_from_text_oracle, text)

    @given(st.integers(1, 500), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_format_matches_oracle(self, n, seed):
        path = pav.sample_uniform(n, substream(seed))
        text = cli._from_path("tree", path)
        assert text.encode() == tree_to_text_oracle(path).encode()
        assert trees.to_contour(parse_tree(text)) == path

    @pytest.mark.parametrize("n", DIGIT_BOUNDARIES)
    def test_format_across_digit_counts(self, n):
        # the stick U^(n+1) D^(n+1) has the parents 0..n: every digit count up to n's
        stick = pav.DyckPath([1] * (n + 1) + [-1] * (n + 1))
        for path in (pav.sample_uniform(n, substream(n)), stick):
            text = cli._from_path("tree", path)
            assert text.encode() == tree_to_text_oracle(path).encode()
            assert trees.to_contour(parse_tree(text)) == path

    def test_six_digit_labels(self):
        path = pav.sample_uniform(10**5, substream(5))
        text = cli._from_path("tree", path)
        assert text.encode() == tree_to_text_oracle(path).encode()
        tree = trees.OrderedTree(text)
        assert outcome(parse_tree, text) == outcome(tree_from_text_oracle, text)
        assert tree.to_text() == text and trees.to_contour(tree) == path

    def test_one_vertex_tree(self):
        tree = trees.OrderedTree("")
        assert tree.size == 1 and tree.to_text() == ""
