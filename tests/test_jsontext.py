"""The package's JSON writer (`_jsontext.pieces`): its pieces join to json's
own text, indented and compact, of the document in plain JSON types."""

import json
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import assert_same_text
from gossipsim import _jsontext

BLOCK = _jsontext.NUMBERS_BLOCK
# around one block, and a block boundary three times over
LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1]
# numbers whose text is easy to get wrong: a negative zero, the smallest
# subnormal, a sum that prints 17 digits and a large exponent
FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 3.0000000000000004e-07, 1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))
INTS = st.one_of(st.integers(2 ** 31, 2 ** 63 - 1), st.integers(-2 ** 63, 2 ** 63 - 1))


def json_safe(value):
    """Recursively convert to plain JSON types; non-finite floats to strings.
    The oracle of `pieces`' rule for what JSON has no plain type for."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else repr(f)
    return value


def plain(value):
    """`value` with every array and iterator as a list, as json takes it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)) or hasattr(value, "__next__"):
        return [plain(v) for v in value]
    return value


@given(length=st.sampled_from(LENGTHS), floats=st.lists(FLOATS, min_size=1, max_size=6),
       ints=st.lists(INTS, min_size=1, max_size=6))
@example(length=3 * BLOCK + 1, floats=[-0.0, 5e-324, 3.0000000000000004e-07, 1e300],
         ints=[2 ** 31, 2 ** 63 - 1, -2 ** 63])
def test_pieces_join_to_the_indented_and_the_compact_sorted_text(length, floats, ints):
    """An entries record and arrays nested in lists, dicts and an iterator
    of rows: `indent=2` gives `json.dumps(doc, indent=2)` and the compact
    form `json.dumps(doc, sort_keys=True, separators=(",", ":"))`, the
    manifest's and `configHash`'s texts."""
    a = np.resize(np.array(floats), length)
    big = np.resize(np.array(ints, dtype=np.int64), length)

    def doc():
        return {
            "matrix": {"kind": "entries", "n": 5, "i": big, "j": big.astype(np.int32) // 7
                       if length else np.zeros(0, np.int32), "a": a},
            "zeta": [{"x": 1.5, "y": None, "s": "café \"quoted\""}, [], {}],
            "rows": (a[k:k + 3] for k in range(0, min(length, 9), 3)),
            "empty": {"nothing": np.zeros(0), "none": iter(())},
            "bigM": None,
        }

    want = plain(doc())
    assert_same_text("".join(_jsontext.pieces(doc(), indent=2)), json.dumps(want, indent=2))
    assert_same_text("".join(_jsontext.pieces(doc(), sort_keys=True)),
                     json.dumps(want, sort_keys=True, separators=(",", ":")))


def test_a_piece_holds_a_block_of_numbers():
    """The numbers come a block to a piece, not a string each: four blocks
    and the closing bracket."""
    values = np.arange(3 * BLOCK + 1, dtype=float)
    assert len(list(_jsontext.pieces(values, indent=2))) == 4 + 1


NON_FINITE = st.sampled_from([np.inf, -np.inf, np.nan])
ANY_FLOAT = st.one_of(NON_FINITE, FLOATS)
SCALARS = st.one_of(
    st.none(), st.text(max_size=3), st.booleans(), st.booleans().map(np.bool_),
    INTS, INTS.map(np.int64), st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    ANY_FLOAT, ANY_FLOAT.map(np.float64))
ARRAYS = st.one_of(st.lists(ANY_FLOAT, max_size=5).map(lambda v: np.array(v, dtype=float)),
                   st.lists(INTS, max_size=5).map(lambda v: np.array(v, dtype=np.int64)))
DOCS = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200)
@given(doc=DOCS, indent=st.sampled_from([None, 2]), sort_keys=st.booleans())
@example(doc={"b": [np.float64(np.nan), (np.int64(-3), np.bool_(True))],
              "a": np.resize(np.array([1.5, np.inf, -np.inf, np.nan]), 2 * BLOCK + 1)},
         indent=2, sort_keys=True)
@example(doc=[{"x": np.array([-np.inf, 0.0]), "L": np.inf}, -np.inf], indent=None,
         sort_keys=False)
def test_numpy_scalars_and_non_finite_floats_are_written_as_json_safe_has_them(
        doc, indent, sort_keys):
    """Nested dicts, lists and tuples of ints, numpy ints, bools and floats,
    and 1-D arrays: the pieces join to json's text of the document in plain
    JSON types (`json_safe`), numpy scalars as Python numbers and each
    non-finite float, a scalar or an array element, as its `repr` in a
    string."""
    want = json.dumps(json_safe(plain(doc)), indent=indent, sort_keys=sort_keys,
                      separators=(",", ": " if indent is not None else ":"))
    assert_same_text("".join(_jsontext.pieces(doc, indent, sort_keys)), want)
