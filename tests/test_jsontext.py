"""The JSON writer of large arrays (`_jsontext.pieces`): its pieces join to
json's own text, indented and compact."""

import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gossipsim import _jsontext

BLOCK = _jsontext.NUMBERS_BLOCK
# around one block, and a block boundary three times over
LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1]
# numbers whose text is easy to get wrong: a negative zero, the smallest
# subnormal, a sum that prints 17 digits and a large exponent
FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 3.0000000000000004e-07, 1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))
INTS = st.one_of(st.integers(2 ** 31, 2 ** 63 - 1), st.integers(-2 ** 63, 2 ** 63 - 1))


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
    assert "".join(_jsontext.pieces(doc(), indent=2)) == json.dumps(want, indent=2)
    assert "".join(_jsontext.pieces(doc(), sort_keys=True)) == \
        json.dumps(want, sort_keys=True, separators=(",", ":"))


def test_a_piece_holds_a_block_of_numbers():
    """The numbers come a block to a piece, not a string each: four blocks
    and the closing bracket."""
    values = np.arange(3 * BLOCK + 1, dtype=float)
    assert len(list(_jsontext.pieces(values, indent=2))) == 4 + 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_number_is_refused(bad):
    """json would write NaN or Infinity, which is not JSON: refused."""
    with pytest.raises(ValueError, match="finite"):
        "".join(_jsontext.pieces({"a": np.array([1.0, bad])}))
