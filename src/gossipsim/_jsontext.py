"""JSON text in pieces, for documents that hold large arrays of numbers.

`pieces(doc, indent)` yields strings whose join is exactly
`json.dumps(doc, indent=indent, separators=..., sort_keys=...)`, where a
1-D numpy array in `doc` stands for the list of its numbers and an iterator
for the list of its items. An array is rendered `NUMBERS_BLOCK` numbers at a
time with `int.__repr__` and `float.__repr__`, json's own text for finite
numbers, so a document of many stored entries never becomes one Python
string an entry; everything else goes through `json.dumps` itself. The
config record (`montecarlo.config_hash` and the run manifest) and the JSON
matrix export are written this way.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

__all__ = ["pieces"]

# numbers of an array rendered into one piece
NUMBERS_BLOCK = 1 << 10


def pieces(value, indent: int | None = None, sort_keys: bool = False,
           level: int = 0) -> Iterator[str]:
    """The text of `value` in pieces: `json.dumps` with `indent` and the
    separators (",", ": "), or with `indent` None compact, (",", ":").
    `level` is the depth `value` sits at in an indented document.

    Raises
    ------
    ValueError
        A non-finite number in an array, which json would write as NaN or
        Infinity.
    """
    if isinstance(value, np.ndarray):
        yield from _numbers(value, indent, level)
    elif isinstance(value, Iterator):
        yield from _items(value, indent, sort_keys, level)
    elif isinstance(value, dict) and any(map(_streamed, value.values())):
        yield from _members(value, indent, sort_keys, level)
    elif isinstance(value, (list, tuple)) and any(map(_streamed, value)):
        yield from _items(iter(value), indent, sort_keys, level)
    else:
        text = json.dumps(value, indent=indent, sort_keys=sort_keys,
                          separators=(",", ": " if indent is not None else ":"))
        yield text.replace("\n", _newline(indent, level)) if indent and level else text


def _streamed(value) -> bool:
    """Whether `value` holds an array or an iterator, which `pieces` renders
    itself."""
    if isinstance(value, (np.ndarray, Iterator)):
        return True
    if isinstance(value, dict):
        return any(map(_streamed, value.values()))
    return isinstance(value, (list, tuple)) and any(map(_streamed, value))


def _newline(indent: int | None, level: int) -> str:
    return "\n" + " " * (indent * level) if indent is not None else ""


def _members(value: dict, indent, sort_keys, level) -> Iterator[str]:
    """A dict, as json's encoder writes it."""
    if not value:
        yield "{}"
        return
    inner = _newline(indent, level + 1)
    items = sorted(value.items(), key=lambda item: item[0]) if sort_keys else value.items()
    for k, (key, item) in enumerate(items):
        yield ("{" if k == 0 else ",") + inner + json.dumps(key) \
            + (": " if indent is not None else ":")
        yield from pieces(item, indent, sort_keys, level + 1)
    yield _newline(indent, level) + "}"


def _items(values: Iterator, indent, sort_keys, level) -> Iterator[str]:
    """A list of the items `values` yields, as json's encoder writes it."""
    inner = _newline(indent, level + 1)
    first = True
    for item in values:
        yield ("[" if first else ",") + inner
        first = False
        yield from pieces(item, indent, sort_keys, level + 1)
    yield "[]" if first else _newline(indent, level) + "]"


def _numbers(values: np.ndarray, indent, level) -> Iterator[str]:
    """A 1-D array of integers or floats as a list of its numbers, a block
    of `NUMBERS_BLOCK` at a time."""
    if not len(values):
        yield "[]"
        return
    inner = _newline(indent, level + 1)
    text = float.__repr__ if values.dtype.kind == "f" else int.__repr__
    for start in range(0, len(values), NUMBERS_BLOCK):
        block = values[start:start + NUMBERS_BLOCK]
        if block.dtype.kind == "f" and not np.isfinite(block).all():
            raise ValueError("a JSON number must be finite")
        yield ("," if start else "[") + inner + ("," + inner).join(map(text, block.tolist()))
    yield _newline(indent, level) + "]"
