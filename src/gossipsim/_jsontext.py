"""The package's JSON writer: documents in pieces, large arrays included.

`pieces(doc, indent)` yields strings whose join is exactly
`json.dumps(doc, indent=indent, separators=..., sort_keys=...)` of `doc` in
plain JSON types, where a tuple, an iterator and a 1-D numpy array stand
for the list of their items. It owns the one rule for what JSON has no
plain type for: a numpy scalar is written as the Python number it holds,
and a non-finite float, a scalar or an array element, as its `repr` in a
string ("inf", "-inf", "nan"). An array is rendered `NUMBERS_BLOCK`
numbers at a time with `int.__repr__` and `float.__repr__`, json's own
text for finite numbers, so a document of many stored entries never
becomes one Python string an entry. Every JSON document the package
writes comes from here: the config record (`montecarlo.config_hash` and
the run manifest), the JSON matrix export and the command outputs, down to
`simulate`'s trials as they are read back.
"""

from __future__ import annotations

import json
import math
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
    TypeError
        A value json cannot write either.
    """
    if isinstance(value, dict):
        yield from _members(value, indent, sort_keys, level)
    elif isinstance(value, (list, tuple, Iterator)):
        yield from _items(iter(value), indent, sort_keys, level)
    elif isinstance(value, np.ndarray):
        yield from _numbers(value, indent, level)
    else:
        yield _scalar(value)


def _scalar(value) -> str:
    """A number, a string, a bool or None, as json writes it in plain
    types."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    return json.dumps(value)


def _float_text(f: float) -> str:
    """json's number, or for a non-finite float its `repr` in a string."""
    return float.__repr__(f) if math.isfinite(f) else f'"{f!r}"'


def _newline(indent: int | None, level: int) -> str:
    return "\n" + " " * (indent * level) if indent is not None else ""


def _members(value: dict, indent, sort_keys, level) -> Iterator[str]:
    """A dict, as json's encoder writes it; a key that is not a string as
    json's text of it, in a string."""
    if not value:
        yield "{}"
        return
    inner = _newline(indent, level + 1)
    items = sorted(value.items(), key=lambda item: item[0]) if sort_keys else value.items()
    for k, (key, item) in enumerate(items):
        yield ("{" if k == 0 else ",") + inner \
            + json.dumps(key if isinstance(key, str) else json.dumps(key)) \
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
    floats = values.dtype.kind == "f"
    for start in range(0, len(values), NUMBERS_BLOCK):
        block = values[start:start + NUMBERS_BLOCK]
        text = int.__repr__ if not floats else \
            float.__repr__ if np.isfinite(block).all() else _float_text
        yield ("," if start else "[") + inner + ("," + inner).join(map(text, block.tolist()))
    yield _newline(indent, level) + "]"
