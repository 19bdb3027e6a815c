"""Streamed output: the bytes of json.dumps(obj, indent=2, sort_keys=True), written in batches.

`json.dumps` with an indent runs the pure-Python encoder and returns one
string, so a document of 16.8M entries (the change of basis at D = 12) is
held whole, in strings and in text, before the first byte is written.  Here
one recursive encoder walks the document and appends its text to a batch
that is written whenever it reaches BATCH characters, and any iterator
stands where a list goes: an exporter can hand over its rows one at a time.

Within one dump the encoder quotes each distinct string once, sorts and
renders the keys of each dict shape (its keys in insertion order, at one
indent) once, and writes a list of plain ints or plain strs, or a list of
such lists, by one join.

Values may be dicts with str keys, lists, tuples, iterators, str, int,
bool and None; anything else, floats included, raises TypeError.
"""

from __future__ import annotations

# the C encoder that json.encoder uses, without the import of the json package
from _json import encode_basestring_ascii as _str
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, repeat

BATCH = 1 << 16  # least characters per write but the last: one call of write per batch, not per piece


class _Memo(dict):
    """f(key), computed on the first lookup of each key."""

    def __init__(self, f: Callable):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


class _Batches:
    """Text joined into writes of at least BATCH characters, the last one possibly shorter."""

    def __init__(self, write: Callable[[str], object]):
        self.write = write
        self.parts: list[str] = []
        self.size = 0

    def add(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= BATCH:
            self.flush()

    def flush(self) -> None:
        """Write what is held, in one write."""
        text = "".join(self.parts)
        self.parts.clear()
        self.size = 0
        if text:
            self.write(text)


def write_batched(pieces: Iterable[str], write: Callable[[str], object]) -> None:
    """Join pieces into writes of at least BATCH characters, the last one possibly shorter."""
    batches = _Batches(write)
    for piece in pieces:
        batches.add(piece)
    batches.flush()


def _list_layout(nl: str) -> tuple[str, str, str]:
    """The text before, between and after the items of a list whose last line starts with nl."""
    inner = nl + "  "
    return "[" + inner, "," + inner, nl + "]"


def _grid_layout(nl: str) -> tuple[str, str, str, str]:
    """The same for a list of non-empty lists: before the first item, between two
    rows, between two items of a row, and after the last item."""
    inner = nl + "  "
    deeper = inner + "  "
    return "[" + inner + "[" + deeper, inner + "]," + inner + "[" + deeper, "," + deeper, inner + "]" + nl + "]"


def dump(obj, write: Callable[[str], object]) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) and a newline, as print would."""
    batches = _Batches(write)
    emit = batches.add
    quoted = _Memo(_str)  # str -> its JSON text
    lists = _Memo(_list_layout)
    grids = _Memo(_grid_layout)
    INT, STR, LIST = {int}, {str}, {list}

    def heads(shape: tuple[tuple[str, ...], str]) -> list[tuple[str, str]]:
        """The sorted keys of a dict shape, each with the text that leads to its value."""
        keys, inner = shape
        return [(key, ("," if i else "{") + inner + quoted[key] + ": ") for i, key in enumerate(sorted(keys))]

    shapes = _Memo(heads)  # (keys in insertion order, indent) -> sorted (key, head) pairs

    def leaf(o, nl: str) -> str | None:
        """The text of a scalar, of a list of plain ints or strs, or of a list of such
        lists; None for any other value.  nl is the newline and indent of o's last line."""
        kind = type(o)
        if kind is str:
            return quoted[o]
        if kind is int:
            return int.__repr__(o)
        if kind is not list:
            if kind is dict:
                return None
            if o is None:
                return "null"
            if o is True:
                return "true"
            if o is False:
                return "false"
            if isinstance(o, str):
                return quoted[o]
            if isinstance(o, int):
                return int.__repr__(o)
            if not isinstance(o, (list, tuple)):
                return None
        if not o:
            return "[]"
        if type(o[0]) is str:
            before, between, after = lists[nl]
            try:  # quoting raises TypeError on anything but a str, so no item needs a type check
                return before + between.join(map(quoted.__getitem__, o)) + after
            except TypeError:
                pass
        kinds = set(map(type, o))
        if kinds == INT:
            before, between, after = lists[nl]
            return before + between.join(map(int.__repr__, o)) + after
        if kinds != LIST:
            for kind in kinds:
                if not issubclass(kind, (list, tuple)):
                    return None
        kinds = set(map(type, chain.from_iterable(o)))
        if (kinds != INT and kinds != STR) or not all(o):
            return None  # encode writes an empty row as "[]"
        before, between_rows, between, after = grids[nl]
        rows = map(between.join, map(map, repeat(int.__repr__ if kinds == INT else quoted.__getitem__), o))
        return before + between_rows.join(rows) + after

    def encode(o, nl: str, head: str) -> None:
        """Emit head and then the text of o, a value that leaf leaves to it."""
        inner = nl + "  "
        if isinstance(o, dict):
            if not o:
                emit(head + "{}")
                return
            parts = [head]
            for key, lead in shapes[tuple(o), inner]:
                value = o[key]
                text = int.__repr__(value) if type(value) is int else leaf(value, inner)
                if text is None:
                    emit("".join(parts))
                    encode(value, inner, lead)
                    parts = []
                else:
                    parts.append(lead + text)
            parts.append(nl + "}")
            emit("".join(parts))
            return
        if not isinstance(o, (list, tuple, Iterator)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        before, between, after = lists[nl]
        sep = head + before
        empty = True
        for item in o:
            text = None if type(item) is dict else leaf(item, inner)
            if text is None:
                encode(item, inner, sep)
            else:
                emit(sep + text)
            sep = between
            empty = False
        emit(head + "[]" if empty else after)

    text = leaf(obj, "\n")
    if text is None:
        encode(obj, "\n", "")
        emit("\n")
    else:
        emit(text + "\n")
    batches.flush()
