"""Streamed output: the bytes of json.dumps(obj, indent=2, sort_keys=True), written in batches.

`json.dumps` with an indent runs the pure-Python encoder and returns one
string, so a document of 16.8M entries (the change of basis at D = 12) is
held whole, in strings and in text, before the first byte is written.  Here
the document is written as it is walked, and any iterator stands where a
list goes: an exporter can hand over its rows one at a time.  A list of
plain ints or plain strs is encoded by one join.

Values may be dicts with str keys, lists, tuples, iterators, str, int,
bool and None; anything else, floats included, raises TypeError.
"""

from __future__ import annotations

# the C encoder that json.encoder uses, without the import of the json package
from _json import encode_basestring_ascii as _str
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

BATCH = 1 << 16  # characters per write; with unbuffered stdout each write is one system call


def _atom(o) -> str | None:
    """The text of a scalar, None for a container (or for a type the caller then refuses)."""
    if isinstance(o, str):
        return _str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return None


def _chunks(o, nl: str) -> Iterator[str]:
    """The text of o; nl is the newline plus the indent of the lines it continues on."""
    text = _atom(o)
    if text is not None:
        yield text
        return
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            yield "{}"
            return
        sep = "{" + inner
        for key in sorted(o):
            head = sep + _str(key) + ": "
            value = o[key]
            text = _atom(value)
            if text is None:
                yield head
                yield from _chunks(value, inner)
            else:
                yield head + text
            sep = "," + inner
        yield nl + "}"
        return
    if isinstance(o, (list, tuple)):
        kinds = set(map(type, o))
        if len(kinds) == 1 and (kind := kinds.pop()) in (str, int):
            encode = _str if kind is str else int.__repr__
            yield "[" + inner + ("," + inner).join(map(encode, o)) + nl + "]"
            return
    elif not isinstance(o, Iterator):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    sep = "[" + inner
    for item in o:
        text = _atom(item)
        if text is None:
            yield sep
            yield from _chunks(item, inner)
        else:
            yield sep + text
        sep = "," + inner
    yield "[]" if sep[0] == "[" else nl + "]"


def write_batched(pieces: Iterable[str], write: Callable[[str], object]) -> None:
    """Join pieces into writes of about BATCH characters each."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH:
            write("".join(batch))
            batch.clear()
            size = 0
    if batch:
        write("".join(batch))


def dump(obj, write: Callable[[str], object]) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) and a newline, as print would."""
    write_batched(chain(_chunks(obj, "\n"), ("\n",)), write)
