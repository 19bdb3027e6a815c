"""The streamed writer prints exactly what json.dumps(obj, indent=2, sort_keys=True) and print would."""

import json

import pytest

from trifourier import jsonout
from trifourier.cli import run_suite
from trifourier.family import build_family, family_to_json
from trifourier.fourier import change_of_basis
from trifourier.gf2 import IntervalLabel
from trifourier.nonabelian import nonabelian_ft


def dumped(obj) -> str:
    writes = []
    jsonout.dump(obj, writes.append)
    return "".join(writes)


def expected(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_cli_documents_match_json_dumps():
    fam = build_family(4)
    cob = change_of_basis(fam)
    docs = [
        family_to_json(fam),
        nonabelian_ft("s3").to_json(),
        nonabelian_ft("s5").to_json(),
        run_suite(4, "all").to_json(),
    ]
    for doc in docs:
        assert dumped(doc) == expected(doc)
    # the matrix document's rows are an iterator, written once
    assert dumped(cob.to_json()) == expected({**cob.to_json(), "entries": list(cob.to_json()["entries"])})


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {"b": {}}],
        True, False, None, 0, -7, "∅", 'a "quote"', "back\\slash", "new\nline", "",
        [True, False, None], [-1, 0, 2**70], ["∅", '"', "\\", "\n"],
        (1, 2), ("x", (3, "y")), {"t": (), "u": (True,)},
        [1, "1", None, [2], {"k": -3}, True],
        {"z": 1, "a": [1, 2], "m": {"y": "∅", "b": None}},
        # The encoder renders each dict shape, each string and each flat list once per
        # dump; these documents reuse a shape, a string or a list form where the memo
        # must not carry text from one place to another.
        # one key set in two insertion orders at one depth
        [{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": [5], "a": {}}],
        {"x": {"k": 1, "j": 2}, "y": {"j": 3, "k": 4}},
        # one key set at two depths
        {"a": 1, "b": {"a": 2, "b": {"a": [3], "b": {"a": None, "b": "b"}}}},
        [{"k": 1}, [{"k": 2}], [[{"k": 3}]]],
        # one string as a key and as a value, in lists and in lists of lists
        {"x": "x", "y": ["x", "y"], "z": {"x": "z"}, "w": [["x"], ["w", "z"]]},
        {"∅": "∅", "q": ['"', "∅"], '"': "q"},
        # bool is not int: inside int lists and lists of lists
        [1, True], [[1, True]], [[1], [True]], [[0], [False, None]], {"b": [[True], [1, 2]]},
        [[True], [False, True]], [["a"], [True]],
        # a list that starts with a str and holds other values
        ["a", 1], ["a", True], ["a", None], ["a", ["b"]], ["a", ("b",)], ["a", {"a": "b"}], ("a", "b", 0),
        # a NamedTuple and plain tuples inside lists
        [IntervalLabel(1, 3), IntervalLabel(2, 2)],
        {"i": [IntervalLabel(4, 10), (5, 9), [6, 6]], "t": ((1, 2), ("a",))},
        [(1, 2), (3,)], [("a", "b"), ()], [[1], (2, 3)], [IntervalLabel(1, 1), "x"],
        # lists of lists that mix empty and non-empty members
        [[], [1], []], [["a"], [], ["b", "c"]], [[], []], [(), [1]], [[], ["a"], [1]],
        {"iprime": [[6], [8], [5, 6, 7]], "intervals": [], "rows": [[], [[]]]},
    ],
)
def test_edge_cases_match_json_dumps(obj):
    assert dumped(obj) == expected(obj)


@pytest.mark.parametrize("items", [[], [1, 2], [[], ["a"], {"k": [3]}]])
def test_iterator_is_written_as_a_list(items):
    doc = {"rows": iter(items), "n": len(items)}
    assert dumped(doc) == expected({"rows": items, "n": len(items)})
    assert dumped(iter(items)) == expected(items)
    assert dumped([iter(items), (x for x in [iter(items)])]) == expected([items, [items]])


@pytest.mark.parametrize("obj", [1.5, [0.0], {"x": [1, 2.5]}, {1, 2}, b"bytes", ["x", 2.5], ["x", b"y"]])
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumped(obj)


def test_writes_are_batched():
    # 200 dicts, each one piece of about 3.7 K characters (a list of lists would be one piece)
    doc = {"rows": [{"row": [str(i)] * 300} for i in range(200)]}
    writes = []
    jsonout.dump(doc, writes.append)
    assert "".join(writes) == expected(doc)
    assert len(writes) > 3
    assert all(len(w) >= jsonout.BATCH for w in writes[:-1])
    assert all(len(w) < 2 * jsonout.BATCH for w in writes)


def assert_batched(writes: list[str]) -> None:
    assert all(len(w) >= jsonout.BATCH for w in writes[:-1])
    assert writes[-1]


def test_iterator_of_rows_longer_than_two_batches():
    # about 6 BATCH of text, every row one join, written while the iterator runs
    rows = [[f"{i}/{j}" for j in range(200)] for i in range(150)]
    writes = []
    written_before = []

    def row_iterator():
        for row in rows:
            written_before.append(sum(map(len, writes)))
            yield row

    jsonout.dump({"n": len(rows), "rows": row_iterator()}, writes.append)
    text = "".join(writes)
    assert text == expected({"n": len(rows), "rows": rows})
    assert len(text) > 5 * jsonout.BATCH
    assert written_before[-1] > len(text) - 2 * jsonout.BATCH
    assert_batched(writes)


@pytest.mark.parametrize("length", [5, 2 * jsonout.BATCH, 5 * jsonout.BATCH])
def test_one_long_piece_is_written_whole(length):
    # one flat list, and one CSV line, longer than a batch: the piece goes out in one write
    ints = list(range(length // 10))
    writes = []
    jsonout.dump(ints, writes.append)
    assert writes == [expected(ints)]
    lines = ["x" * length + "\n", "y\n"]
    writes = []
    jsonout.write_batched(iter(lines), writes.append)
    assert writes == (lines if length >= jsonout.BATCH else ["".join(lines)])
