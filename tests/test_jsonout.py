"""The streamed writer prints exactly what json.dumps(obj, indent=2, sort_keys=True) and print would."""

import json

import pytest

from trifourier import jsonout
from trifourier.cli import run_suite
from trifourier.family import build_family, family_to_json
from trifourier.fourier import change_of_basis
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


@pytest.mark.parametrize("obj", [1.5, [0.0], {"x": [1, 2.5]}, {1, 2}, b"bytes"])
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumped(obj)


def test_writes_are_batched():
    doc = {"rows": [[str(i)] * 300 for i in range(200)]}
    writes = []
    jsonout.dump(doc, writes.append)
    assert "".join(writes) == expected(doc)
    assert len(writes) > 3
    assert all(len(w) >= jsonout.BATCH for w in writes[:-1])
    assert all(len(w) < 2 * jsonout.BATCH for w in writes)
