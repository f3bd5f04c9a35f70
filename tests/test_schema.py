import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from conftest import SCHEMA_FILE, check_document, schema_validator  # noqa: E402

GOLDEN_JSON = Path(__file__).parent / "golden" / "json"


def golden(name: str) -> dict:
    return json.loads((GOLDEN_JSON / f"{name}.json").read_text(encoding="utf-8"))


# the stdout of `sl3f7 classify "0 1 3; 0 0 1; 1 0 0" --format json`
CLASSIFY = golden("classify")
CENSUS = golden("census")
REDUCE = golden("reduce")
POWER_TABLE = golden("power-table")


def test_the_schema_is_a_draft_2020_12_schema():
    schema = json.loads(SCHEMA_FILE.read_text(encoding="utf-8"))
    assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    jsonschema.Draft202012Validator.check_schema(schema)


def test_every_golden_validates_and_every_kind_has_one():
    # the goldens cover all 13 kinds the CLI emits, and the schema names no other
    kinds = json.loads(SCHEMA_FILE.read_text(encoding="utf-8"))["properties"]["kind"]["enum"]
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in GOLDEN_JSON.glob("*.json")]
    for doc in docs:
        check_document(doc)
    assert sorted({doc["kind"] for doc in docs}) == sorted(kinds)


def _with_entry(doc: dict, field: str, index: int, **changes) -> dict:
    """doc with the entry at index of its list field changed; None drops a key."""
    entries = [dict(e) for e in doc[field]]
    entries[index].update(changes)
    entries[index] = {k: v for k, v in entries[index].items() if v is not None}
    return {**doc, field: entries}


def _without(doc: dict, field: str) -> dict:
    return {k: v for k, v in doc.items() if k != field}


# Each malformed document and the (path, keyword) of one error it must raise.
# The first eight are the old top-level cases; the four after them are nested
# rows the old check of top-level field types let through; the rest are the
# ranges the paper fixes, a field no kind has, and nullable fields left out.
@pytest.mark.parametrize("doc,path,keyword", [
    ([CLASSIFY], [], "type"),
    (_without(CLASSIFY, "schema"), [], "required"),
    ({**CLASSIFY, "schema": "sl3f7/v2"}, ["schema"], "const"),
    ({**CLASSIFY, "kind": "nosuchkind"}, ["kind"], "enum"),
    (_without(CLASSIFY, "order"), [], "required"),
    ({**CLASSIFY, "det": True}, ["det"], "type"),
    ({**CLASSIFY, "matrix": [0, 1, 3]}, ["matrix"], "type"),
    ({**CLASSIFY, "order": None}, ["order"], "type"),
    (_with_entry(CENSUS, "by_label", 3, count=None), ["by_label", 3], "required"),
    (_with_entry(CENSUS, "by_label", 5, i="x"), ["by_label", 5, "i"], "type"),
    (_with_entry(CENSUS, "by_label", 7, count="98784"), ["by_label", 7, "count"], "type"),
    (_with_entry(REDUCE, "steps", 0, side="up"), ["steps", 0, "side"], "enum"),
    ({**CLASSIFY, "det": 2}, ["det"], "const"),
    ({**CLASSIFY, "trace": 7}, ["trace"], "maximum"),
    ({**CLASSIFY, "label": [0, 7]}, ["label", 1], "maximum"),
    ({**CLASSIFY, "psl_label": [0, 1, 2]}, ["psl_label"], "items"),
    ({**CLASSIFY, "matrix": "0 1 3; 0 0 1"}, ["matrix"], "pattern"),
    ({**CLASSIFY, "matrix": "0 1 3; 0 0 1; 1 0 7"}, ["matrix"], "pattern"),
    ({**CLASSIFY, "matrix": "0 1 3; 0 0 1; 1 0 0\n"}, ["matrix"], "pattern"),
    (_with_entry(POWER_TABLE, "rows", 0, k=0), ["rows", 0, "k"], "minimum"),
    (_with_entry(POWER_TABLE, "rows", 0, k=121), ["rows", 0, "k"], "maximum"),
    ({**CLASSIFY, "extra": 0}, [], "additionalProperties"),
    (_without(CLASSIFY, "label"), [], "required"),
    (_without(golden("centralizer"), "elements"), [], "required"),
    (_without(golden("simconj-equivalent"), "certificate"), [], "required"),
], ids=["not-a-dict", "no-tag", "wrong-tag", "unknown-kind", "missing-field",
        "bool-for-int", "wrong-type", "null-required", "by-label-without-count",
        "by-label-string-i", "by-label-string-count", "step-side-up", "det-2", "trace-7",
        "label-j-7", "psl-label-of-three", "two-row-matrix", "matrix-entry-7",
        "matrix-newline", "k-0", "k-121",
        "unknown-field", "no-label", "no-elements", "no-certificate"])
def test_malformed_documents_raise(doc, path, keyword):
    with pytest.raises(jsonschema.ValidationError):
        check_document(doc)
    assert (path, keyword) in [(list(e.absolute_path), e.validator)
                               for e in _flat(schema_validator().iter_errors(doc))]


def _flat(errors):
    """The errors and, depth first, those of each anyOf branch they hold."""
    for error in errors:
        yield error
        yield from _flat(error.context)
