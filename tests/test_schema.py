import json
from pathlib import Path

import pytest

from sl3f7.schema import SchemaError, validate_document

# the stdout of `sl3f7 classify "0 1 3; 0 0 1; 1 0 0" --format json`
CLASSIFY = json.loads((Path(__file__).parent / "golden" / "json" / "classify.json").read_text())


@pytest.mark.parametrize("doc,message", [
    ([CLASSIFY], "document must be a JSON object"),
    ({k: v for k, v in CLASSIFY.items() if k != "schema"}, "missing or wrong schema tag: None"),
    ({**CLASSIFY, "schema": "sl3f7/v2"}, "missing or wrong schema tag: 'sl3f7/v2'"),
    ({**CLASSIFY, "kind": "nosuchkind"}, "unknown document kind: 'nosuchkind'"),
    ({k: v for k, v in CLASSIFY.items() if k != "order"}, "classify: missing field 'order'"),
    ({**CLASSIFY, "det": True}, "classify.det: expected int, got bool"),
    ({**CLASSIFY, "matrix": [0, 1, 3]}, "classify.matrix: expected str, got list"),
    ({**CLASSIFY, "order": None}, "classify.order: expected int, got NoneType"),
], ids=["not-a-dict", "no-tag", "wrong-tag", "unknown-kind", "missing-field",
        "bool-for-int", "wrong-type", "null-required"])
def test_malformed_documents_raise(doc, message):
    with pytest.raises(SchemaError) as error:
        validate_document(doc)
    assert str(error.value) == message

