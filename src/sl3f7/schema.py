"""The sl3f7/v1 JSON document format: its tag and its envelope.

Every document is built by document(): by cli, one per subcommand, and by
scan.ScanSummary.to_json for the census.  The fields of each kind are stated
once, as a JSON Schema (draft 2020-12), in tests/sl3f7-v1.schema.json.
"""

from __future__ import annotations

SCHEMA = "sl3f7/v1"


def document(kind: str, **fields) -> dict:
    """{"schema": SCHEMA, "kind": kind} followed by the fields in the order given."""
    return {"schema": SCHEMA, "kind": kind, **fields}
