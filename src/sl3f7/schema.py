"""The sl3f7/v1 JSON document format: its tag, its envelope and the fields
each kind of document requires.

Every document is built by document(): by cli, one per subcommand, and by
scan.ScanSummary.to_json for the census.  validate_document() checks one
against the required fields below.
"""

from __future__ import annotations

SCHEMA = "sl3f7/v1"


def document(kind: str, **fields) -> dict:
    """{"schema": SCHEMA, "kind": kind} followed by the fields in the order given."""
    return {"schema": SCHEMA, "kind": kind, **fields}


# kind -> {field: required type}; optional fields may be null and are listed
# in _NULLABLE.
REQUIRED_FIELDS: dict[str, dict[str, type]] = {
    "classify": {
        "matrix": str, "det": int, "trace": int, "char_poly": dict,
        "eigenfree": bool, "order": int,
    },
    "labels": {"labels": list},
    "census": {"group_order": int, "eigenfree_total": int, "by_trace": dict, "by_label": list},
    "centralizer": {"subject": str, "size": int, "is_cyclic": bool},
    "class_size": {"subject": str, "centralizer_size": int, "class_size": int},
    "sylow": {"count": int, "order19_elements": int},
    "normalizer": {"subject": str, "size": int, "index_over_subgroup": int},
    "parabolic": {"size": int, "index": int},
    "closure": {"generators": list, "size": int},
    "reduction": {"start": str, "target": str, "steps": list, "verified": bool},
    "commuting_reps": {"reps": list},
    "power_table": {"rows": list},
    "simconj": {"equivalent": bool},
}

_NULLABLE = {
    ("classify", "label"), ("classify", "psl_label"),
    ("centralizer", "generator"), ("centralizer", "elements"),
    ("simconj", "witness"), ("simconj", "certificate"),
}


class SchemaError(ValueError):
    """Document does not conform to sl3f7/v1."""


def validate_document(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"missing or wrong schema tag: {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in REQUIRED_FIELDS:
        raise SchemaError(f"unknown document kind: {kind!r}")
    for name, typ in REQUIRED_FIELDS[kind].items():
        if name not in doc:
            raise SchemaError(f"{kind}: missing field {name!r}")
        value = doc[name]
        if value is None and (kind, name) in _NULLABLE:
            continue
        if typ is int and isinstance(value, bool):
            raise SchemaError(f"{kind}.{name}: expected int, got bool")
        if not isinstance(value, typ):
            raise SchemaError(f"{kind}.{name}: expected {typ.__name__}, got {type(value).__name__}")
