"""Structure documents: the textual serialization used by the CLI and
the corpus.

Documents are JSON with every scalar written as an exact decimal or
fraction string ("3", "-1/2"); floats are rejected on input so no
inexact value can enter. ``serialize(parse(doc)) == doc`` bit-exactly
for canonical documents.

Section names are generic (see :class:`homstruct.structures.Record`); the
kind tag fixes the interpretation through ``structures.KINDS``. Each
section is a nested list of exactly the shape ``structures.SECTION_FORMS``
gives its type at the document's dimension, read by
``structures.read_nested`` and written by ``structures.write_nested``; a
section of any other shape raises DocumentError naming it.
"""

from __future__ import annotations

import json
import os

from .errors import DocumentError, FieldError, ScalarParseError, ShapeError
from .fields import parse_field
from .linalg import LinearMap
from .structures import (KINDS, SECTION_FORMS, SECTION_TYPES, read_nested,
                         write_nested)

FORMAT_VERSION = 1


def _read(field, shape, arr, what):
    """``arr`` as nested tuples of exact scalars of ``shape`` (the field
    refuses floats); DocumentError naming ``what`` on a bad scalar or any
    other shape."""
    try:
        return read_nested(arr, shape, field.coerce, what)
    except (ScalarParseError, ShapeError) as exc:
        raise DocumentError(str(exc)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_version(doc):
    version = doc.get("format-version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format-version {version!r}")


def _parse_field(doc):
    descriptor = doc.get("field", "")
    if not isinstance(descriptor, str):
        raise DocumentError(f"bad field descriptor {descriptor!r}")
    try:
        return parse_field(descriptor)
    except FieldError as exc:
        raise DocumentError(f"bad field descriptor: {exc}") from exc


def document_to_structure(doc: dict):
    """Parse a document dict into exactly one structure. Each top-level
    field is type-checked before it is used; any defect raises
    DocumentError."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    _check_version(doc)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}")
    n = doc.get("dimension")
    if not _is_int(n) or n < 1:
        raise DocumentError("dimension must be a positive integer")
    field = _parse_field(doc)
    basis = doc.get("basis")
    if basis is not None and (not isinstance(basis, list) or len(basis) != n
                              or not all(isinstance(b, str) for b in basis)):
        raise DocumentError("basis labels must list one name per dimension")
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise DocumentError("metadata must be a JSON object")
    maps = doc.get("maps")
    if not isinstance(maps, dict):
        raise DocumentError("document has no maps object")
    record, required, optional = KINDS[kind]
    for name in required:
        if name not in maps:
            raise DocumentError(f"kind {kind} requires section {name!r}")
    for name in maps:
        if name not in required and name not in optional:
            raise DocumentError(f"section {name!r} not allowed for kind {kind}")

    parsed = {}
    for name, arr in maps.items():
        cls, _, shape_at = SECTION_FORMS[SECTION_TYPES[name]]
        parsed[name] = cls(field, _read(field, shape_at(n), arr,
                                        f"section {name!r}"))
    return record.from_sections(kind, parsed)


def structure_to_document(s, name=None, metadata=None) -> dict:
    """Serialize a structure (with optional metadata) into a document dict."""
    kind = s.kind
    if kind not in KINDS:
        raise DocumentError(f"cannot serialize kind {kind!r}")
    record, required, optional = KINDS[kind]
    if not isinstance(s, record):
        raise DocumentError(f"cannot serialize {type(s).__name__}")
    field = s.field
    n = s.dim
    maps = {}
    values = s.section_values()
    for section in required + optional:
        value = values.get(section)
        if value is None:
            if section in required:
                raise DocumentError(f"structure is missing section {section!r}")
            continue
        attr = SECTION_FORMS[SECTION_TYPES[section]][1]
        maps[section] = write_nested(getattr(value, attr), field.format)
    doc = {
        "format-version": FORMAT_VERSION,
        "kind": kind,
        "dimension": n,
        "field": field.name,
        "basis": [f"e{i + 1}" for i in range(n)],
        "maps": maps,
    }
    meta = dict(metadata or {})
    if name is not None:
        meta.setdefault("name", name)
    if meta:
        doc["metadata"] = meta
    return doc


def morphism_to_document(f: LinearMap, source: str, target: str,
                         metadata=None) -> dict:
    doc = {
        "format-version": FORMAT_VERSION,
        "type": "morphism",
        "field": f.field.name,
        "source": source,
        "target": target,
        "matrix": write_nested(f.rows, f.field.format),
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def document_to_morphism(doc: dict):
    """Returns (matrix, source fixture name, target fixture name)."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    _check_version(doc)
    if doc.get("type") != "morphism":
        raise DocumentError("not a morphism document")
    field = _parse_field(doc)
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or not matrix or \
            not isinstance(matrix[0], list) or not matrix[0]:
        raise DocumentError("morphism document has no matrix")
    rows = _read(field, (len(matrix), len(matrix[0])), matrix,
                 "morphism matrix")
    return LinearMap(field, rows), doc.get("source"), doc.get("target")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"


def loads(text: str) -> dict:
    """Parse JSON text; malformed or too deeply nested text raises
    DocumentError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("not valid JSON: nested too deeply") from exc


def load_path(path):
    """Parse the document at ``path``; a file that cannot be opened or is
    not UTF-8 raises DocumentError, like malformed content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def write_texts(items):
    """Write each ``(path, text)`` pair. Every path is first opened for
    appending, which changes no file, so a path that cannot be opened
    leaves all of them as they were; on any failure the files this call
    created are removed again. DocumentError names the path that could
    not be written."""
    created = [path for path, _ in items if not os.path.lexists(path)]
    try:
        for path, _ in items:
            open(path, "a", encoding="utf-8").close()
        for path, text in items:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        for done in filter(os.path.lexists, created):
            os.remove(done)
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def save_path(path, doc: dict):
    write_texts([(path, dumps(doc))])
