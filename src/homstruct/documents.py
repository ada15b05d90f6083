"""Structure documents: the textual serialization used by the CLI and
the corpus.

Documents are JSON with every scalar written as an exact decimal or
fraction string ("3", "-1/2"); floats are rejected on input so no
inexact value can enter. ``serialize(parse(doc)) == doc`` bit-exactly
for canonical documents.

Section names are generic (see :class:`homstruct.structures.Record`); the
kind tag fixes the interpretation through ``structures.KINDS``.
"""

from __future__ import annotations

import json
import os

from .errors import DocumentError, FieldError, ScalarParseError
from .fields import parse_field
from .linalg import CoproductTensor, LinearMap, ProductTensor, Vector
from .structures import KINDS, SECTION_TYPES

FORMAT_VERSION = 1


def _coerce(field, value):
    if isinstance(value, float):
        raise DocumentError("floating point literals are not allowed")
    try:
        return field.coerce(value)
    except ScalarParseError as exc:
        raise DocumentError(str(exc)) from exc


def _parse_product(field, n, arr) -> ProductTensor:
    try:
        c = tuple(tuple(tuple(_coerce(field, arr[i][j][k]) for k in range(n))
                        for j in range(n)) for i in range(n))
    except (IndexError, TypeError, KeyError) as exc:
        raise DocumentError("product section must be an n x n x n array") from exc
    _no_extra(arr, n, 3)
    return ProductTensor(field, c)


def _parse_coproduct(field, n, arr) -> CoproductTensor:
    try:
        d = tuple(tuple(tuple(_coerce(field, arr[k][i][j]) for j in range(n))
                        for i in range(n)) for k in range(n))
    except (IndexError, TypeError, KeyError) as exc:
        raise DocumentError("coproduct section must be an n x n x n array") from exc
    _no_extra(arr, n, 3)
    return CoproductTensor(field, d)


def _parse_matrix(field, rows_n, cols_n, arr) -> LinearMap:
    try:
        rows = tuple(tuple(_coerce(field, arr[i][j]) for j in range(cols_n))
                     for i in range(rows_n))
    except (IndexError, TypeError, KeyError) as exc:
        raise DocumentError("matrix section has the wrong shape") from exc
    if len(arr) != rows_n or any(not isinstance(r, list) or len(r) != cols_n
                                 for r in arr):
        raise DocumentError("matrix section has the wrong shape")
    return LinearMap(field, rows)


def _parse_vector(field, n, arr) -> Vector:
    if not isinstance(arr, list) or len(arr) != n:
        raise DocumentError("vector section must have n entries")
    return Vector(field, tuple(_coerce(field, x) for x in arr))


def _no_extra(arr, n, depth):
    if not isinstance(arr, list) or len(arr) != n:
        raise DocumentError("tensor section has the wrong shape")
    if depth > 1:
        for sub in arr:
            _no_extra(sub, n, depth - 1)


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

    parsed = {name: _PARSERS[SECTION_TYPES[name]](field, n, arr)
              for name, arr in maps.items()}
    return record.from_sections(kind, parsed)


def _format_product(field, p: ProductTensor):
    n = p.dim
    return [[[field.format(p.c[i][j][k]) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _format_coproduct(field, q: CoproductTensor):
    n = q.dim
    return [[[field.format(q.d[k][i][j]) for j in range(n)]
             for i in range(n)] for k in range(n)]


def _format_matrix(field, m: LinearMap):
    return [[field.format(x) for x in row] for row in m.rows]


def _format_vector(field, v: Vector):
    return [field.format(x) for x in v.coords]


# section type -> reader (field, n, array) and writer (field, value)
_PARSERS = {
    "product": _parse_product,
    "coproduct": _parse_coproduct,
    "counit": lambda field, n, arr: _parse_matrix(field, 1, n, arr),
    "matrix": lambda field, n, arr: _parse_matrix(field, n, n, arr),
    "vector": _parse_vector,
}
_FORMATTERS = {
    "product": _format_product,
    "coproduct": _format_coproduct,
    "counit": _format_matrix,
    "matrix": _format_matrix,
    "vector": _format_vector,
}


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
        maps[section] = _FORMATTERS[SECTION_TYPES[section]](field, value)
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
        "matrix": _format_matrix(f.field, f),
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
    return (_parse_matrix(field, len(matrix), len(matrix[0]), matrix),
            doc.get("source"), doc.get("target"))


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
