"""Versioned, non-executable wire format for the client/server socket seam.

PR 5's persistent evaluation server shipped every control frame as a pickle,
which means any socket that can reach the server can execute arbitrary bytes
during ``pickle.loads``.  This module replaces that seam with a tagged-JSON
envelope::

    {"v": 1, "kind": "<request kind>", "payload": <tagged value>}

Scalars (``str``/``int``/``float``/``bool``/``None``) pass through as JSON
scalars.  Every container and every domain object becomes a *tagged array*
whose first element names the shape (``"T"`` tuple, ``"L"`` list, ``"S"``
set, ``"F"`` frozenset, ``"D"`` dict, ``"B"`` base64 bytes, plus one tag per
domain value type).  Raw JSON objects appear only as the outer envelope, so a
decoder never has to guess whether a ``dict`` is data or structure.

Decoding is a strict whitelist: unknown tags, malformed arity, or values a
domain constructor rejects raise :class:`WireFormatError` — nothing on this
path ever reaches ``pickle.loads``.  Encoding is deterministic (set members
are ordered by their encoded form) so two structurally-identical payloads
produce identical bytes; the server's batch coalescer keys on that digest.

The trusted pipe path to shard workers intentionally keeps the pickle codec
(see ``protocol.PickleCodec``): workers are spawned by the coordinator and
their frames never leave a multiprocessing pipe.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from typing import Any, Callable, Dict, List, Tuple

WIRE_VERSION = 2

# Nesting deeper than this is rejected outright.  Legitimate payloads are a
# handful of levels deep (envelope -> tuple -> rows -> tuple); the guard is
# for hostile frames such as ["L",["L",["L", ...]]] * 100k which would
# otherwise turn the recursive decoder into a stack bomb.
MAX_WIRE_DEPTH = 48


class WireFormatError(ValueError):
    """A frame violates the versioned wire format.

    Raised for malformed JSON, unknown tags, bad arity, values a domain
    constructor rejects, or nesting past :data:`MAX_WIRE_DEPTH`.  The type
    name crosses the wire, so clients can match on it.
    """


def _domain_types() -> Dict[type, str]:
    """Map domain value types to their wire tags.

    Imported lazily so ``protocol.py`` (and the worker bootstrap path) never
    pulls the logic/learning packages just to frame a pickle.
    """
    from ..database.constraints import FunctionalDependency, InclusionDependency
    from ..database.delta import Delta
    from ..database.schema import RelationSchema, Schema
    from ..learning.bottom_clause import BottomClauseConfig
    from ..learning.examples import Example
    from ..logic.atoms import Atom
    from ..logic.clauses import HornClause
    from ..logic.terms import Constant, Variable
    from .worker import InstancePayload

    return {
        Variable: "var",
        Constant: "const",
        Atom: "atom",
        HornClause: "clause",
        Example: "example",
        RelationSchema: "relschema",
        Schema: "schema",
        FunctionalDependency: "fd",
        InclusionDependency: "ind",
        BottomClauseConfig: "bcconfig",
        InstancePayload: "instpayload",
        Delta: "delta",
    }


_TYPE_TAGS: Dict[type, str] = {}
_DECODERS: Dict[str, Callable[[List[Any], int], Any]] = {}


def _ensure_tables() -> None:
    if not _TYPE_TAGS:
        _TYPE_TAGS.update(_domain_types())
        _DECODERS.update(_build_decoders())


# ---------------------------------------------------------------------------
# Encoding


def encode_value(value: Any, depth: int = 0) -> Any:
    """Encode ``value`` into the tagged-JSON representation."""
    if depth > MAX_WIRE_DEPTH:
        raise WireFormatError(f"value nests deeper than {MAX_WIRE_DEPTH} levels")
    # bool before int: bool is an int subclass but must stay a JSON bool.
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    kind = type(value)
    if kind is tuple:
        return ["T", *(encode_value(v, depth + 1) for v in value)]
    if kind is list:
        return ["L", *(encode_value(v, depth + 1) for v in value)]
    if kind in (set, frozenset):
        tag = "S" if kind is set else "F"
        encoded = [encode_value(v, depth + 1) for v in value]
        # Deterministic member order: identical sets must encode to
        # identical bytes so coalescing digests are stable across clients.
        encoded.sort(key=lambda item: json.dumps(item, separators=(",", ":")))
        return [tag, *encoded]
    if kind is dict:
        return [
            "D",
            *(
                [encode_value(k, depth + 1), encode_value(v, depth + 1)]
                for k, v in value.items()
            ),
        ]
    if kind is bytes:
        return ["B", base64.b64encode(value).decode("ascii")]
    _ensure_tables()
    tag = _TYPE_TAGS.get(kind)
    if tag is None:
        raise WireFormatError(
            f"type {kind.__name__!r} is not representable on the wire"
        )
    return [tag, *_encode_domain(tag, value, depth + 1)]


def _encode_domain(tag: str, value: Any, depth: int) -> List[Any]:
    enc = lambda v: encode_value(v, depth)  # noqa: E731
    if tag == "var":
        return [value.name]
    if tag == "const":
        return [enc(value.value)]
    if tag == "atom":
        return [value.predicate, enc(list(value.terms))]
    if tag == "clause":
        return [enc(value.head), enc(list(value.body))]
    if tag == "example":
        return [value.target, enc(list(value.values)), value.positive]
    if tag == "relschema":
        return [value.name, enc(list(value.attributes))]
    if tag == "schema":
        return [
            value.name,
            enc(list(value.relations)),
            enc(list(value.functional_dependencies)),
            enc(list(value.inclusion_dependencies)),
        ]
    if tag == "fd":
        return [value.relation, enc(list(value.lhs)), enc(list(value.rhs))]
    if tag == "ind":
        return [
            value.left,
            enc(list(value.left_attrs)),
            value.right,
            enc(list(value.right_attrs)),
            value.with_equality,
        ]
    if tag == "bcconfig":
        return [
            value.max_depth,
            value.max_distinct_variables,
            value.max_literals_per_relation_per_tuple,
            value.max_total_literals,
            value.theory_constant_threshold,
        ]
    if tag == "delta":
        # Delta rows are flat tuples of scalars in practice; reuse the
        # payload row fast path rather than per-cell recursion.
        return [
            [
                op,
                relation,
                [_encode_row(row, depth) for row in rows],
            ]
            for op, relation, rows in value.ops
        ]
    if tag == "instpayload":
        # Rows dominate payload size; encode them with a scalar fast path
        # (a row is a flat tuple of scalars) instead of per-cell recursion.
        rows_obj = {
            name: [_encode_row(row, depth) for row in rows]
            for name, rows in value.rows.items()
        }
        return [
            enc(value.schema),
            [[name, rows] for name, rows in rows_obj.items()],
        ]
    raise WireFormatError(f"unknown domain tag {tag!r}")  # pragma: no cover


def _encode_row(row: Tuple[Any, ...], depth: int) -> List[Any]:
    out: List[Any] = []
    for cell in row:
        if cell is None or isinstance(cell, (bool, int, float, str)):
            out.append(cell)
        else:
            out.append(["V", encode_value(cell, depth + 1)])
    return out


# ---------------------------------------------------------------------------
# Decoding


def decode_value(obj: Any, depth: int = 0) -> Any:
    """Decode a tagged-JSON value; raise :class:`WireFormatError` if invalid."""
    if depth > MAX_WIRE_DEPTH:
        raise WireFormatError(f"frame nests deeper than {MAX_WIRE_DEPTH} levels")
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        if not obj or not isinstance(obj[0], str):
            raise WireFormatError("tagged array must start with a string tag")
        _ensure_tables()
        decoder = _DECODERS.get(obj[0])
        if decoder is None:
            raise WireFormatError(f"unknown wire tag {obj[0]!r}")
        try:
            return decoder(obj[1:], depth + 1)
        except WireFormatError:
            raise
        except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
            raise WireFormatError(f"malformed {obj[0]!r} value: {exc}") from exc
    # Raw JSON objects are reserved for the envelope; inside a payload they
    # are always an error, which keeps data and structure unambiguous.
    raise WireFormatError(f"JSON type {type(obj).__name__!r} is not valid payload")


def _build_decoders() -> Dict[str, Callable[[List[Any], int], Any]]:
    from ..database.constraints import FunctionalDependency, InclusionDependency
    from ..database.delta import Delta
    from ..database.schema import RelationSchema, Schema
    from ..learning.bottom_clause import BottomClauseConfig
    from ..learning.examples import Example
    from ..logic.atoms import Atom
    from ..logic.clauses import HornClause
    from ..logic.terms import Constant, Variable
    from .worker import InstancePayload

    def _arity(items: List[Any], n: int, tag: str) -> List[Any]:
        if len(items) != n:
            raise WireFormatError(f"tag {tag!r} expects {n} fields, got {len(items)}")
        return items

    def _str(value: Any, what: str) -> str:
        if not isinstance(value, str):
            raise WireFormatError(f"{what} must be a string")
        return value

    def dec_tuple(items, depth):
        return tuple(decode_value(v, depth) for v in items)

    def dec_list(items, depth):
        return [decode_value(v, depth) for v in items]

    def dec_set(items, depth):
        return {decode_value(v, depth) for v in items}

    def dec_frozenset(items, depth):
        return frozenset(decode_value(v, depth) for v in items)

    def dec_dict(items, depth):
        out = {}
        for pair in items:
            if not isinstance(pair, list) or len(pair) != 2:
                raise WireFormatError("dict entry must be a [key, value] pair")
            out[decode_value(pair[0], depth)] = decode_value(pair[1], depth)
        return out

    def dec_bytes(items, depth):
        (encoded,) = _arity(items, 1, "B")
        try:
            return base64.b64decode(_str(encoded, "bytes payload"), validate=True)
        except binascii.Error as exc:
            raise WireFormatError(f"invalid base64 bytes: {exc}") from exc

    def dec_var(items, depth):
        (name,) = _arity(items, 1, "var")
        return Variable(_str(name, "variable name"))

    def dec_const(items, depth):
        (value,) = _arity(items, 1, "const")
        return Constant(decode_value(value, depth))

    def dec_atom(items, depth):
        predicate, terms = _arity(items, 2, "atom")
        return Atom(_str(predicate, "predicate"), decode_value(terms, depth))

    def dec_clause(items, depth):
        head, body = _arity(items, 2, "clause")
        return HornClause(decode_value(head, depth), decode_value(body, depth))

    def dec_example(items, depth):
        target, values, positive = _arity(items, 3, "example")
        if not isinstance(positive, bool):
            raise WireFormatError("example polarity must be a bool")
        return Example(
            _str(target, "example target"), decode_value(values, depth), positive
        )

    def dec_relschema(items, depth):
        name, attributes = _arity(items, 2, "relschema")
        return RelationSchema(_str(name, "relation name"), decode_value(attributes, depth))

    def dec_schema(items, depth):
        name, relations, fds, inds = _arity(items, 4, "schema")
        return Schema(
            decode_value(relations, depth),
            functional_dependencies=decode_value(fds, depth),
            inclusion_dependencies=decode_value(inds, depth),
            name=_str(name, "schema name"),
        )

    def dec_fd(items, depth):
        relation, lhs, rhs = _arity(items, 3, "fd")
        return FunctionalDependency(
            _str(relation, "fd relation"),
            decode_value(lhs, depth),
            decode_value(rhs, depth),
        )

    def dec_ind(items, depth):
        left, left_attrs, right, right_attrs, with_equality = _arity(items, 5, "ind")
        if not isinstance(with_equality, bool):
            raise WireFormatError("ind equality flag must be a bool")
        return InclusionDependency(
            _str(left, "ind left"),
            decode_value(left_attrs, depth),
            _str(right, "ind right"),
            decode_value(right_attrs, depth),
            with_equality=with_equality,
        )

    def dec_bcconfig(items, depth):
        fields = _arity(items, 5, "bcconfig")
        for i, field in enumerate(fields):
            optional = i < 2  # max_depth / max_distinct_variables may be None
            if field is None and optional:
                continue
            if not isinstance(field, int) or isinstance(field, bool):
                raise WireFormatError("bcconfig fields must be integers")
        return BottomClauseConfig(*fields)

    def dec_row(cells: List[Any], depth: int) -> Tuple[Any, ...]:
        out = []
        for cell in cells:
            if cell is None or isinstance(cell, (bool, int, float, str)):
                out.append(cell)
            elif isinstance(cell, list) and len(cell) == 2 and cell[0] == "V":
                out.append(decode_value(cell[1], depth))
            else:
                raise WireFormatError("row cell must be a scalar or [\"V\", value]")
        return tuple(out)

    def dec_delta(items, depth):
        ops = []
        for entry in items:
            if not isinstance(entry, list) or len(entry) != 3:
                raise WireFormatError("delta op must be [op, relation, rows]")
            op, relation, encoded_rows = entry
            if op not in ("add", "remove"):
                raise WireFormatError(f"delta op must be 'add' or 'remove', got {op!r}")
            if not isinstance(encoded_rows, list):
                raise WireFormatError("delta rows must be a list")
            rows = [
                dec_row(row, depth) if isinstance(row, list) else _bad_row()
                for row in encoded_rows
            ]
            ops.append((op, _str(relation, "delta relation"), tuple(rows)))
        return Delta(ops)

    def dec_instpayload(items, depth):
        schema, relations = _arity(items, 2, "instpayload")
        if not isinstance(relations, list):
            raise WireFormatError("payload relations must be a list")
        rows: Dict[str, List[Tuple[Any, ...]]] = {}
        for entry in relations:
            if not isinstance(entry, list) or len(entry) != 2:
                raise WireFormatError("payload relation entry must be [name, rows]")
            name, encoded_rows = entry
            if not isinstance(encoded_rows, list):
                raise WireFormatError("payload rows must be a list")
            rows[_str(name, "relation name")] = [
                dec_row(row, depth) if isinstance(row, list) else _bad_row()
                for row in encoded_rows
            ]
        return InstancePayload(decode_value(schema, depth), rows)

    def _bad_row():
        raise WireFormatError("payload row must be an array of cells")

    return {
        "T": dec_tuple,
        "L": dec_list,
        "S": dec_set,
        "F": dec_frozenset,
        "D": dec_dict,
        "B": dec_bytes,
        "var": dec_var,
        "const": dec_const,
        "atom": dec_atom,
        "clause": dec_clause,
        "example": dec_example,
        "relschema": dec_relschema,
        "schema": dec_schema,
        "fd": dec_fd,
        "ind": dec_ind,
        "bcconfig": dec_bcconfig,
        "instpayload": dec_instpayload,
        "delta": dec_delta,
    }


# ---------------------------------------------------------------------------
# Envelope

#: Envelope keys a trace context may carry.  ``trace_id``/``parent_id``
#: propagate the caller's span context into the peer; ``records`` is the
#: reply direction — finished spans shipped back to the caller.
_TRACE_KEYS = frozenset({"trace_id", "parent_id", "records"})


def _validate_trace(trace: Any) -> Dict[str, Any]:
    """Check a trace envelope field against the observability contract.

    The trace rides *outside* the tagged payload (plain JSON object), so it
    gets its own strict shape check: ids must be strings, records must be a
    list of JSON objects, and nothing else is accepted.  Returns the
    validated dict.
    """
    if not isinstance(trace, dict):
        raise WireFormatError("envelope 'trace' must be a JSON object")
    extra = set(trace) - _TRACE_KEYS
    if extra:
        raise WireFormatError(f"unexpected trace keys: {sorted(extra)!r}")
    for field in ("trace_id", "parent_id"):
        if field in trace and not isinstance(trace[field], str):
            raise WireFormatError(f"trace {field!r} must be a string")
    records = trace.get("records")
    if records is not None:
        if not isinstance(records, list) or not all(
            isinstance(entry, dict) for entry in records
        ):
            raise WireFormatError("trace records must be a list of objects")
    return trace


def dumps(message: Tuple[str, Any]) -> bytes:
    """Encode a message into an envelope frame body.

    ``message`` is ``(kind, payload)`` or ``(kind, payload, trace)`` — the
    optional third element is the observability trace context (span ids on
    requests, finished span records on replies) and travels as a plain JSON
    ``"trace"`` envelope key, outside the tagged payload.  A ``None``/empty
    trace encodes exactly like the two-element form, so untraced requests
    are byte-identical to the pre-trace wire format.
    """
    trace = None
    if isinstance(message, tuple) and len(message) == 3:
        kind, payload, trace = message
        if trace is not None:
            trace = _validate_trace(trace)
    else:
        try:
            kind, payload = message
        except (TypeError, ValueError) as exc:
            raise WireFormatError(
                f"message must be a (kind, payload[, trace]) tuple: {exc}"
            ) from exc
    if not isinstance(kind, str):
        raise WireFormatError("message kind must be a string")
    try:
        envelope = {"v": WIRE_VERSION, "kind": kind, "payload": encode_value(payload)}
        if trace:
            envelope["trace"] = trace
        return json.dumps(envelope, separators=(",", ":")).encode()
    except RecursionError as exc:  # pragma: no cover - MAX_WIRE_DEPTH fires first
        raise WireFormatError("payload nests too deeply to encode") from exc


def loads(data: bytes) -> Tuple[str, Any]:
    """Decode an envelope frame body into ``(kind, payload[, trace])``.

    Never executes embedded bytes: the body must be UTF-8 JSON with the
    ``{"v", "kind", "payload"}`` shape (plus an optional ``"trace"``
    context object), and the payload must decode through the tag whitelist.
    Anything else raises :class:`WireFormatError`.

    Returns the two-element tuple for untraced frames — the overwhelmingly
    common case, and what every pre-trace caller unpacks — and a
    three-element tuple when the peer attached a trace context.
    """
    try:
        envelope = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"frame body is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise WireFormatError("frame body nests too deeply") from exc
    if not isinstance(envelope, dict):
        raise WireFormatError("frame body must be a JSON object envelope")
    version = envelope.get("v")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version!r} (server speaks {WIRE_VERSION})"
        )
    kind = envelope.get("kind")
    if not isinstance(kind, str) or not kind:
        raise WireFormatError("envelope 'kind' must be a non-empty string")
    extra = set(envelope) - {"v", "kind", "payload", "trace"}
    if extra:
        raise WireFormatError(f"unexpected envelope keys: {sorted(extra)!r}")
    trace = envelope.get("trace")
    if trace is not None:
        trace = _validate_trace(trace)
    try:
        payload = decode_value(envelope.get("payload"))
    except RecursionError as exc:
        raise WireFormatError("frame payload nests too deeply") from exc
    if trace:
        return kind, payload, trace
    return kind, payload


class JsonWireCodec:
    """Transport codec speaking the versioned tagged-JSON envelope."""

    name = "json-v1"

    @staticmethod
    def encode(message: Tuple[str, Any]) -> bytes:
        return dumps(message)

    @staticmethod
    def decode(data: bytes) -> Tuple[str, Any]:
        return loads(data)


def payload_digest(kind: str, payload: Any) -> str:
    """Stable digest of a request for batch coalescing.

    Two requests with structurally identical payloads digest identically
    because :func:`encode_value` orders set members deterministically.
    """
    return hashlib.sha256(dumps((kind, payload))).hexdigest()
