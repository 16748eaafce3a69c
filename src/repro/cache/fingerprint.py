"""Canonical lineage fingerprints for operators, stages and choose outputs.

A fingerprint is a content-addressed identity for "the bytes a stage would
produce": it hashes the operator chain (operator type, cost/size model and
the *operator function itself* — qualname, bytecode, defaults and closure
cells), the fingerprints of every input dataset (the lineage), and the
partitioning layout.  Two stages with equal fingerprints produce equal
payloads partition by partition, which is what lets the result cache
(:mod:`repro.cache.store`) substitute a cached read for real execution —
across sibling explore branches and across ``run_mdf`` calls.

Fingerprints are *conservative*: anything whose identity cannot be
captured deterministically (an open file handle in a closure, an object
with no stable content) raises :class:`FingerprintError` and the stage is
simply never cached.  A missed caching opportunity is cheap; a false
cache hit would be unsound.

Operator ``name`` attributes are deliberately excluded — auto-generated
names (``transform-17``) depend on a process-global counter, while the
cache must recognise the same computation across runs.  Identity is the
function and its parameters, not the label.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "FingerprintError",
    "callable_token",
    "choose_fingerprint",
    "digest",
    "operator_fingerprint",
    "operator_fingerprints",
    "stage_fingerprint",
    "value_token",
]


class FingerprintError(Exception):
    """A value has no deterministic canonical form; the stage is uncacheable."""


def digest(token: Any) -> str:
    """sha256 over the canonical JSON encoding of a token tree."""
    encoded = json.dumps(token, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:40]


class _Walk:
    """State of one tokenising pass: the ids on the current path (the cycle
    guard) and the ndarray leaves already hashed, by id — each held, so its
    id cannot be reused.  Nothing runs between two tokens of one pass, so a
    leaf met twice has the same bytes twice."""

    def __init__(self) -> None:
        self.seen: Set[int] = set()
        self.arrays: Dict[int, Tuple[np.ndarray, Any]] = {}


# --------------------------------------------------------------------- values
def value_token(value: Any, _walk: Optional[_Walk] = None) -> Any:
    """Canonical token of a parameter/closure value (JSON-serialisable)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return ["v", repr(value)]
    if isinstance(value, bytes):
        return ["bytes", hashlib.sha256(value).hexdigest()]
    if isinstance(value, np.ndarray):
        walk = _walk if _walk is not None else _Walk()
        hashed = walk.arrays.get(id(value))
        if hashed is None:
            arr = np.ascontiguousarray(value)
            content = hashlib.sha256(arr.tobytes()).hexdigest()
            token = ["ndarray", str(arr.dtype), list(arr.shape), content]
            hashed = walk.arrays[id(value)] = (value, token)
        return hashed[1]
    if isinstance(value, np.generic):
        return ["npscalar", str(value.dtype), repr(value.item())]
    if isinstance(value, (list, tuple)):
        kind = "tuple" if isinstance(value, tuple) else "list"
        if all(
            x is None or isinstance(x, (bool, int, float, str)) for x in value
        ):
            # flat primitive sequences (the common big-payload case) hash
            # their repr instead of building one token per element
            body = repr(list(value)).encode("utf-8")
            return [kind, len(value), hashlib.sha256(body).hexdigest()]
        return [kind, [value_token(x, _walk) for x in value]]
    if isinstance(value, dict):
        entries = [
            [value_token(k, _walk), value_token(v, _walk)]
            for k, v in value.items()
        ]
        entries.sort(key=lambda e: json.dumps(e[0], sort_keys=True))
        return ["dict", entries]
    if isinstance(value, (set, frozenset)):
        tokens = sorted(
            (value_token(x, _walk) for x in value),
            key=lambda t: json.dumps(t, sort_keys=True),
        )
        return ["set", tokens]
    if callable(value):
        return ["fn", callable_token(value, _walk)]
    token_fn = getattr(value, "fingerprint_token", None)
    if callable(token_fn):
        # objects that define their own canonical identity
        return ["self-described", value_token(token_fn(), _walk)]
    walk = _walk if _walk is not None else _Walk()
    seen = walk.seen
    if id(value) in seen:
        return ["recursive"]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        seen.add(id(value))
        try:
            fields = [
                [f.name, value_token(getattr(value, f.name), walk)]
                for f in dataclasses.fields(value)
            ]
        finally:
            seen.discard(id(value))
        return [
            "dataclass",
            type(value).__module__ or "",
            type(value).__qualname__,
            fields,
        ]
    try:
        state = vars(value)
    except TypeError:
        raise FingerprintError(
            f"cannot fingerprint value of type {type(value).__name__!r}"
        ) from None
    # a plain object: its class plus every instance attribute (private ones
    # included — for a parameter value, hidden state is still state)
    seen.add(id(value))
    try:
        attrs = [[k, value_token(v, walk)] for k, v in sorted(state.items())]
    finally:
        seen.discard(id(value))
    return ["object", type(value).__module__ or "", type(value).__qualname__, attrs]


def _code_token(code: types.CodeType, walk: _Walk) -> Any:
    consts: List[Any] = []
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            consts.append(_code_token(const, walk))
        else:
            consts.append(value_token(const, walk))
    return [
        "code",
        hashlib.sha256(code.co_code).hexdigest(),
        list(code.co_names),
        consts,
    ]


def callable_token(fn: Any, _walk: Optional[_Walk] = None) -> Any:
    """Canonical token of an operator function.

    Captures everything that determines the function's behaviour: module +
    qualname, the compiled bytecode (so two same-named lambdas with
    different bodies differ), default arguments and closure cell contents
    (so ``lambda xs, t=p["threshold"]: ...`` branches differ per
    parameter).
    """
    walk = _walk if _walk is not None else _Walk()
    seen = walk.seen
    if id(fn) in seen:
        return ["recursive"]
    seen.add(id(fn))
    try:
        if isinstance(fn, functools.partial):
            return [
                "partial",
                callable_token(fn.func, walk),
                [value_token(a, walk) for a in fn.args],
                sorted(
                    ([k, value_token(v, walk)] for k, v in fn.keywords.items()),
                    key=lambda e: e[0],
                ),
            ]
        split_token = getattr(fn, "fingerprint_token", None)
        if split_token is not None:
            # objects (e.g. PayloadSplitter) that define their own identity
            return ["self-described", value_token(split_token(), walk)]
        if isinstance(fn, types.MethodType):
            return [
                "method",
                callable_token(fn.__func__, walk),
                value_token(fn.__self__, walk),
            ]
        if isinstance(fn, (types.BuiltinFunctionType, types.BuiltinMethodType)):
            return ["builtin", getattr(fn, "__module__", "") or "", fn.__qualname__]
        if isinstance(fn, types.FunctionType):
            closure: List[Any] = []
            for cell in fn.__closure__ or ():
                try:
                    contents = cell.cell_contents
                except ValueError as exc:  # empty cell
                    raise FingerprintError(
                        f"function {fn.__qualname__!r} has an unset closure cell"
                    ) from exc
                closure.append(value_token(contents, walk))
            return [
                "function",
                fn.__module__ or "",
                fn.__qualname__,
                fn.__name__,
                _code_token(fn.__code__, walk),
                [value_token(v, walk) for v in (fn.__defaults__ or ())],
                sorted(
                    (
                        [k, value_token(v, walk)]
                        for k, v in (fn.__kwdefaults__ or {}).items()
                    ),
                    key=lambda e: e[0],
                ),
                closure,
            ]
        if isinstance(fn, type):
            return ["class", fn.__module__ or "", fn.__qualname__]
        if callable(fn):
            # a callable object: its class plus its stable attributes
            attrs = [
                [k, value_token(v, walk)]
                for k, v in sorted(vars(fn).items())
                if not k.startswith("_")
            ]
            return [
                "callable",
                type(fn).__module__ or "",
                type(fn).__qualname__,
                attrs,
            ]
    finally:
        seen.discard(id(fn))
    raise FingerprintError(f"cannot fingerprint callable {fn!r}")


# ------------------------------------------------------------------ operators
#: attributes that carry labels or graph wiring, not computation identity
_SKIP_ATTRS = frozenset({"name", "input_names"})


def operator_token(op: Any, walk: _Walk) -> Any:
    """Canonical token of one operator: type + every public attribute."""
    attrs: List[Any] = []
    for key in sorted(vars(op)):
        if key in _SKIP_ATTRS or key.startswith("_"):
            continue
        attrs.append([key, value_token(getattr(op, key), walk)])
    return ["op", type(op).__name__, bool(op.narrow), attrs]


def operator_fingerprint(op: Any) -> str:
    """Fingerprint of one operator (raises :class:`FingerprintError`)."""
    return digest(operator_token(op, _Walk()))


def operator_fingerprints(ops: Iterable[Any]) -> Dict[str, Optional[str]]:
    """``{op.name: operator_fingerprint(op)}``, ``None`` where that raises.

    One pass over a job's operators, before any of them runs: no run-time
    side effect reaches a sibling's identity, and an array several of them
    capture (the validation set of every ``train``) is hashed once.
    """
    walk = _Walk()
    table: Dict[str, Optional[str]] = {}
    for op in ops:
        try:
            table[op.name] = digest(operator_token(op, walk))
        except FingerprintError:
            table[op.name] = None
    return table


# --------------------------------------------------------------------- stages
def stage_fingerprint(
    kind: str,
    op_fingerprints: Sequence[str],
    input_fingerprints: Sequence[str],
    layout: Any,
) -> str:
    """Fingerprint of a stage's output dataset.

    ``kind`` distinguishes source/narrow/wide/join execution paths;
    ``layout`` pins the partitioning (partition count for sources, worker
    count for shuffles, ``None`` for narrow stages that inherit their
    input's partitioning — already captured by the input fingerprint).
    """
    return digest(
        [
            "stage",
            kind,
            list(op_fingerprints),
            list(input_fingerprints),
            layout,
        ]
    )


def choose_fingerprint(member_fingerprints: Iterable[str]) -> str:
    """Fingerprint of a choose output: its kept members, in kept order."""
    return digest(["choose", list(member_fingerprints)])
