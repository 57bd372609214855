"""Canonical, process-stable structural fingerprints of repro values.

``fingerprint(obj)`` returns a SHA-256 hex digest of a *canonical byte
encoding* of the value's structure.  Two value-equal objects — the same
automaton tables, the same scheduler parameters, the same measure weights
— fingerprint identically in any process, which is what lets the
persistent store (:mod:`repro.perf.store`) share sweep results across
workers and restarts, and the job service coalesce identical submissions.

Canonical means explicitly independent of:

* ``id()`` and allocation order — nothing derived from object identity
  ever reaches the encoding;
* dict / set iteration order — mappings and sets are encoded as their
  items sorted by the items' *encoded bytes*, never by insertion or hash
  order;
* interpreter hash salt (``PYTHONHASHSEED``) — no salted ``hash()`` value
  is ever encoded, and frozensets buried in code constants are re-encoded
  element-wise rather than marshalled.

Encoding model
--------------

Primitives (``None``/``bool``/``int``/``float``/``Fraction``/``complex``/
``str``/``bytes``) and containers (tuple/list/dict/set/frozenset) encode
structurally with type tags and length framing.  Domain values register an
*extractor* keyed by ``module:qualname`` (resolved over the MRO, so
subclasses inherit it):

* :class:`~repro.core.signature.Signature`, fragments, fault plans — via
  the generic frozen-dataclass rule (compare fields only);
* discrete measures — concrete class plus the exact weight mapping;
* schedulers — concrete class and the instance
  parameters (callables encoded by reference when importable, else by
  value: code attributes, defaults, closure cells, referenced globals);
* :class:`~repro.config.configuration.Configuration` — the member
  automata and their local states;
* :class:`~repro.core.psioa.TablePSIOA` — its literal tables;
* intensional PSIOA/PCA — a bounded behavioural traversal: every
  reachable state's signature and transition measures (plus hidden
  actions and created automata for PCA), capped by
  ``REPRO_FINGERPRINT_MAX_STATES`` (default ``2048``); past the cap the
  value is :class:`Unfingerprintable` and callers skip memoization.

Domain values hash as a Merkle tree: each one contributes
``sha256(class, payload)`` to its parent's encoding, and that digest is
memoized per object (identity-keyed, with a strong keepalive so ids can't
recycle).  The memo makes repeated fingerprints of the same automaton
O(1), and :func:`peek` exposes it *without ever computing*.  Mutating a
fingerprinted object requires :func:`repro.perf.cache.invalidate`, which
calls :func:`forget` here.

Cycle safety: the encoder keeps an in-flight stack; re-encountering an
object mid-encoding emits a back-reference by stack distance (canonical
for self-contained cycles), and digests whose encoding escaped their own
subtree are never memoized.  The module is not thread-safe; like the rest
of the perf layer it assumes the single-threaded unfolding engine.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import sys
import types
from collections import OrderedDict
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "FINGERPRINT_VERSION",
    "DEFAULT_MAX_STATES",
    "Unfingerprintable",
    "fingerprint",
    "try_fingerprint",
    "peek",
    "forget",
    "clear_memo",
]

#: Bump when the canonical encoding changes shape: persisted entries keyed
#: under another version must never be read back (the store embeds this in
#: its directory layout).
FINGERPRINT_VERSION = 2

#: Behavioural-traversal cap for intensional automata; override with
#: ``REPRO_FINGERPRINT_MAX_STATES``.
DEFAULT_MAX_STATES = 2048


class Unfingerprintable(TypeError):
    """The value has no canonical structural encoding (opaque type, an
    automaton whose reachable state space exceeds the traversal cap, or a
    callable whose closure reaches an unencodable object)."""


# --------------------------------------------------------------------------
# cross-call digest memo (identity-keyed, keepalive, bounded FIFO)

_MEMO: "OrderedDict[int, Tuple[Any, Optional[str]]]" = OrderedDict()
_MEMO_CAP = 4096

#: Ids currently being encoded (cycle guard / in-flight guard for peek).
_FLIGHT: List[int] = []
_FLIGHT_SET: set = set()

_NO_BACKREF = sys.maxsize
#: Smallest flight index referenced by a back-reference emitted since the
#: innermost frame snapshot — used to refuse memoization of digests whose
#: encoding depends on enclosing context.
_MIN_BACKREF = _NO_BACKREF


def _memo_put(oid: int, obj: Any, digest: Optional[str]) -> None:
    _MEMO[oid] = (obj, digest)
    _MEMO.move_to_end(oid)
    while len(_MEMO) > _MEMO_CAP:
        _MEMO.popitem(last=False)


def peek(obj: Any) -> Optional[str]:
    """The memoized fingerprint of ``obj``, or ``None`` — never computes.

    Returns ``None`` while ``obj`` is mid-encoding: its digest is not
    final until the encoding returns.
    """
    entry = _MEMO.get(id(obj))
    if entry is None or entry[0] is not obj or entry[1] is None:
        return None
    if id(obj) in _FLIGHT_SET:
        return None
    return entry[1]


def forget(obj: Any) -> None:
    """Drop the memoized fingerprint of ``obj`` (after a mutation)."""
    entry = _MEMO.get(id(obj))
    if entry is not None and entry[0] is obj:
        del _MEMO[id(obj)]


def clear_memo() -> None:
    """Drop every memoized fingerprint (wired into ``perf.cache.clear``)."""
    _MEMO.clear()


# --------------------------------------------------------------------------
# framing and primitive encoders

def _frame(tag: bytes, *parts: bytes) -> bytes:
    out = [tag, len(parts).to_bytes(4, "big")]
    for part in parts:
        out.append(len(part).to_bytes(8, "big"))
        out.append(part)
    return b"".join(out)


def _classname(cls: type) -> bytes:
    return (cls.__module__ + ":" + cls.__qualname__).encode("utf-8")


_PRIMITIVES: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda v: b"N",
    bool: lambda v: b"T1" if v else b"T0",
    int: lambda v: _frame(b"I", b"%d" % v),
    float: lambda v: _frame(b"D", repr(v).encode("ascii")),
    complex: lambda v: _frame(
        b"Cx", repr(v.real).encode("ascii"), repr(v.imag).encode("ascii")
    ),
    Fraction: lambda v: _frame(b"R", b"%d" % v.numerator, b"%d" % v.denominator),
    str: lambda v: _frame(b"S", v.encode("utf-8", "surrogatepass")),
    bytes: lambda v: _frame(b"B", v),
}


class _Context:
    """Per-top-level-call state: an id-keyed byte memo for repeated
    sub-objects plus strong keepalives so those ids stay stable."""

    __slots__ = ("local", "keep")

    def __init__(self) -> None:
        self.local: Dict[int, Tuple[Any, bytes]] = {}
        self.keep: List[Any] = []


# --------------------------------------------------------------------------
# extractor registry (module:qualname -> payload builder, resolved on MRO)

_EXTRACTORS: Dict[str, Callable[[Any], Any]] = {}
_TYPE_EXTRACTORS: Dict[type, Optional[Callable[[Any], Any]]] = {}


def _extractor_for(cls: type) -> Optional[Callable[[Any], Any]]:
    try:
        return _TYPE_EXTRACTORS[cls]
    except KeyError:
        pass
    found = None
    for base in cls.__mro__:
        found = _EXTRACTORS.get(base.__module__ + ":" + base.__qualname__)
        if found is not None:
            break
    _TYPE_EXTRACTORS[cls] = found
    return found


def _max_states() -> int:
    raw = os.environ.get("REPRO_FINGERPRINT_MAX_STATES", "")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    return value if value > 0 else DEFAULT_MAX_STATES


def _behavior_table(automaton: Any, *, pca: bool) -> Dict[Any, Any]:
    """Reachable-state table ``{state: (signature, {action: measure}, ...)}``.

    Traversal order is irrelevant — the dict encoder sorts by encoded
    bytes — only termination matters, so this is a plain capped BFS over
    the public behavioural interface (mirroring
    :func:`repro.core.psioa.reachable_states`).
    """
    limit = _max_states()
    table: Dict[Any, Any] = {}
    seen = {automaton.start}
    frontier = [automaton.start]
    while frontier:
        state = frontier.pop()
        if len(table) >= limit:
            raise Unfingerprintable(
                f"automaton {automaton.name!r} exceeds the fingerprint "
                f"traversal cap of {limit} reachable states "
                f"(REPRO_FINGERPRINT_MAX_STATES)"
            )
        acts: Dict[Any, Any] = {}
        for action in automaton.enabled(state):
            eta = automaton.transition(state, action)
            acts[action] = eta
            for target in eta.support():
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        if pca:
            created = {action: automaton.created(state, action) for action in acts}
            table[state] = (
                automaton.signature(state),
                acts,
                automaton.hidden_actions(state),
                created,
            )
        else:
            table[state] = (automaton.signature(state), acts)
    return table


def _extract_psioa(automaton: Any) -> Any:
    return ("psioa", automaton.name, automaton.start, _behavior_table(automaton, pca=False))


def _extract_pca(automaton: Any) -> Any:
    return ("pca", automaton.name, automaton.start, _behavior_table(automaton, pca=True))


def _extract_table_psioa(automaton: Any) -> Any:
    return (
        "table-psioa",
        automaton.name,
        automaton.start,
        dict(automaton.signatures),
        dict(automaton.transitions),
    )


def _extract_measure(measure: Any) -> Any:
    return ("measure", dict(measure._weights))


def _extract_scheduler(scheduler: Any) -> Any:
    return ("scheduler", dict(vars(scheduler)))


def _extract_configuration(configuration: Any) -> Any:
    return (
        "configuration",
        {automaton: state for automaton, state in configuration.items()},
    )


_EXTRACTORS.update(
    {
        "repro.core.psioa:PSIOA": _extract_psioa,
        "repro.core.psioa:TablePSIOA": _extract_table_psioa,
        "repro.config.pca:PCA": _extract_pca,
        "repro.probability.measures:DiscreteMeasure": _extract_measure,
        "repro.semantics.scheduler:Scheduler": _extract_scheduler,
        "repro.config.configuration:Configuration": _extract_configuration,
    }
)


# --------------------------------------------------------------------------
# callables: by reference when importable, else by value

def _importable(fn: Any) -> bool:
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or module in ("__main__", "__mp_main__"):
        return False
    resolved = sys.modules.get(module)
    if resolved is None:
        return False
    obj: Any = resolved
    for part in qualname.split("."):
        if part == "<locals>":
            return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


def _global_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _referenced_globals(fn: Any) -> Dict[str, Any]:
    globs = fn.__globals__
    return {
        name: globs[name] for name in _global_names(fn.__code__) if name in globs
    }


def _encode_code(code: types.CodeType, ctx: _Context) -> bytes:
    # Code constants are encoded element-wise with the canonical encoders
    # (never marshalled whole): frozensets in co_consts iterate in salted
    # order, and line/file metadata must not leak into the digest.
    const_parts = []
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            const_parts.append(_encode_code(const, ctx))
        else:
            const_parts.append(_encode(const, ctx))
    header = ",".join(
        str(value)
        for value in (
            code.co_argcount,
            code.co_posonlyargcount,
            code.co_kwonlyargcount,
            code.co_nlocals,
            code.co_flags,
        )
    ).encode("ascii")
    return _frame(
        b"Co",
        header,
        code.co_code,
        _frame(b"t", *const_parts),
        _encode(code.co_names, ctx),
        _encode(code.co_varnames, ctx),
        _encode(code.co_freevars, ctx),
        _encode(code.co_cellvars, ctx),
    )


def _encode_function(fn: types.FunctionType, ctx: _Context) -> bytes:
    if _importable(fn):
        return _frame(
            b"Fr", fn.__module__.encode("utf-8"), fn.__qualname__.encode("utf-8")
        )
    cell_parts = []
    for cell in fn.__closure__ or ():
        try:
            cell_parts.append(_frame(b"c", _encode(cell.cell_contents, ctx)))
        except ValueError:  # empty cell
            cell_parts.append(b"c0")
    return _frame(
        b"Fv",
        _encode_code(fn.__code__, ctx),
        _encode(fn.__defaults__, ctx),
        _encode(fn.__kwdefaults__, ctx),
        _frame(b"cs", *cell_parts),
        _encode(_referenced_globals(fn), ctx),
    )


_BUILTIN_CALLABLES = (
    types.BuiltinFunctionType,
    types.BuiltinMethodType,
    types.MethodDescriptorType,
    types.WrapperDescriptorType,
    types.MethodWrapperType,
)


# --------------------------------------------------------------------------
# the encoder

def _encode_inner(obj: Any, cls: type, ctx: _Context) -> bytes:
    if cls is tuple:
        return _frame(b"t", *[_encode(item, ctx) for item in obj])
    if cls is list:
        return _frame(b"l", *[_encode(item, ctx) for item in obj])
    if cls is dict:
        pairs = sorted(
            ((_encode(key, ctx), _encode(value, ctx)) for key, value in obj.items()),
            key=lambda pair: pair[0],
        )
        return _frame(b"d", *[part for pair in pairs for part in pair])
    if cls is set:
        return _frame(b"s", *sorted(_encode(item, ctx) for item in obj))
    if cls is frozenset:
        return _frame(b"f", *sorted(_encode(item, ctx) for item in obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = tuple(
            (field.name, getattr(obj, field.name))
            for field in dataclasses.fields(obj)
            if field.compare
        )
        return _frame(b"DC", _classname(cls), _encode(fields, ctx))
    if cls is types.FunctionType:
        return _encode_function(obj, ctx)
    if cls is types.MethodType:
        return _frame(b"Fm", _encode(obj.__func__, ctx), _encode(obj.__self__, ctx))
    if cls is functools.partial:
        return _frame(
            b"Fp",
            _encode(obj.func, ctx),
            _encode(tuple(obj.args), ctx),
            _encode(dict(obj.keywords), ctx),
        )
    if isinstance(obj, _BUILTIN_CALLABLES):
        module = getattr(obj, "__module__", None) or "builtins"
        return _frame(b"Fb", module.encode("utf-8"), obj.__qualname__.encode("utf-8"))
    if isinstance(obj, type):
        return _frame(b"K", _classname(obj))
    if cls is types.ModuleType:
        return _frame(b"Mo", obj.__name__.encode("utf-8"))
    raise Unfingerprintable(
        f"no canonical encoding for {cls.__module__}.{cls.__qualname__}"
    )


def _encode(obj: Any, ctx: _Context) -> bytes:
    global _MIN_BACKREF
    cls = type(obj)
    primitive = _PRIMITIVES.get(cls)
    if primitive is not None:
        return primitive(obj)
    oid = id(obj)
    if oid in _FLIGHT_SET:
        position = _FLIGHT.index(oid)
        if position < _MIN_BACKREF:
            _MIN_BACKREF = position
        return _frame(b"~", b"%d" % (len(_FLIGHT) - 1 - position))
    hit = ctx.local.get(oid)
    if hit is not None:
        return hit[1]
    extractor = _extractor_for(cls)
    if extractor is not None:
        entry = _MEMO.get(oid)
        if entry is not None and entry[0] is obj:
            if entry[1] is None:
                raise Unfingerprintable(
                    f"{cls.__qualname__} previously failed to fingerprint"
                )
            return _frame(b"M", entry[1].encode("ascii"))
    saved = _MIN_BACKREF
    _MIN_BACKREF = _NO_BACKREF
    my_pos = len(_FLIGHT)
    _FLIGHT.append(oid)
    _FLIGHT_SET.add(oid)
    failed = False
    try:
        if extractor is not None:
            try:
                body = _encode(extractor(obj), ctx)
            except Unfingerprintable:
                failed = True
                raise
            except RecursionError:
                raise
            except Exception as exc:
                failed = True
                raise Unfingerprintable(
                    f"extracting {cls.__qualname__} failed: {exc}"
                ) from exc
        else:
            data = _encode_inner(obj, cls, ctx)
    finally:
        _FLIGHT.pop()
        _FLIGHT_SET.discard(oid)
        escaped = _MIN_BACKREF < my_pos
        if saved < _MIN_BACKREF:
            _MIN_BACKREF = saved
        if failed:
            _memo_put(oid, obj, None)
    if extractor is not None:
        digest = hashlib.sha256(_frame(b"X", _classname(cls), body)).hexdigest()
        if not escaped:
            _memo_put(oid, obj, digest)
        data = _frame(b"M", digest.encode("ascii"))
    if not escaped:
        ctx.local[oid] = (obj, data)
        ctx.keep.append(obj)
    return data


# --------------------------------------------------------------------------
# public API

def fingerprint(obj: Any) -> str:
    """Canonical structural SHA-256 hex digest of ``obj``.

    Raises :class:`Unfingerprintable` for values without a canonical
    encoding.  For registered domain values the digest is memoized by
    identity, so repeated calls on the same object are O(1).
    """
    ctx = _Context()
    if _extractor_for(type(obj)) is not None:
        data = _encode(obj, ctx)
        entry = _MEMO.get(id(obj))
        if entry is not None and entry[0] is obj and entry[1] is not None:
            return entry[1]
        # M-frame: tag + count + length + the 64 hex chars of the digest.
        return data[-64:].decode("ascii")
    return hashlib.sha256(_encode(obj, ctx)).hexdigest()


def try_fingerprint(obj: Any) -> Optional[str]:
    """:func:`fingerprint`, with ``None`` instead of an exception."""
    try:
        return fingerprint(obj)
    except Unfingerprintable:
        return None
