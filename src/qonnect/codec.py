"""One JSON codec for the durable formats: log commands, KB snapshots and
Raft wire messages.

``encoder(tp)`` and ``decoder(tp)`` build a converter once per type from its
type hints. Scalars keep exact JSON types: a bool is never an int, and an int
is accepted where a float is declared. An enum is written by its value, a
dataclass as an object of its fields (a field with a default may be
omitted), and a union of dataclasses with a ``kind`` class attribute as
``{"v": VERSION, "kind": cls.kind, **fields}``. ``X | None``,
``tuple[X, ...]``, fixed tuples and ``list[X]`` nest, ``dict[str, X]`` takes
scalar values, and a bare ``dict`` (a manifest, a node's wire form) is opaque
and passes through. Any other type raises ``TypeError`` when its codec is
built.

A decoder raises ``ValueError`` for malformed input, and no other exception.
Rules about meaning (non-negative weights, non-empty batches) stay with the
classes, in ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from enum import Enum
from functools import cache
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple

VERSION = 1

_TAGS = frozenset(("v", "kind"))
# Exact JSON types per scalar type; a bare dict is checked the same way.
_EXACT = {str: (str,), int: (int,), bool: (bool,), float: (float, int), dict: (dict,)}


class _Codec(NamedTuple):
    encode: Callable[[Any], Any] | None  # None: the value is its own JSON value
    decode: Callable[[Any], Any]
    exact: tuple[type, ...] | None = None  # set for scalars: checked inline


def encoder(tp: Any) -> Callable[[Any], Any]:
    """Python value of type ``tp`` -> JSON value."""
    return _codec(tp).encode or _identity


def decoder(tp: Any) -> Callable[[Any], Any]:
    """JSON value -> Python value of type ``tp``; ``ValueError`` if malformed."""
    return _codec(tp).decode


def dumps(value: Any) -> str:
    """Compact JSON with sorted keys, so equal values give equal bytes."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def loads(raw: Any) -> Any:
    try:
        return json.loads(raw)
    except (TypeError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"invalid JSON: {exc}") from None


def _identity(value: Any) -> Any:
    return value


def _mistyped(what: str, value: Any) -> ValueError:
    return ValueError(f"{what}, not {type(value).__name__}")


@cache
def _codec(tp: Any) -> _Codec:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _EXACT:
        return _scalar(_EXACT[tp])
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _enum(tp)
    if dataclasses.is_dataclass(tp):
        return _dataclass(tp)
    if origin in (typing.Union, types.UnionType):
        return _union(tp, args)
    if origin is tuple and args[-1] is not Ellipsis:
        return _fixed_tuple(args)
    if origin in (tuple, list):
        return _sequence(args[0], origin)
    if origin is dict and args[0] is str:
        return _mapping(args[1])
    raise TypeError(f"the codec does not handle {tp!r}")


def _scalar(exact: tuple[type, ...]) -> _Codec:
    def decode(value):
        if type(value) not in exact:
            raise _mistyped(f"expected {exact[0].__name__}", value)
        return value

    return _Codec(None, decode, exact)


def _enum(cls: type[Enum]) -> _Codec:
    members = {member.value: member for member in cls}

    def decode(value):
        member = members.get(value) if type(value) in (str, int) else None
        if member is None:
            raise ValueError(f"{value!r:.40} is not a {cls.__name__}")
        return member

    return _Codec(attrgetter("value"), decode)


@cache
def _dataclass(cls: type, tags: frozenset[str] = frozenset()) -> _Codec:
    """Codec of a dataclass as an object of its fields, which also holds ``tags``."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    allowed = frozenset(names) | tags
    required = tags | {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    codecs = {name: _codec(hints[name]) for name in names}
    converted = tuple((name, c.encode) for name, c in codecs.items() if c.encode)
    # Per field: the exact JSON types of a scalar, checked inline, or else
    # the decoder of its value; and the field, for its default.
    steps = tuple((f.name, codecs[f.name].exact, codecs[f.name].decode, f) for f in fields)
    values = attrgetter(*names) if len(names) > 1 else lambda obj: (getattr(obj, names[0]),)
    items = itemgetter(*names) if len(names) > 1 else lambda data: (data[names[0]],)
    # All-scalar classes: the first JSON type of each field, checked at once.
    scalars = all(c.exact for c in codecs.values())
    canonical = tuple(c.exact[0] for c in codecs.values()) if scalars else None
    head = {"v": VERSION, "kind": cls.kind} if tags else {}  # a union member's tags
    post_init = getattr(cls, "__post_init__", None)
    what = cls.__name__

    def encode(obj):
        data = dict(zip(names, values(obj)))
        for name, convert in converted:
            value = data[name]
            if value is not None:  # an optional field's None stays null
                data[name] = convert(value)
        data.update(head)
        return data

    def decode(data):
        if type(data) is not dict:
            raise _mistyped(f"{what} must be an object", data)
        keys = data.keys()
        complete = keys == allowed  # the common case: no field omitted
        if complete and canonical is not None:
            given = items(data)
            if tuple(map(type, given)) == canonical:
                obj = object.__new__(cls)
                obj.__dict__.update(zip(names, given) if tags else data)
                if post_init is not None:
                    post_init(obj)
                return obj
        if not complete and not keys <= allowed:
            raise ValueError(f"{what} has unknown fields {sorted(keys - allowed, key=str)}")
        if not complete and not required <= keys:
            raise ValueError(f"{what} misses fields {sorted(required - keys)}")
        # Build the object as unpickling does, straight into its __dict__,
        # and let __post_init__ check it: a frozen dataclass's __init__ costs
        # more than all of the decoding.
        obj = object.__new__(cls)
        state = obj.__dict__
        for name, exact, decode_field, f in steps:
            if not complete and name not in keys:
                missing = f.default_factory is not dataclasses.MISSING
                state[name] = f.default_factory() if missing else f.default
                continue
            value = data[name]
            if exact is None:
                try:
                    value = decode_field(value)
                except ValueError as exc:
                    raise ValueError(f"{what}.{name}: {exc}") from None
            elif type(value) not in exact:
                raise _mistyped(f"{what}.{name} must be {exact[0].__name__}", value)
            state[name] = value
        if post_init is not None:
            post_init(obj)
        return obj

    return _Codec(encode, decode)


def _union(tp: Any, args: tuple) -> _Codec:
    options = tuple(arg for arg in args if arg is not type(None))
    if len(options) > 1 and all(hasattr(arg, "kind") for arg in options):
        inner = _tagged(options)
    elif len(options) == 1:
        inner = _codec(options[0])
    else:
        raise TypeError(f"the codec does not handle {tp!r}")
    if len(options) == len(args):
        return inner
    decode_inner = inner.decode  # X | None; dataclass encoders pass None through

    def decode(value):
        return None if value is None else decode_inner(value)

    return _Codec(inner.encode, decode, inner.exact and (*inner.exact, type(None)))


def _tagged(classes: tuple[type, ...]) -> _Codec:
    encoders = {cls: _dataclass(cls, _TAGS).encode for cls in classes}
    decoders = {cls.kind: _dataclass(cls, _TAGS).decode for cls in classes}

    def encode(obj):
        return encoders[type(obj)](obj)

    def decode(data):
        if type(data) is not dict:
            raise _mistyped("expected a tagged object", data)
        version, kind = data.get("v"), data.get("kind")
        if type(version) is not int or version != VERSION:
            raise ValueError(f"unsupported schema version: {version!r:.40}")
        decode_kind = decoders.get(kind) if type(kind) is str else None
        if decode_kind is None:
            raise ValueError(f"unknown kind: {kind!r:.40}")
        return decode_kind(data)

    return _Codec(encode, decode)


def _sequence(item: Any, build: type) -> _Codec:
    convert, decode_item, exact = _codec(item)

    def decode(value):
        if type(value) is not list:
            raise _mistyped("expected a list", value)
        if exact is None:
            return build(map(decode_item, value))
        for x in value:  # scalars, checked inline
            if type(x) not in exact:
                raise _mistyped(f"expected a list of {exact[0].__name__}", x)
        return build(value)

    return _Codec(list if convert is None else lambda v: [convert(x) for x in v], decode)


def _fixed_tuple(items: tuple) -> _Codec:
    converts = tuple(_codec(item).encode or _identity for item in items)
    decoders = tuple(_codec(item).decode for item in items)

    def decode(value):
        if type(value) is not list or len(value) != len(decoders):
            raise ValueError(f"expected a list of {len(decoders)}: {value!r:.40}")
        return tuple([decode_item(x) for decode_item, x in zip(decoders, value)])

    if all(convert is _identity for convert in converts):
        return _Codec(list, decode)
    return _Codec(lambda v: [convert(x) for convert, x in zip(converts, v)], decode)


def _mapping(item: Any) -> _Codec:
    exact = _codec(item).exact
    if exact is None:
        raise TypeError(f"the codec handles dict[str, X] for scalar X only, not {item!r}")

    def decode(value):
        if type(value) is not dict:
            raise _mistyped("expected an object", value)
        for x in value.values():
            if type(x) not in exact:
                raise _mistyped(f"expected an object of {exact[0].__name__}", x)
        return value

    return _Codec(None, decode)
