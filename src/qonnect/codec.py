"""One JSON codec for the durable formats: log commands, KB snapshots and
Raft wire messages.

``encoder(tp)`` and ``decoder(tp)`` build a converter once per type from its
type hints. Scalars keep exact JSON types: a bool is never an int, and an int
is accepted where a float is declared. An enum is written by its value, a
dataclass as an object of its fields (a field with a default may be
omitted), and a union of dataclasses with a ``kind`` class attribute as
``{"v": VERSION, "kind": cls.kind, **fields}``. ``X | None``,
``tuple[X, ...]``, fixed tuples and ``list[X]`` nest, ``dict[str, X]`` takes
scalar values, and ``Any`` takes any JSON value (a logged node report,
which apply checks). ``ObjectText`` (a manifest) is an opaque JSON object
kept as its ``dumps`` text: it decodes from an object to that text and
encodes back to the object, so a document holding one reads and writes as
if it held the object. Any other type raises ``TypeError`` when its codec
is built.

A decoder raises ``ValueError`` for malformed input, and no other exception.
Rules about meaning (non-negative weights, non-empty batches) stay with the
classes, in ``__post_init__``. A decoded dataclass is built without its
``__init__`` by one builder per class, made when its codec is: an unslotted
class (a command, a Raft message) is filled through its ``__dict__``, and a
slotted one (the KB's records) through its slots. A dataclass is encoded by
one function per class too, which reads each field as an attribute.

``columns(cls)`` builds the run codec of a dataclass: a list of its
objects as one object of columns, ``{<field>: [one value per object],
...}``, as a batch log entry writes each run of same-kind commands. Each
column is read by the codec of a list of its field's type, so its JSON
types are as exact as a record's; every field is a column, all columns are
equally long, and each object is made by the same builder and checked by
its ``__post_init__``. A caller that already holds a column's values (a
decision run's node lists, looked up in its entry's table) gives them to
the decoder in place of that column.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from enum import Enum
from functools import cache
from operator import attrgetter, itemgetter, length_hint
from typing import Any, Callable, NamedTuple

VERSION = 1

# The canonical text (``dumps``) of a JSON object, as the codec reads and
# writes it: equal objects give equal texts.
ObjectText = typing.NewType("ObjectText", str)

_TAGS = frozenset(("v", "kind"))
# The namespace of a frozen slotted class's builder subclass (``_builder``).
_UNFROZEN = {"__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__}
# Exact JSON types per scalar type.
_EXACT = {str: (str,), int: (int,), bool: (bool,), float: (float, int)}


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


def dumps(value: Any, allow_nan: bool = True) -> str:
    """Compact JSON with sorted keys, so equal values give equal bytes; with
    ``allow_nan=False``, NaN or an infinity (no JSON value) is a ``ValueError``."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True, allow_nan=allow_nan)


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
    if tp is ObjectText:
        return _Codec(json.loads, _object_text)
    if tp in _EXACT:
        return _scalar(_EXACT[tp])
    if tp is Any:
        return _Codec(None, _identity)
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


def _object_text(value: Any) -> ObjectText:
    if type(value) is not dict:
        raise _mistyped("expected an object", value)
    try:
        return dumps(value)
    except RecursionError:
        raise ValueError("an object nested too deep to encode") from None


def _enum(cls: type[Enum]) -> _Codec:
    # ``values[member]``, not ``member.value``: that property costs about
    # eight times as much.
    values = {member: member.value for member in cls}
    members = {value: member for member, value in values.items()}

    def decode(value):
        member = members.get(value) if type(value) in (str, int) else None
        if member is None:
            raise ValueError(f"{value!r:.40} is not a {cls.__name__}")
        return member

    return _Codec(values.__getitem__, decode)


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
    # Per field: the exact JSON types of a scalar, checked inline, or else
    # the decoder of its value; and the field, for its default.
    steps = tuple((f.name, codecs[f.name].exact, codecs[f.name].decode, f) for f in fields)
    items = itemgetter(*names) if len(names) > 1 else lambda data: (data[names[0]],)
    # All-scalar classes: the first JSON type of each field, checked at once.
    scalars = all(c.exact for c in codecs.values())
    canonical = tuple(c.exact[0] for c in codecs.values()) if scalars else None
    head = {"v": VERSION, "kind": cls.kind} if tags else {}  # a union member's tags
    what = cls.__name__
    build = _builder(cls, names)
    encode = _encoder(codecs, head)

    def decode(data):
        if type(data) is not dict:
            raise _mistyped(f"{what} must be an object", data)
        keys = data.keys()
        complete = keys == allowed  # the common case: no field omitted
        if complete and canonical is not None:
            given = items(data)
            if tuple(map(type, given)) == canonical:
                return build(given)
        if not complete and not keys <= allowed:
            raise ValueError(f"{what} has unknown fields {sorted(keys - allowed, key=str)}")
        if not complete and not required <= keys:
            raise ValueError(f"{what} misses fields {sorted(required - keys)}")
        given = []
        for name, exact, decode_field, f in steps:
            if not complete and name not in keys:
                missing = f.default_factory is not dataclasses.MISSING
                given.append(f.default_factory() if missing else f.default)
                continue
            value = data[name]
            if exact is None:
                try:
                    value = decode_field(value)
                except ValueError as exc:
                    raise ValueError(f"{what}.{name}: {exc}") from None
            elif type(value) not in exact:
                raise _mistyped(f"{what}.{name} must be {exact[0].__name__}", value)
            given.append(value)
        return build(given)

    return _Codec(encode, decode)


def _encoder(codecs: dict[str, _Codec], head: dict) -> Callable[[Any], Any]:
    """A dataclass -> the object of its fields in field order, each written
    by its codec (an optional field's None stays null), then ``head``.

    It is one exec'd dict display, whose attribute loads the interpreter
    specializes: built from ``attrgetter`` and ``zip``, a node report's
    dict cost three times as much.
    """
    scope = {f"encode_{name}": c.encode for name, c in codecs.items() if c.encode}
    items = [
        f"{name!r}: obj.{name}" if c.encode is None
        else f"{name!r}: None if obj.{name} is None else encode_{name}(obj.{name})"
        for name, c in codecs.items()
    ]
    if head:
        scope["head"] = head
        items.append("**head")
    exec("def encode(obj):\n return {" + ", ".join(items) + "}", scope)
    return scope["encode"]


def _builder(cls: type, names: tuple[str, ...]) -> Callable[[Any], Any]:
    """Values in field order -> a ``cls`` built as unpickling does, without
    ``__init__``, and checked by its ``__post_init__``: a frozen dataclass's
    ``__init__`` costs more than all of the decoding.

    An unslotted class is filled through its ``__dict__``. A slotted one is
    filled through its slots by attribute stores, which the interpreter
    specializes. A frozen class's ``__setattr__`` raises, so its object is
    made as a subclass that adds no slot and keeps ``object``'s attribute
    methods, then given ``cls`` as its class: the layout is the same.
    """
    slotted = "__slots__" in cls.__dict__
    frozen = slotted and cls.__dataclass_params__.frozen
    maker = type(cls.__name__, (cls,), _UNFROZEN) if frozen else cls
    fill = "".join(f"obj.{n}," for n in names) + " = values" if slotted \
        else "obj.__dict__.update(zip(names, values))"
    check = " obj.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"new": object.__new__, "maker": maker, "cls": cls, "names": names}
    exec(f"def build(values):\n obj = new(maker)\n {fill}\n"
         f"{' obj.__class__ = cls' if frozen else ''}\n{check}\n return obj", scope)
    return scope["build"]


@cache
def columns(cls: type) -> _Codec:
    """The run codec of dataclass ``cls``: ``encode`` takes a list of its
    objects to an object of columns, one list per field holding each
    object's value in order, and ``decode`` takes that object back to the
    list; ``ValueError`` if malformed. Each column is read by the codec of
    a list of its field's type, unless ``decode`` is ``given`` it already
    decoded (field name -> column, which the object must then not hold),
    and the objects are built by the record codec's builder, so each is
    checked by its ``__post_init__``."""
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    fields = tuple((name, attrgetter(name), _codec(list[hints[name]])) for name in names)
    allowed = frozenset(names)
    build = _builder(cls, names)

    def encode(objs):
        return {name: c.encode(map(get, objs)) for name, get, c in fields}

    def decode(data, given=types.MappingProxyType({})):
        if type(data) is not dict or data.keys() != (allowed - given.keys() if given else allowed):
            raise ValueError(f"{cls.__name__} columns must be an object of its fields")
        decoded = []
        for name, _get, c in fields:
            try:
                decoded.append(given[name] if name in given else c.decode(data[name]))
            except ValueError as exc:
                raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
        if len(set(map(len, decoded))) > 1:
            raise ValueError(f"{cls.__name__} columns of unequal lengths {list(map(len, decoded))}")
        return list(map(build, zip(*decoded)))

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
    exact_types = frozenset(exact or ())

    def decode(value):
        if type(value) is not list:
            raise _mistyped("expected a list", value)
        # On failure, the failing item is the last one taken from ``items``.
        items = iter(value)
        if exact is None:
            try:
                return build(map(decode_item, items))
            except ValueError as exc:
                index = len(value) - length_hint(items) - 1
                raise ValueError(f"[{index}]: {exc}") from None
        if not exact_types.issuperset(map(type, value)):  # scalars, checked at once
            index, x = next((i, x) for i, x in enumerate(value) if type(x) not in exact)
            raise _mistyped(f"[{index}]: expected {exact[0].__name__}", x)
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
