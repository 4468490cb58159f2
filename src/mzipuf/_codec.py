"""Stored files and digests: one codec, one writer, one format check, one digest.

encode turns a dataclass into a dict, one level per nested dataclass;
tuples stay tuples, which json writes as lists.  decode(cls, payload)
rebuilds the dataclass, casting every field by its annotation, and raises
ValueError naming Class.field when a field is missing or has the wrong
type.  Where a stored layout differs from the fields, the mapping lives at
that format's one call site.

Every stored JSON file is written by write_json and read by read_json,
which checks its "format" key; canonical_digest is the sha256 that
identifies a chip, a device and a challenge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import types
import typing
from functools import cache, partial


def write_json(payload: dict, path) -> None:
    """Write a stored file: sorted keys, indent 2, a trailing newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_json(path, expected: str, what: str) -> dict:
    """Read a stored file written by write_json, checking its format."""
    with open(path) as handle:
        return check_format(json.load(handle), expected, what)


def check_format(payload, expected: str, what: str) -> dict:
    """payload, if it is an object whose "format" is expected; else ValueError."""
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != expected:
        raise ValueError(f"not a {what}: format={found!r}")
    return payload


def canonical_digest(payload) -> str:
    """sha256 of payload as compact JSON with sorted keys (tuples as lists)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def encode(obj) -> dict:
    """The fields of a dataclass instance as a dict (nested dataclasses too)."""
    payload = {}
    for name, convert, _ in _fields(type(obj)):
        value = getattr(obj, name)
        payload[name] = value if convert is None else convert(value)
    return payload


def decode(cls, payload):
    """Rebuild a dataclass of type cls from its encoded dict.

    Keys that are not fields are ignored; every field must be present.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{cls.__name__}: expected an object, got {type(payload).__name__}")
    values = []  # in field order, which is __init__'s argument order
    for name, _, cast in _fields(cls):
        try:
            values.append(cast(payload[name]))
        except KeyError:
            raise ValueError(f"{cls.__name__}.{name} is missing") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
    return cls(*values)


@cache
def _fields(cls) -> tuple:
    """(name, encoder, decoder) per field of a dataclass, from its annotations."""
    hints = typing.get_type_hints(cls)
    return tuple((item.name, *_converters(hints[item.name])) for item in dataclasses.fields(cls))


def _converters(kind) -> tuple:
    """(encoder, decoder) for values of an annotation.

    The encoder is None where json takes the value as it is: everything
    but dataclasses, alone, optional or in a tuple[X, ...].
    """
    if dataclasses.is_dataclass(kind):
        return encode, partial(decode, kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):  # X | None
        (member,) = set(args) - {type(None)}
        convert, cast = _converters(member)
        return (convert and (lambda value: None if value is None else convert(value)),
                lambda value: None if value is None else cast(value))
    if origin is tuple and args[1:] == (...,):
        convert, cast = _converters(args[0])
        cast_all = int_tuple if cast is int else lambda items: tuple(map(cast, items))
        return (convert and (lambda value: tuple(map(convert, value))),
                lambda value: cast_all(_sequence(value)))
    if origin is tuple:
        casts = [_converters(arg)[1] for arg in args]
        return None, lambda value: tuple(
            [cast(item) for cast, item in zip(casts, _sequence(value), strict=True)]
        )
    # int and float cast; a value of any other class must be of that class
    return None, kind if kind in (int, float) else _exact(kind)


def int_tuple(values) -> tuple:
    """tuple(map(int, values)), about twice as fast when the values are ints
    already: operator.index passes those through without int()'s parsing."""
    values = values if isinstance(values, (list, tuple)) else list(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:  # floats and strings go through int()
        return tuple(map(int, values))


def _exact(kind, name=None):
    """A function passing values of class kind through and rejecting others."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {name or kind.__name__}, got {type(value).__name__}")
        return value

    return check


_sequence = _exact((list, tuple), "a list")
