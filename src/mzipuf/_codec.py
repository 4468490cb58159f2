"""Stored files and digests: one codec, one writer, one format check, one digest.

encode turns a dataclass into a dict, one level per nested dataclass;
tuples stay tuples, which json writes as lists.  decode(cls, payload)
rebuilds the dataclass, casting every field by its annotation (a float
for an int field must be integral, and a bool is refused), and raises
ValueError naming Class.field when a field is missing or has the wrong
type.  Where a stored layout differs from the fields, the mapping lives
at that format's one call site.

What an integer is, the package decides here; a bool never is one.  Stored
values and integer sequences go through the decode cast or int_tuple,
which cast an integral float; a scalar that a caller passes goes through
integer() (integer_fields() on a frozen dataclass): an int or numpy integer.

Every stored file, JSON, CSV or CRP database, is written by write_text;
json_text renders a JSON one and read_json reads it back, checking its
"format" key.  canonical_digest, the sha256 of canonical_text, identifies
a chip, a device and a challenge.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import stat
import types
import typing
from functools import cache, partial

import numpy as np


def write_text(path, text: str) -> None:
    """Write a stored file through a new file beside path that then replaces it.

    A crash of this process mid-write leaves the old file whole and no
    temporary file behind; with no fsync, power loss is not covered.  The
    directory must be writable, and a symlink at path is followed.  An
    existing file keeps its permission bits, a new one gets open()'s (0666
    less the umask); either way the writer owns the file.  newline="" keeps
    text's newlines as they are, so the bytes match on every platform.
    """
    target = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(target),
                        f".{os.path.basename(target)}.{os.urandom(8).hex()}.tmp")
    handle = open(temp, "x", newline="")  # "x": create it, never open an existing file
    try:
        with handle:
            handle.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def json_text(payload: dict) -> str:
    """A stored JSON file's text: sorted keys, indent 2, a trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def read_json(path, expected: str, what: str) -> dict:
    """Read a JSON file that write_text stored as json_text, checking its format."""
    with open(path) as handle:
        return check_format(json.load(handle), expected, what)


def check_format(payload, expected: str, what: str) -> dict:
    """payload, if it is an object whose "format" is expected; else ValueError."""
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != expected:
        raise ValueError(f"not a {what}: format={found!r}")
    return payload


def canonical_text(payload) -> str:
    """payload as compact JSON with sorted keys (tuples as lists)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_digest(payload) -> str:
    """sha256 of canonical_text(payload)."""
    return hashlib.sha256(canonical_text(payload).encode()).hexdigest()


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
        cast_all = int_tuple if cast is _integer else lambda items: tuple(map(cast, items))
        return (convert and (lambda value: tuple(map(convert, value))),
                lambda value: cast_all(_sequence(value)))
    if origin is tuple:
        casts = [_converters(arg)[1] for arg in args]
        return None, lambda value: tuple(
            [cast(item) for cast, item in zip(casts, _sequence(value), strict=True)]
        )
    # int and float cast; a value of any other class must be of that class
    if kind is int:
        return None, _integer
    return None, float if kind is float else _exact(kind)


def _integer(value) -> int:
    """int(value), but a bool, or a float with a fractional part, raises
    ValueError instead of being cast: 10.0 gives 10; True, 20.9 and NaN raise."""
    if isinstance(value, (bool, np.bool_)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


_INT = frozenset((int,))


def int_tuple(values) -> tuple:
    """tuple(map(_integer, values)), about ten times as fast when the values
    are all ints already, which are kept as they are."""
    values = values if isinstance(values, (list, tuple)) else list(values)
    if _INT.issuperset(map(type, values)):  # type(True) is bool, so no bool passes
        return tuple(values)
    return tuple(map(_integer, values))


def integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int, if it is an int or a numpy integer in [low, high].

    A bool or a float, integral or not, raises ValueError naming name, and
    so does a value below low or above high, where they are given.
    """
    # type(), not isinstance: bool is a subclass of int
    if not (type(value) is int or isinstance(value, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def integer_fields(obj, **lows) -> None:
    """Check each named field of a frozen dataclass by integer(value, name,
    low), storing it back as an int."""
    for name, low in lows.items():
        object.__setattr__(obj, name, integer(getattr(obj, name), name, low))


def _exact(kind, name=None):
    """A function passing values of class kind through and rejecting others."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {name or kind.__name__}, got {type(value).__name__}")
        return value

    return check


_sequence = _exact((list, tuple), "a list")
