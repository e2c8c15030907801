"""Finite-alphabet deterministic interference channels.

A channel with K users is described by one interference map per transmitter
(every receiver observes the same interference symbol from a given
transmitter) and one output map per receiver.  Receiver i sees

    y_i = f_i(x_i, v_tuple)    with    v_j = g_j(x_j) for j != i,

where the interference tuple lists the other users in increasing user index.
Users are numbered 1..K throughout the public API.

Interference alphabets are induced: the alphabet of v_j is exactly the image
of g_j, never a declared superset.  Row f_i[x] of an output table lists the
outputs in the order of `ChannelSpec.v_tuples_for(i)`: entry r is the output
for the tuple whose mixed-radix code is r, with each v_j ranked in the sorted
image of g_j and the last position varying fastest.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelFormatError

__all__ = [
    "ChannelSpec",
    "InjectivityReport",
    "validate_injectivity",
    "load_channel",
    "save_channel",
]


@dataclass(frozen=True)
class ChannelSpec:
    """Immutable channel description over finite alphabets.

    Fields:
        K: number of users (>= 2).
        x_alphabet_sizes: per-user input alphabet size; user i's inputs are
            0 .. size-1.
        g_tables: g_tables[i-1][x] is the interference symbol of user i on
            input x.
        f_tables: f_tables[i-1][x][r] is receiver i's output for own input x
            and the r-th interference tuple of `v_tuples_for(i)`.

    Every field holds ints or numpy integers, never bools (ChannelFormatError
    otherwise), and is stored as plain ints.
    """

    K: int
    x_alphabet_sizes: tuple[int, ...]
    g_tables: tuple[tuple[int, ...], ...]
    f_tables: tuple[tuple[tuple[int, ...], ...], ...]
    # Induced interference alphabets, sorted: v_images[i-1] = image of g_i.
    # Derived from g_tables, so equality and the hash leave it out.
    v_images: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # One pass over the fields in order: each table is made a tuple once,
        # checked, and stored as plain ints, which keep the spec writable as JSON.
        if not _is_int(self.K) or self.K < 2:
            raise ChannelFormatError(f"K must be an integer >= 2, got {self.K!r}")
        K = int(self.K)
        sizes = _tuple(self.x_alphabet_sizes, "alphabet sizes")
        if len(sizes) != K:
            raise ChannelFormatError(f"expected {K} alphabet sizes, got {len(sizes)}")
        for i, size in enumerate(sizes, start=1):
            if not _is_int(size) or size < 1:
                raise ChannelFormatError(f"user {i}: alphabet size must be >= 1")
        sizes = tuple(map(int, sizes))
        g_tables = _tuple(self.g_tables, "interference tables")
        if len(g_tables) != K:
            raise ChannelFormatError(f"expected {K} interference tables")
        g_tables = tuple(_tuple(row, f"user {i}: interference table")
                         for i, row in enumerate(g_tables, start=1))
        for i, (row, size) in enumerate(zip(g_tables, sizes), start=1):
            if len(row) != size:
                raise ChannelFormatError(
                    f"user {i}: interference table has {len(row)} entries, alphabet size is {size}"
                )
            for x, v in enumerate(row):
                if not _is_int(v):
                    raise ChannelFormatError(f"user {i}: g({x}) is not an integer")
        g_tables = tuple(tuple(map(int, row)) for row in g_tables)
        images = tuple(tuple(sorted(set(row))) for row in g_tables)
        f_tables = _tuple(self.f_tables, "output tables")
        if len(f_tables) != K:
            raise ChannelFormatError(f"expected {K} output tables")
        n_v, f = math.prod(map(len, images)), []
        for i, (table, size, image) in enumerate(zip(f_tables, sizes, images), start=1):
            table = _tuple(table, f"receiver {i}: output table")
            if len(table) != size:
                raise ChannelFormatError(
                    f"receiver {i}: output table has {len(table)} input rows, alphabet size is {size}"
                )
            n_tuples, rows = n_v // len(image), []
            for x, row in enumerate(table):
                row = _tuple(row, f"receiver {i}, input {x}: output row")
                if len(row) != n_tuples:
                    raise ChannelFormatError(
                        f"receiver {i}, input {x}: output row has {len(row)} "
                        f"entries, expected {n_tuples} interference tuples"
                    )
                # Plain ints take the fast type test: tables run to thousands of entries.
                plain = set(map(type, row)) <= {int}
                if not (plain or all(map(_is_int, row))):
                    raise ChannelFormatError(f"receiver {i}, input {x}: non-integer output entry")
                rows.append(row if plain else tuple(map(int, row)))
            f.append(tuple(rows))
        for name, value in zip(("K", "x_alphabet_sizes", "g_tables", "v_images", "f_tables"),
                               (K, sizes, g_tables, images, tuple(f))):
            object.__setattr__(self, name, value)

    def other_users(self, i: int) -> tuple[int, ...]:
        """Users j != i in increasing order."""
        return tuple(j for j in range(1, self.K + 1) if j != i)

    def v_tuples_for(self, i: int):
        """All attainable interference tuples at receiver i, in index order."""
        _check_user(self.K, i)
        return itertools.product(*(self.v_images[j - 1] for j in self.other_users(i)))


@dataclass(frozen=True)
class InjectivityReport:
    """Outcome of the receiver-map injectivity check.

    Each violation is a witness (i, x_i, v_tuple_a, v_tuple_b) with two
    distinct attainable interference tuples mapped to the same output.
    """

    is_injective: bool
    violations: tuple[tuple, ...]

    def __post_init__(self):
        if self.is_injective != (len(self.violations) == 0):
            raise ValueError("is_injective must mirror an empty violation list")


def validate_injectivity(spec: ChannelSpec) -> InjectivityReport:
    """Check that every receiver map is injective in the interference tuple.

    For each receiver i and each fixed own input x, the map from attainable
    interference tuples to outputs must be one-to-one.  Only attainable
    tuples are examined (each v_j restricted to the image of g_j): product
    input distributions never give mass to anything else.

    Returns a report listing every collision found.
    """
    violations = []
    for i in range(1, spec.K + 1):
        for x in range(spec.x_alphabet_sizes[i - 1]):
            seen: dict[int, tuple[int, ...]] = {}
            # v_tuples_for yields the tuples in the index order of the f row.
            for v_tuple, y in zip(spec.v_tuples_for(i), spec.f_tables[i - 1][x]):
                if y in seen:
                    violations.append((i, x, seen[y], v_tuple))
                else:
                    seen[y] = v_tuple
    return InjectivityReport(is_injective=not violations, violations=tuple(violations))


def _is_int(v) -> bool:
    """Is v an int or a numpy integer (never a bool)?  A plain int takes
    the one type test."""
    return type(v) is int or isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """Is v a real number (never a bool)?  A float takes the one type test."""
    return type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)


def _tuple(value, what: str, error=ChannelFormatError) -> tuple:
    """`value` as a tuple, the one list rule: `error` naming `what` when it is
    not iterable, or is a string, bytes or a mapping, whose characters or
    keys would pass for items."""
    if not isinstance(value, (str, bytes, Mapping)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise error(f"{what} must be a list, got {value!r}")


def _object(value, where: str = "") -> dict:
    """`value`, which must be a JSON object: TypeError "<where><type>, not an object" otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{where}{type(value).__name__}, not an object")
    return value


def _objects(value, what: str, item: str, fields: tuple[str, ...]):
    """(k, the values of `fields`) for the k-th item, from 1, of list field
    `what` (`_tuple`): an item that is not an object (`_object`) or lacks a
    field is an error that names it "<item> <k>"."""
    for k, obj in enumerate(_tuple(value, what), start=1):
        where = f"{item} {k}: "
        missing = [field for field in fields if field not in _object(obj, where)]
        if missing:
            raise ValueError(f"{where}missing {missing[0]!r}")
        yield k, tuple(obj[field] for field in fields)


def _check_user(K: int, i: int):
    if not _is_int(i):
        raise ValueError(f"user index {i!r} is not an integer")
    if not 1 <= i <= K:
        raise ValueError(f"user index {i} out of range 1..{K}")


def channel_to_dict(spec: ChannelSpec) -> dict:
    return {
        "K": spec.K,
        "x_alphabet_sizes": list(spec.x_alphabet_sizes),
        "g": [list(row) for row in spec.g_tables],
        "f": [[list(row) for row in table] for table in spec.f_tables],
    }


def channel_from_dict(data: dict) -> ChannelSpec:
    with _building("channel", data):
        return ChannelSpec(data["K"], data["x_alphabet_sizes"], data["g"], data["f"])


def load_channel(path) -> ChannelSpec:
    """Read a channel-spec JSON file."""
    return channel_from_dict(_read_document(path))


def save_channel(spec: ChannelSpec, path) -> None:
    _save_document(channel_to_dict(spec), path)


def _read_document(path):
    """The JSON value in the UTF-8 file at `path`, for every document the
    package reads; OSError, or ValueError for bytes that are not such JSON
    or that nest deeper than the recursion limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested deeper than the recursion limit") from None


@contextlib.contextmanager
def _building(kind: str, data):
    """The one build rule of every document: `data`, the JSON value the `with`
    block builds a `kind` from, must be an object, and a KeyError, TypeError,
    ValueError, OverflowError or ChannelFormatError in the block becomes a
    ValueError (for a channel, a ChannelFormatError) "malformed <kind> document: <reason>"."""
    try:
        _object(data)
        yield
    except (KeyError, TypeError, ValueError, OverflowError, ChannelFormatError) as exc:
        error = ChannelFormatError if kind == "channel" else ValueError
        raise error(f"malformed {kind} document: {exc}") from exc


def _write_document(doc, fh) -> None:
    """Write `doc` to the text stream `fh` in the one format of every document
    the package writes: JSON, one space per indent level, a final newline."""
    json.dump(doc, fh, indent=1)
    fh.write("\n")


def _save_document(doc, path) -> None:
    """Write `doc` to the UTF-8 file at `path`: the one writer of document files."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_document(doc, fh)
