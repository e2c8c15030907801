"""Finite-alphabet deterministic interference channels.

A channel with K users is described by one interference map per transmitter
(every receiver observes the same interference symbol from a given
transmitter) and one output map per receiver.  Receiver i sees

    y_i = f_i(x_i, v_tuple)    with    v_j = g_j(x_j) for j != i,

where the interference tuple lists the other users in increasing user index.
Users are numbered 1..K throughout the public API.

Interference alphabets are induced: the alphabet of v_j is exactly the image
of g_j, never a declared superset.  Output tables are indexed by a
mixed-radix code over those images (see :func:`decode_v_index`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelFormatError

__all__ = [
    "ChannelSpec",
    "InjectivityReport",
    "decode_v_index",
    "encode_v_tuple",
    "interference_of",
    "output_of",
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
            and interference tuple decoded from the mixed-radix index r.

    Every field holds ints or numpy integers, never bools (ChannelFormatError
    otherwise), and is stored as plain ints.
    """

    K: int
    x_alphabet_sizes: tuple[int, ...]
    g_tables: tuple[tuple[int, ...], ...]
    f_tables: tuple[tuple[tuple[int, ...], ...], ...]
    # Induced interference alphabets, sorted: v_images[i-1] = image of g_i.
    v_images: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet_sizes", tuple(self.x_alphabet_sizes))
        object.__setattr__(self, "g_tables", tuple(tuple(row) for row in self.g_tables))
        object.__setattr__(
            self,
            "f_tables",
            tuple(tuple(tuple(row) for row in table) for table in self.f_tables),
        )
        self._validate_structure()
        # Numpy integers pass the checks; plain ints keep the spec writable as JSON.
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "x_alphabet_sizes", tuple(map(int, self.x_alphabet_sizes)))
        object.__setattr__(self, "g_tables", tuple(tuple(map(int, row)) for row in self.g_tables))
        images = tuple(tuple(sorted(set(row))) for row in self.g_tables)
        object.__setattr__(self, "v_images", images)
        self._validate_f_tables()
        f = (tuple(row if set(map(type, row)) <= {int} else tuple(map(int, row)) for row in table)
             for table in self.f_tables)
        object.__setattr__(self, "f_tables", tuple(f))

    def _validate_structure(self):
        if not _is_int(self.K) or self.K < 2:
            raise ChannelFormatError(f"K must be an integer >= 2, got {self.K!r}")
        if len(self.x_alphabet_sizes) != self.K:
            raise ChannelFormatError(
                f"expected {self.K} alphabet sizes, got {len(self.x_alphabet_sizes)}"
            )
        for i, size in enumerate(self.x_alphabet_sizes, start=1):
            if not _is_int(size) or size < 1:
                raise ChannelFormatError(f"user {i}: alphabet size must be >= 1")
        if len(self.g_tables) != self.K:
            raise ChannelFormatError(f"expected {self.K} interference tables")
        for i, row in enumerate(self.g_tables, start=1):
            if len(row) != self.x_alphabet_sizes[i - 1]:
                raise ChannelFormatError(
                    f"user {i}: interference table has {len(row)} entries, "
                    f"alphabet size is {self.x_alphabet_sizes[i - 1]}"
                )
            for x, v in enumerate(row):
                if not _is_int(v):
                    raise ChannelFormatError(f"user {i}: g({x}) is not an integer")

    def _validate_f_tables(self):
        if len(self.f_tables) != self.K:
            raise ChannelFormatError(f"expected {self.K} output tables")
        for i in range(1, self.K + 1):
            table = self.f_tables[i - 1]
            if len(table) != self.x_alphabet_sizes[i - 1]:
                raise ChannelFormatError(
                    f"receiver {i}: output table has {len(table)} input rows, "
                    f"alphabet size is {self.x_alphabet_sizes[i - 1]}"
                )
            n_tuples = 1
            for j in self.other_users(i):
                n_tuples *= len(self.v_images[j - 1])
            for x, row in enumerate(table):
                if len(row) != n_tuples:
                    raise ChannelFormatError(
                        f"receiver {i}, input {x}: output row has {len(row)} "
                        f"entries, expected {n_tuples} interference tuples"
                    )
                # Plain ints take the fast type test: tables run to thousands of entries.
                if not (set(map(type, row)) <= {int} or all(map(_is_int, row))):
                    raise ChannelFormatError(f"receiver {i}, input {x}: non-integer output entry")

    def __hash__(self):  # kept after the first call: the tables run to thousands of entries
        if "_hash" not in self.__dict__:
            key = self.K, self.x_alphabet_sizes, self.g_tables, self.f_tables
            object.__setattr__(self, "_hash", hash(key))
        return self.__dict__["_hash"]

    def __reduce__(self):  # copy and pickle rebuild through __init__, so no kept hash travels
        return ChannelSpec, (self.K, self.x_alphabet_sizes, self.g_tables, self.f_tables)

    def other_users(self, i: int) -> tuple[int, ...]:
        """Users j != i in increasing order."""
        return tuple(j for j in range(1, self.K + 1) if j != i)

    def v_tuples_for(self, i: int):
        """All attainable interference tuples at receiver i, in index order."""
        _check_user(self.K, i)
        return itertools.product(*(self.v_images[j - 1] for j in self.other_users(i)))


def encode_v_tuple(spec: ChannelSpec, i: int, v_tuple) -> int:
    """Mixed-radix index of an interference tuple at receiver i.

    The tuple lists users j != i in increasing j; the last position varies
    fastest.  Each v value must be attainable (in the image of its g map).
    """
    _check_user(spec.K, i)
    others = spec.other_users(i)
    if len(v_tuple) != len(others):
        raise ValueError(
            f"receiver {i}: expected {len(others)} interference symbols, got {len(v_tuple)}"
        )
    r = 0
    for j, v in zip(others, v_tuple):
        image = spec.v_images[j - 1]
        try:
            rank = image.index(v)
        except ValueError:
            raise ValueError(
                f"interference value {v} is not attainable for user {j} "
                f"(image of g is {image})"
            ) from None
        r = r * len(image) + rank
    return r


def decode_v_index(spec: ChannelSpec, i: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_v_tuple`; r must index an attainable tuple."""
    _check_user(spec.K, i)
    others = spec.other_users(i)
    n_tuples = math.prod(len(spec.v_images[j - 1]) for j in others)
    if not 0 <= r < n_tuples:
        raise ValueError(f"receiver {i}: interference index {r} out of range 0..{n_tuples - 1}")
    ranks = []
    for j in reversed(others):
        size = len(spec.v_images[j - 1])
        r, rank = divmod(r, size)
        ranks.append(rank)
    ranks.reverse()
    return tuple(spec.v_images[j - 1][rank] for j, rank in zip(others, ranks))


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


def interference_of(spec: ChannelSpec, i: int, x: int) -> int:
    """Interference symbol g_i(x) caused by user i sending x."""
    _check_user(spec.K, i)
    if not 0 <= x < spec.x_alphabet_sizes[i - 1]:
        raise ValueError(
            f"input {x} out of range for user {i} "
            f"(alphabet size {spec.x_alphabet_sizes[i - 1]})"
        )
    return spec.g_tables[i - 1][x]


def output_of(spec: ChannelSpec, i: int, x_i: int, v_others) -> int:
    """Receiver output f_i(x_i, v_others) for an attainable interference tuple."""
    _check_user(spec.K, i)
    if not 0 <= x_i < spec.x_alphabet_sizes[i - 1]:
        raise ValueError(
            f"input {x_i} out of range for receiver {i} "
            f"(alphabet size {spec.x_alphabet_sizes[i - 1]})"
        )
    r = encode_v_tuple(spec, i, tuple(v_others))
    return spec.f_tables[i - 1][x_i][r]


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
    try:
        return ChannelSpec(
            K=data["K"],
            x_alphabet_sizes=data["x_alphabet_sizes"],
            g_tables=data["g"],
            f_tables=data["f"],
        )
    except (KeyError, TypeError) as exc:
        raise ChannelFormatError(f"malformed channel document: {exc}") from exc


def load_channel(path) -> ChannelSpec:
    """Read a channel-spec JSON file."""
    return channel_from_dict(_read_document(path))


def save_channel(spec: ChannelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_document(channel_to_dict(spec), fh)


def _read_document(path):
    """The JSON value in the UTF-8 file at `path`, for every document the
    package reads; OSError, or ValueError for bytes that are not such JSON
    or that nest deeper than the recursion limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested deeper than the recursion limit") from None


def _write_document(doc, fh) -> None:
    """Write `doc` to the text file `fh` in the one format of every document
    the package writes: JSON, one space per indent level, a final newline."""
    json.dump(doc, fh, indent=1)
    fh.write("\n")
