"""Exact entropy computation for a channel under a product input distribution.

An `EntropyTable` is the (K, 2^K) array of the H(Y_i | V_T), which come from
exact marginalization, at each receiver, of the joint pmf over its output
table.  The grouping of the cells by code depends only on the channel, so a
channel's layout of at most _LAYOUT_ENTRIES (mask, cell) entries is kept as
long as the channel lives, and a table for it, or an equal channel, only
re-weights that layout; a larger channel's codes are sorted in blocks of at
most _BLOCK_CODES, which bounds the transient memory.  No entry depends on
either bound.
Entropies are in bits, double precision, with 0*log(0) taken as 0.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, _check_user, _is_int, _read_document, _write_document

__all__ = [
    "InputDistribution",
    "EntropyTable",
    "subset_rank",
    "build_entropy_table",
    "check_injectivity_identity",
    "load_distribution",
    "save_distribution",
]

_SUM_TOL = 1e-12
_BLOCK_CODES = 1 << 12  # most codes sorted by one np.unique call
_LAYOUT_ENTRIES = 1 << 18  # most (mask, cell) entries of the channel layouts kept for reuse


@dataclass(frozen=True)
class InputDistribution:
    """Product input distribution: probs[i-1][x] = p_i(x).

    Each per-user vector must hold real numbers (not bools or strings) that
    are finite, nonnegative and sum to 1 within 1e-12.
    """

    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.probs)
        for i, row in enumerate(rows, start=1):
            for p in row:
                if type(p) is not float and (not isinstance(p, numbers.Real) or isinstance(p, bool)):
                    raise ValueError(f"user {i}: probability entry {p!r} is not a real number")
        object.__setattr__(self, "probs", tuple(tuple(map(float, row)) for row in rows))
        for i, row in enumerate(self.probs, start=1):
            if not all(map(math.isfinite, row)):
                raise ValueError(f"user {i}: non-finite probability entry")
            if any(p < 0 for p in row):
                raise ValueError(f"user {i}: negative probability entry")
            total = math.fsum(row)
            if abs(total - 1.0) > _SUM_TOL:
                raise ValueError(f"user {i}: probabilities sum to {total}, not 1")

    @property
    def K(self) -> int:
        return len(self.probs)

    @classmethod
    def uniform(cls, spec: ChannelSpec) -> "InputDistribution":
        return cls(tuple(tuple(1.0 / n for _ in range(n)) for n in spec.x_alphabet_sizes))

    @classmethod
    def point_mass(cls, spec: ChannelSpec, symbols=None) -> "InputDistribution":
        """All mass on one input tuple, one integer symbol per user (all zero by default)."""
        symbols = (0,) * spec.K if symbols is None else tuple(symbols)
        if len(symbols) != spec.K:
            raise ValueError(f"{len(symbols)} symbols for {spec.K} users")
        rows = []
        for i, (n, s) in enumerate(zip(spec.x_alphabet_sizes, symbols), start=1):
            if not _is_int(s):
                raise ValueError(f"user {i}: symbol {s!r} is not an integer")
            if not 0 <= s < n:
                raise ValueError(f"user {i}: symbol {s} out of range 0..{n - 1}")
            rows.append(tuple(1.0 if x == s else 0.0 for x in range(n)))
        return cls(tuple(rows))


def subset_rank(M) -> int:
    """Binary encoding of a user subset (user m sets bit m-1)."""
    r = 0
    for m in M:
        r |= 1 << (m - 1)
    return r


def _user_subset(K: int, i: int, M) -> frozenset:
    """The user subset M of receiver i as a frozenset of plain ints;
    ValueError unless every member is an integer in 1..K."""
    M = frozenset(M)
    if not all(map(_is_int, M)):
        raise ValueError(f"receiver {i}: subset {set(M)} has a non-integer member")
    if any(not 1 <= m <= K for m in M):
        raise ValueError(f"receiver {i}: subset {sorted(M)} not within 1..{K}")
    return frozenset(map(int, M))


@dataclass(frozen=True, eq=False)
class EntropyTable:
    """Every conditional entropy the region formulas need, as one array.

    h is a read-only array of finite floats >= 0, of shape (K, 2^K), with
    h[i-1, mask] = H(Y_i | V_T) for receiver i and user subset T, where bit
    m-1 of mask is user m (mask = subset_rank(T); T may contain i).  K is
    read from h's shape.  The constructor copies h and raises ValueError for
    anything else.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.ndim != 2 or h.shape[1] != 1 << len(h):
            raise ValueError(f"entropy array has shape {h.shape}, expected (K, 2^K)")
        bad = np.argwhere(~(h >= 0) | (h == np.inf))
        if bad.size:
            i, mask = bad[0].tolist()
            raise ValueError(f"entropy of receiver {i + 1} at mask {mask:#b} is {h[i, mask]}")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def K(self) -> int:
        return len(self.h)

    @property
    def split_rhs(self) -> np.ndarray:
        """split_rhs[i-1, subset_rank(M)] = H(Y_i | V_{complement of M}), the
        rhs of split row (i, M): h with each row reversed, a read-only view."""
        return self.h[:, ::-1]

    def h_y_given_v(self, i: int, T) -> float:
        for user in (i, *T):
            _check_user(self.K, user)
        return float(self.h[i - 1, subset_rank(T)])


def _entropy(p) -> float:
    """Entropy in bits of the pmf p; zero entries contribute nothing."""
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def build_entropy_table(spec: ChannelSpec, dist: InputDistribution) -> EntropyTable:
    """Fill the complete conditional-entropy table; it holds nothing else.

    Row i-1 of the (K, 2^K) array holds H(Y_i | V_T) for every subset mask
    (bit m-1 is user m).  Receiver i's entries come from the joint pmf of
    (X_i, V_j for j != i), which is a product of independent pmfs, over the
    cells of its output table, as H(V_T, Y_i) - sum_{j in T} H(V_j); an entry
    is exactly 0.0 when Y_i is a function of V_T on the positive-weight cells.
    H(V_T) is summed in increasing j.  The cells' grouping by code depends
    only on the channel, so a kept layout (`_layouts`) is reused for that
    channel or an equal one while the channel lives.

    Raises ValueError if the distribution dimensions do not match the channel
    alphabets.
    """
    v_pmf, cell_weights = _cell_weights(spec, dist)
    n_v, receivers = _layout_of(spec)
    # joint_v[mask] = H(V_T) = sum_{j in T} H(V_j), as the V_j are independent,
    # summed in increasing j so that no entry depends on a block shape.
    joint_v = np.zeros(1)
    for p in v_pmf:
        joint_v = np.concatenate([joint_v, joint_v + _entropy(p)])
    entropies = np.empty((spec.K, 1 << spec.K))
    for i, (weights, groups) in enumerate(zip(cell_weights, receivers)):
        for lo, inverse, key in groups:
            n = len(inverse) // len(weights)
            p = np.bincount(inverse, weights=np.tile(weights, n))
            # Only codes of positive weight, so that the exact-zero test sees
            # only the positive-weight cells; zero weights add exact zeros.
            positive = p > 0.0
            p, key = p[positive], key[positive]
            row, masks = key // n_v, slice(lo, lo + n)
            h = np.bincount(row, weights=-p * np.log2(p), minlength=n) - joint_v[masks]
            # Exactly 0.0, which pins a private rate, if no two codes share V_T.
            mixed = np.bincount(row[1:], weights=key[1:] == key[:-1], minlength=n) > 0
            entropies[i, masks] = np.where(mixed, np.maximum(h, 0.0), 0.0)
    return EntropyTable(entropies)


def _cell_weights(spec: ChannelSpec, dist: InputDistribution):
    """Check dist against the alphabets; return v_pmf[j-1], the pmf of V_j
    over the image of g_j, and per receiver i the pmf of (X_i, V_j for j != i)
    over the cells of its output table, in table order."""
    if dist.K != spec.K:
        raise ValueError(f"distribution has {dist.K} users, channel has {spec.K}")
    for i, (n, row) in enumerate(zip(spec.x_alphabet_sizes, dist.probs), start=1):
        if len(row) != n:
            raise ValueError(f"user {i}: distribution over {len(row)} symbols, alphabet size {n}")
    v_pmf = [np.bincount(np.searchsorted(image, g), weights=p)
             for image, g, p in zip(spec.v_images, spec.g_tables, dist.probs)]
    cell_weights = []
    for i in range(1, spec.K + 1):
        weights = np.asarray(dist.probs[i - 1])
        for j in spec.other_users(i):
            weights = np.multiply.outer(weights, v_pmf[j - 1])
        cell_weights.append(weights.ravel())
    return v_pmf, cell_weights


def _layout_of(spec: ChannelSpec):
    """The channel's layout: built in blocks for its table alone if its
    (mask, cell) entries exceed _LAYOUT_ENTRIES, else from `_layouts`, where
    equal channels share it while the one it was built for lives.  Layouts are
    never written; concurrent callers at worst build one twice."""
    n_v = math.prod(len(image) for image in spec.v_images)
    cells = (n * n_v // len(image) for n, image in zip(spec.x_alphabet_sizes, spec.v_images))
    if sum(cells) << spec.K > _LAYOUT_ENTRIES:
        return _build_layout(spec, keep=False)
    layout = _layouts.get(spec)
    if layout is None:
        layout = _layouts[spec] = _build_layout(spec, keep=True)
    return layout


_layouts = weakref.WeakKeyDictionary()  # ChannelSpec -> its kept layout


def _build_layout(spec: ChannelSpec, keep: bool):
    """The channel's layout (n_v, receivers): V_T codes lie below n_v, and
    receivers[i-1] is the (lo, inverse, key) grouping from `_groups` of each
    block of masks, for receiver i's cells in table order.  A kept layout
    groups each receiver's cells in one block of all masks, as it has at most
    _LAYOUT_ENTRIES entries, with compact indices; otherwise each block of
    _BLOCK_CODES codes is grouped only while the table is filled, so the
    transient memory stays one block."""
    K = spec.K
    # V_T is coded as sum_{j in T} place[mask, j-1] * V_j, which is below n_v.
    radix = [len(image) for image in spec.v_images]
    bits = np.arange(1 << K)[:, None] >> np.arange(K) & 1  # bits[mask, j-1]: j in T
    place, n_v = bits * np.cumprod([1] + radix[:-1]), math.prod(radix)

    receivers = []
    for i in range(1, K + 1):
        shape = (spec.x_alphabet_sizes[i - 1],) + tuple(radix[j - 1] for j in spec.other_users(i))
        grid = np.indices(shape).reshape(len(shape), -1)  # flattened in table order
        # Outputs compacted to 0..n_y-1, so that (V_T, y) codes stay small.
        y = np.unique(spec.f_tables[i - 1], return_inverse=True)[1].ravel()
        v = grid[[*range(1, i), 0, *range(i, K)]]  # row j-1: V_j, once X_i is mapped
        v[i - 1] = np.searchsorted(spec.v_images[i - 1], spec.g_tables[i - 1])[v[i - 1]]
        groups = _groups(v, y, place, n_v, _LAYOUT_ENTRIES if keep else _BLOCK_CODES)
        if keep:
            groups = [(lo, _compact(inverse), _compact(key)) for lo, inverse, key in groups]
        receivers.append(groups)
    return n_v, receivers


def _groups(v, y, place, n_v, block_codes):
    """Group the cells by (V_T, Y_i) code, in blocks of `block_codes` codes.

    A block holds at least one mask.  Yields the block's first mask lo, the
    code index of each (mask, cell) entry in mask-major order, and each
    code's key (mask - lo) * n_v + V_T.  Codes are sorted, y the lowest
    digit, so equal keys are adjacent.
    """
    step, n_y = max(1, block_codes // len(y)), int(y.max()) + 1
    for lo in range(0, len(place), step):
        masks = place[lo : lo + step]
        block = (masks @ v + n_v * np.arange(len(masks))[:, None]) * n_y + y
        codes, inverse = np.unique(block.ravel(), return_inverse=True)
        yield lo, inverse, codes // n_y


def _compact(indices):
    """The nonnegative indices in the smallest unsigned integer type."""
    return indices.astype(np.min_scalar_type(indices.max()))


def check_injectivity_identity(spec: ChannelSpec, dist: InputDistribution, tol: float = 1e-9) -> bool:
    """Entropy form of the injectivity condition.

    True iff |H(Y_i|X_i) - sum_{j != i} H(V_j)| <= tol for every receiver i.
    For an injective channel this holds under any product distribution; a
    failure under a full-support distribution exhibits a non-injective
    receiver map.  Both sides come from the channel and the pmf alone
    (`_own_input_entropies`); no entropy table is built.
    """
    y_given_x, marginals = _own_input_entropies(spec, dist)
    return all(
        abs(h - math.fsum(marginals[j - 1] for j in spec.other_users(i))) <= tol
        for i, h in enumerate(y_given_x, start=1)
    )


def _own_input_entropies(spec: ChannelSpec, dist: InputDistribution):
    """(H(Y_i | X_i) per receiver i, H(V_j) per user j), in bits, with
    H(Y_i | X_i) = H(X_i, Y_i) - H(X_i), clipped at 0, over `_cell_weights`."""
    v_pmf, cell_weights = _cell_weights(spec, dist)
    y_given_x = []
    for p_i, table, weights in zip(dist.probs, spec.f_tables, cell_weights):
        y = np.unique(table, return_inverse=True)[1].reshape(len(p_i), -1)
        codes = y + (int(y.max()) + 1) * np.arange(len(p_i))[:, None]  # X_i major, then Y_i
        h = _entropy(np.bincount(codes.ravel(), weights=weights)) - _entropy(np.asarray(p_i))
        y_given_x.append(max(h, 0.0))
    return tuple(y_given_x), tuple(_entropy(p) for p in v_pmf)


def load_distribution(path) -> InputDistribution:
    """Read a distribution JSON file {"p": [[...], ...]}."""
    data = _read_document(path)
    try:
        return InputDistribution(tuple(tuple(row) for row in data["p"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed distribution document: {exc}") from exc


def save_distribution(dist: InputDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_document({"p": [list(row) for row in dist.probs]}, fh)
