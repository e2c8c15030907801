"""Exact entropy computation for a channel under a product input distribution.

All quantities come from exact marginalization, at each receiver, of the
joint pmf over its output table; the codes of all subset masks are sorted
in blocks of at most _BLOCK_CODES, which bounds the transient memory.
Entropies are in bits, double precision, with 0*log(0) taken as 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSpec

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


@dataclass(frozen=True)
class InputDistribution:
    """Product input distribution: probs[i-1][x] = p_i(x).

    Each per-user vector must be finite, nonnegative and sum to 1 within 1e-12.
    """

    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(tuple(map(float, row)) for row in self.probs))
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
        """All mass on one input tuple (defaults to the all-zero tuple)."""
        if symbols is None:
            symbols = (0,) * spec.K
        rows = []
        for n, s in zip(spec.x_alphabet_sizes, symbols):
            rows.append(tuple(1.0 if x == s else 0.0 for x in range(n)))
        return cls(tuple(rows))


def subset_rank(M) -> int:
    """Binary encoding of a user subset (user m sets bit m-1)."""
    r = 0
    for m in M:
        r |= 1 << (m - 1)
    return r


@dataclass(frozen=True, eq=False)
class EntropyTable:
    """All conditional entropies the region formulas need.

    h is a read-only float array of shape (K, 2^K) with
    h[i-1, mask] = H(Y_i | V_T) for receiver i and user subset T, where bit
    m-1 of mask is user m (mask = subset_rank(T); T may contain i).  The
    constructor copies h and raises ValueError for any other shape.
    v_marginals[j-1] = H(V_j).
    """

    K: int
    h: np.ndarray = field(repr=False)
    v_marginals: tuple[float, ...]
    # H(Y_i | X_i), used by the injectivity identity check.
    y_given_own_input: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.shape != (self.K, 1 << self.K):
            raise ValueError(f"entropy array has shape {h.shape}, expected ({self.K}, {1 << self.K})")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    def h_y_given_v(self, i: int, T) -> float:
        return float(self.h[i - 1, subset_rank(T)])

    def h_v(self, j: int) -> float:
        return self.v_marginals[j - 1]


def _entropy(codes, weights) -> float:
    """Entropy in bits of the pmf that `weights` puts on equal `codes`;
    zero weights contribute nothing."""
    _, inverse = np.unique(codes, return_inverse=True)
    p = np.bincount(inverse.ravel(), weights=np.ravel(weights))
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def build_entropy_table(spec: ChannelSpec, dist: InputDistribution) -> EntropyTable:
    """Fill the complete conditional-entropy table.

    Row i-1 of the (K, 2^K) array holds H(Y_i | V_T) for every subset mask
    (bit m-1 is user m).  Receiver i's entries come from the joint pmf of
    (X_i, V_j for j != i), which is a product of independent pmfs, over the
    cells of its output table, as H(V_T, Y_i) - sum_{j in T} H(V_j); an entry
    is exactly 0.0 when Y_i is a function of V_T on the positive-weight cells.

    Raises ValueError if the distribution dimensions do not match the channel
    alphabets.
    """
    if dist.K != spec.K:
        raise ValueError(f"distribution has {dist.K} users, channel has {spec.K}")
    for i, (n, row) in enumerate(zip(spec.x_alphabet_sizes, dist.probs), start=1):
        if len(row) != n:
            raise ValueError(
                f"user {i}: distribution over {len(row)} symbols, alphabet size {n}"
            )

    K = spec.K
    users = range(1, K + 1)
    # v_rank[j-1][x]: position of g_j(x) in the image of g_j, the alphabet of V_j.
    v_rank = [np.searchsorted(spec.v_images[j - 1], spec.g_tables[j - 1]) for j in users]
    v_pmf = [np.bincount(v_rank[j - 1], weights=dist.probs[j - 1]) for j in users]
    marginals = tuple(_entropy(v_rank[j - 1], dist.probs[j - 1]) for j in users)
    # V_T is coded as sum_{j in T} place[mask, j-1] * V_j, which is below n_v.
    radix = [len(p) for p in v_pmf]
    bits = np.arange(1 << K)[:, None] >> np.arange(K) & 1  # bits[mask, j-1]: j in T
    place, n_v = bits * np.cumprod([1] + radix[:-1]), math.prod(radix)

    entropies = np.empty((K, 1 << K))
    h_y_given_x = []
    for i in users:
        others = spec.other_users(i)
        shape = (spec.x_alphabet_sizes[i - 1],) + tuple(radix[j - 1] for j in others)
        grid = np.indices(shape).reshape(len(shape), -1)  # flattened in table order
        weights = np.asarray(dist.probs[i - 1])
        for j in others:
            weights = np.multiply.outer(weights, v_pmf[j - 1])
        # Outputs compacted to 0..n_y-1, so that (V_T, y) codes stay small.
        y = np.unique(spec.f_tables[i - 1], return_inverse=True)[1].ravel()
        n_y = int(y.max()) + 1

        # H(Y_i | X_i) = H(X_i, Y_i) - H(X_i)
        h = _entropy(grid[0] * n_y + y, weights) - _entropy(grid[0], weights)
        h_y_given_x.append(max(h, 0.0))
        cells = weights.ravel() > 0.0  # the exact-zero test below must see only these
        v = np.insert(grid[1:], i - 1, v_rank[i - 1][grid[0]], axis=0)[:, cells]  # row j-1: V_j
        y, weights = y[cells], weights.ravel()[cells]
        step = max(1, _BLOCK_CODES // len(y))
        for lo in range(0, 1 << K, step):
            masks = slice(lo, lo + step)
            n = len(place[masks])
            # (V_T, y) codes, y the lowest digit, each mask offset by n_v * n_y.
            block = (place[masks] @ v + n_v * np.arange(n)[:, None]) * n_y + y
            codes, inverse = np.unique(block.ravel(), return_inverse=True)
            p = np.bincount(inverse, weights=np.tile(weights, n))
            row, key = codes // (n_v * n_y), codes // n_y
            # H(V_T) = sum_{j in T} H(V_j), as the V_j are independent.
            h = np.bincount(row, weights=-p * np.log2(p), minlength=n) - bits[masks] @ marginals
            # Exactly 0.0, which pins a private rate, if no two codes share V_T.
            mixed = np.bincount(row[1:][key[1:] == key[:-1]], minlength=n) > 0
            entropies[i - 1, masks] = np.where(mixed, np.maximum(h, 0.0), 0.0)

    return EntropyTable(
        K=K, h=entropies, v_marginals=marginals, y_given_own_input=tuple(h_y_given_x)
    )


def check_injectivity_identity(spec: ChannelSpec, dist: InputDistribution, tol: float = 1e-9) -> bool:
    """Entropy form of the injectivity condition.

    True iff |H(Y_i|X_i) - sum_{j != i} H(V_j)| <= tol for every receiver i.
    For an injective channel this holds under any product distribution; a
    failure under a full-support distribution exhibits a non-injective
    receiver map.
    """
    table = build_entropy_table(spec, dist)
    for i in range(1, spec.K + 1):
        rhs = math.fsum(table.h_v(j) for j in spec.other_users(i))
        if abs(table.y_given_own_input[i - 1] - rhs) > tol:
            return False
    return True


def load_distribution(path) -> InputDistribution:
    """Read a distribution JSON file {"p": [[...], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return InputDistribution(tuple(tuple(row) for row in data["p"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distribution document: {exc}") from exc


def save_distribution(dist: InputDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"p": [list(row) for row in dist.probs]}, fh, indent=1)
        fh.write("\n")
