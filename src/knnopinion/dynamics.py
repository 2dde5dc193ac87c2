"""Core update laws: k-nearest-neighbor averaging and asynchronous bounded
confidence (ABC), plus neighbor selection.

Neighbor rule (k-NN): order all agents by (|x_j - x_i|, j) ascending and take
the first k. The id component makes the order strictly total, so the neighbor
set is unique; ties always resolve toward the lower agent id. The updating
agent may or may not survive into its own neighbor set.

ABC rule: all agents within distance d, always including the agent itself.

A Configuration stores one form, `keys` over `den`: an exact state's integer
numerators N over their least common denominator D, or a float state's
floats with den None. Scaling by a positive D keeps every distance order and
every exact tie, so knn_neighbors, knn_update and diameter work on the
stored keys, and an exact state builds no Fraction for them. The exact
knn_update is the verifiers' hot path: it reads keys and den once, checks
the agent id inline and stores its mean as the ratio p/q, setting the slots
through their own descriptors. replace and opinion are the literal
definitions: replace rebuilds the configuration with one opinion changed.

knn_indices is the literal rule and the oracle: one stable sort of all n
agents by the computed distance abs(v - x_i), so equal distances stay in id
order. Any totally ordered keys serve: floats, ints or Fractions.

OpinionIndex gives the same answer in O(log n + k) for a run that updates
one agent at a time. It keeps the opinions sorted as (value, position)
pairs. From the updater it grows a window outward, always taking
the nearer of the two next pairs, until the window holds k agents. Computed
distances abs(v - x) never decrease going outward from x on either side,
because rounding of x - v is monotone in v. So the window holds the k
smallest computed distances, and any agent left outside is at least as far
as the k-th. Those exactly as far can still win on id, so the window then
takes in every pair whose computed distance equals the k-th. Candidates are
grouped by computed distance, not by value: two distinct values can round
to one distance (from x = 1.0, both 0.0 and 2**-60 are at 1.0). Sorting the
candidates by (abs(v - x), j) then yields exactly knn_indices' list, in its
order, which float means depend on, because they sum in that order.

Agent ids are 1-based in every public interface.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction
from typing import Sequence

from .numerics import (
    EXACT,
    FLOAT,
    Scalar,
    coerce_all,
    common_numerators,
    mean_exact,
    mean_float,
)


class ParameterError(ValueError):
    """Out-of-range k, d or agent id."""


class Configuration:
    """Immutable vector of n opinions, agent ids 1..n, single backend.

    Stored once, as `keys` over `den`: an exact state as integer numerators
    N over their least common denominator D, so gcd(D, *N) == 1 and equal
    states store equal pairs, which == and hash compare; a float state as
    its floats, with den None. `opinions` is built on first read unless
    given to Configuration().
    """

    __slots__ = ("keys", "den", "_opinions")

    def __init__(self, opinions: Sequence):
        vals, backend = coerce_all(opinions)
        keys, den = common_numerators(vals) if backend == EXACT else (vals, None)
        self._store(keys, den, tuple(vals))

    @classmethod
    def _from_keys(cls, keys: Sequence, den) -> "Configuration":
        """The state stored as `keys` over `den`: floats with den None, or
        integer numerators over a positive den, reduced to lowest terms."""
        g = 1 if den is None else math.gcd(den, *keys)
        if g != 1:
            keys, den = [m // g for m in keys], den // g
        out = object.__new__(cls)
        out._store(keys, den, None)
        return out

    def _store(self, keys: Sequence, den, opinions) -> None:
        if len(keys) == 0:
            raise ParameterError("a configuration needs at least one agent")
        keys = tuple(keys)
        _set_keys(self, keys)
        _set_den(self, den)
        _set_opinions(self, keys if den is None else opinions)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __reduce__(self):
        # pickle and copy rebuild via _from_keys, not the blocked setattr
        return (Configuration._from_keys, (self.keys, self.den))

    @property
    def backend(self) -> str:
        return FLOAT if self.den is None else EXACT

    @property
    def opinions(self) -> tuple:
        if self._opinions is None:
            _set_opinions(self, tuple([Fraction(m, self.den) for m in self.keys]))
        return self._opinions

    @property
    def n(self) -> int:
        return len(self.keys)

    def opinion(self, i: int) -> Scalar:
        self._check_agent(i)
        return self.opinions[i - 1]

    def agents(self) -> range:
        return range(1, self.n + 1)

    def replace(self, i: int, value: Scalar) -> "Configuration":
        # value is coerced with the opinion it replaces, so a plain int
        # follows the state's backend even when the state has one agent
        self._check_agent(i)
        ops = list(self.opinions)
        ops[i - 1] = coerce_all([ops[i - 1], value])[0][1]
        return Configuration(ops)

    def _put_ratio(self, idx: int, p: int, q: int) -> "Configuration":
        """This exact state with position idx (0-based) set to p/q, q > 0: p/q
        reduced, N rescaled only if D' = lcm(D, q) != D, the last gcd left to _from_keys."""
        g = math.gcd(p, q)
        p, q = p // g, q // g
        den = math.lcm(self.den, q)
        scale = den // self.den
        keys = list(self.keys) if scale == 1 else [m * scale for m in self.keys]
        keys[idx] = p * (den // q)
        return Configuration._from_keys(keys, den)

    def without(self, i: int) -> "Configuration":
        self._check_agent(i)
        if self.n == 1:
            raise ParameterError("cannot remove the last agent")
        return Configuration._from_keys(self.keys[:i - 1] + self.keys[i:], self.den)

    def _check_agent(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ParameterError(f"agent id {i} out of range 1..{self.n}")

    def __eq__(self, other):
        return (isinstance(other, Configuration)
                and (self.den, self.keys) == (other.den, other.keys))

    def __hash__(self):
        return hash((self.den, self.keys))

    def __repr__(self):
        return f"Configuration({list(self.opinions)!r})"


# the slots' own setters, which __setattr__ above blocks for everyone else
_set_keys, _set_den, _set_opinions = (
    Configuration.__dict__[name].__set__ for name in Configuration.__slots__)


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} violates 1 <= k <= n={n}")


# Positional (0-based) primitives shared by the simulation hot loops.

def knn_indices(opinions: Sequence, idx: int, k: int) -> list:
    """0-based indices of the k nearest opinions to opinions[idx], ties to
    the lower index: one stable sort by the computed distance, over floats,
    ints or Fractions. Positional order must match agent-id order."""
    xi = opinions[idx]
    dists = [abs(v - xi) for v in opinions]
    # sorted() is stable, so equal distances stay in index order
    return sorted(range(len(opinions)), key=dists.__getitem__)[:k]


class OpinionIndex:
    """A run's opinion list, indexed as sorted (value, position) pairs.

    Writes to `opinions` go through move(); positions are 0-based, as in
    knn_indices. Build a new index when positions shift (an agent is added
    or removed). Values must be totally ordered, so no NaN.
    """

    __slots__ = ("opinions", "pairs")

    def __init__(self, opinions: list):
        self.opinions = opinions
        self.pairs = sorted(zip(opinions, range(len(opinions))))

    def min(self) -> Scalar:
        return self.pairs[0][0]

    def max(self) -> Scalar:
        # equal maxima (0.0 and -0.0) sit in position order; max() returns
        # the first of them, so this must too
        pairs = self.pairs
        return pairs[bisect_left(pairs, (pairs[-1][0],))][0]

    def move(self, idx: int, value: Scalar) -> None:
        """Set opinions[idx] = value and re-sort its pair."""
        pairs = self.pairs
        del pairs[bisect_left(pairs, (self.opinions[idx], idx))]
        insort(pairs, (value, idx))
        self.opinions[idx] = value

    def knn(self, idx: int, k: int) -> list:
        """Exactly knn_indices(opinions, idx, k), in the same order."""
        pairs, x = self.pairs, self.opinions[idx]
        n = len(pairs)
        lo = hi = bisect_left(pairs, (x, idx))
        # pairs[lo:hi] is the window taken so far and `near` its (distance,
        # position) keys, in the order taken, which is by distance; dl and dr
        # are the distances of the next pair out on each side, None past an end
        near = []
        dl = abs(pairs[lo - 1][0] - x) if lo else None
        dr = abs(pairs[hi][0] - x)
        for _ in range(k):
            if dr is None or (dl is not None and dl <= dr):
                lo -= 1
                near.append((dl, pairs[lo][1]))
                dl = abs(pairs[lo - 1][0] - x) if lo else None
            else:
                near.append((dr, pairs[hi][1]))
                hi += 1
                dr = abs(pairs[hi][0] - x) if hi < n else None
        # then every pair as far as the k-th, which can still win on id
        dk = near[-1][0]
        while dl == dk:
            lo -= 1
            near.append((dl, pairs[lo][1]))
            dl = abs(pairs[lo - 1][0] - x) if lo else None
        while dr == dk:
            near.append((dr, pairs[hi][1]))
            hi += 1
            dr = abs(pairs[hi][0] - x) if hi < n else None
        near.sort()
        return [j for _, j in near[:k]]


def abc_indices(opinions: Sequence[Scalar], idx: int, d: Scalar) -> list:
    xi = opinions[idx]
    return [j for j, xj in enumerate(opinions) if abs(xj - xi) <= d]


# 1-based public operations over Configuration; neighbours, means and the
# diameter come from the stored keys.

def _config_mean(config: Configuration, idxs: list) -> Scalar:
    """Mean opinion of the agents at the 0-based positions idxs."""
    vals = [config.keys[j] for j in idxs]
    return mean_float(vals) if config.den is None else mean_exact(vals, config.den)


def knn_neighbors(config: Configuration, i: int, k: int) -> tuple:
    """Neighbor ids of agent i, in selection order (distance, then id)."""
    _check_k(k, config.n)
    config._check_agent(i)
    return tuple(j + 1 for j in knn_indices(config.keys, i - 1, k))


def knn_update(config: Configuration, i: int, k: int) -> Configuration:
    # the exact verifiers' hot path: keys and den read once, the id checked inline
    keys, den = config.keys, config.den
    n = len(keys)
    _check_k(k, n)
    if not 1 <= i <= n:
        raise ParameterError(f"agent id {i} out of range 1..{n}")
    idxs = knn_indices(keys, i - 1, k)
    if den is None:
        return config.replace(i, _config_mean(config, idxs))
    return config._put_ratio(i - 1, sum([keys[j] for j in idxs]), den * k)


def abc_update(config: Configuration, i: int, d: Scalar) -> Configuration:
    config._check_agent(i)
    if d < 0:
        raise ParameterError("confidence range d must be >= 0")
    return config.replace(i, _config_mean(config, abc_indices(config.opinions, i - 1, d)))


def diameter(config: Configuration) -> Scalar:
    keys = config.keys
    spread = max(keys) - min(keys)
    return spread if config.den is None else Fraction(spread, config.den)
