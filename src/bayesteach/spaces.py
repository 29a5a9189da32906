"""Explanation spaces: the candidate sets the teacher normalizes over.

A space bundles the candidate enumeration, the explanation prior P(x)
(an unnormalized nonnegative weight), and a symmetric proposal kernel so
Markov chain search works on spaces too large to enumerate.

Canonical forms keep equality meaningful: subset payloads are per-class
sorted index tuples concatenated in class order, masks are int8 arrays.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from typing import Hashable, Iterator

import numpy as np

from .errors import BadSpec, NotEnumerable
from .types import MAX_DRAWS, Explanation, ExplanationKind, example_set, feature_mask

# Spaces larger than this refuse exhaustive enumeration.
MAX_ENUMERATION = 1 << 20


def coalition_rows(sizes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """0/1 coalition rows: row i holds the positions whose rank in
    ``uniforms[i]`` falls below ``sizes[i]``. Over iid uniforms every
    coalition of a row's size is equally likely."""
    ranks = uniforms.argsort(axis=1).argsort(axis=1)
    return (ranks < sizes[:, None]).astype(np.float64)


class ExplanationSpace:
    """Interface: deterministic enumeration plus a symmetric proposal."""

    descriptor: str = "abstract"
    kind: ExplanationKind

    def size(self) -> int:
        raise NotImplementedError

    def elements(self) -> Iterator[Explanation]:
        """Yield every candidate exactly once, in a fixed documented order."""
        raise NotImplementedError

    def prior_weight(self, x: Explanation) -> float:
        raise NotImplementedError

    def log_prior(self, x: Explanation) -> float:
        raise NotImplementedError

    def initial_state(self, rng: np.random.Generator) -> Explanation:
        raise NotImplementedError

    def propose(self, x: Explanation, rng: np.random.Generator) -> Explanation:
        """Draw a neighbour: one move of ``chain_moves`` applied to x. The
        kernel must satisfy q(a->b) = q(b->a)."""
        parts, moves = self.chain_moves(rng, 1)
        c, state = int(parts[0]), self.state_of(x)
        seg = self.segment_step(c, state[c], int(moves[0]))
        return x if seg is state[c] else self.explanation_of(state[:c] + (seg,) + state[c + 1 :])

    # A Markov chain walks a state that is a tuple of parts, each part a
    # hashable segment; the Explanation is built from the parts only when
    # one is read. By default there is one part, the Explanation itself.
    # Part c has ``radices[c]`` possible segments and ``spans[c]`` moves
    # from each. A space whose segments are the ints below their radix
    # sets ``self_indexed``: each segment is then its own id. The chain
    # starts from one draw (``chain_start``), then draws its moves in
    # blocks: ``chain_moves`` gives the part and the move of ``count``
    # steps as two int arrays from a few array draws, and
    # ``segment_step`` applies one move to one part without drawing,
    # returning the segment itself when the move keeps it.

    radices: list[int]
    spans: list[int]
    self_indexed = False

    def chain_start(self, rng: np.random.Generator) -> tuple:
        return self.state_of(self.initial_state(rng))

    def chain_moves(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(count, dtype=np.int64), rng.integers(self.spans[0], size=count)

    def segment_step(self, c: int, seg: Hashable, move: int) -> Hashable:
        raise NotImplementedError

    def explanation_of(self, state: tuple) -> Explanation:
        return state[0]

    def state_of(self, x: Explanation) -> tuple:
        return (x,)

    def _check_enumerable(self) -> None:
        if self.size() > MAX_ENUMERATION:
            raise NotEnumerable(
                f"{self.descriptor}: {self.size()} candidates exceed the "
                f"enumeration limit of {MAX_ENUMERATION}"
            )


class SubsetSpace(ExplanationSpace):
    """All ways to pick a fixed number of dataset rows from each class.

    With a single unlabeled pool this is the plain k-subsets of n space.
    With labels, one subset is chosen per class and the explanation is the
    concatenation in class order; enumeration is the lexicographic product
    of per-class lexicographic combinations. The prior is uniform.
    """

    kind = ExplanationKind.EXAMPLE_SET

    def __init__(self, class_indices: Sequence[Sequence[int]], per_class_k: Sequence[int]):
        if len(class_indices) != len(per_class_k):
            raise BadSpec("one subset size required per class pool")
        self._pools = [tuple(sorted(int(i) for i in pool)) for pool in class_indices]
        self._ks = [int(k) for k in per_class_k]
        for pool, k in zip(self._pools, self._ks):
            if k < 1:
                raise BadSpec(f"subset size must be >= 1, got {k}")
            if k > len(pool):
                raise BadSpec(f"cannot pick {k} rows from a pool of {len(pool)}")
            if len(set(pool)) != len(pool):
                raise BadSpec("index pools must not repeat rows")
        self._k_of = np.array(self._ks)
        self._free_of = np.maximum([len(p) - k for p, k in zip(self._pools, self._ks)], 1)
        self.radices = [math.comb(len(p), k) for p, k in zip(self._pools, self._ks)]
        self.spans = [k * int(free) for k, free in zip(self._ks, self._free_of)]
        sizes = "x".join(f"C({len(p)},{k})" for p, k in zip(self._pools, self._ks))
        self.descriptor = f"example subsets [{sizes}]"

    @classmethod
    def per_class(cls, labels: np.ndarray, per_class_k: Sequence[int] | int) -> "SubsetSpace":
        labels = np.asarray(labels)
        classes = sorted(set(labels.tolist()))
        pools = [np.flatnonzero(labels == c).tolist() for c in classes]
        if isinstance(per_class_k, int):
            per_class_k = [per_class_k] * len(pools)
        return cls(pools, list(per_class_k))

    def size(self) -> int:
        return math.prod(self.radices)

    def elements(self) -> Iterator[Explanation]:
        self._check_enumerable()
        per_class = [itertools.combinations(pool, k) for pool, k in zip(self._pools, self._ks)]
        for combo in itertools.product(*per_class):
            yield example_set(itertools.chain.from_iterable(combo))

    def prior_weight(self, x: Explanation) -> float:
        return 1.0

    def log_prior(self, x: Explanation) -> float:
        return 0.0

    # The chain's parts are the pools, each segment a sorted row tuple;
    # the Explanation is their concatenation. A move swaps one chosen row
    # for one unchosen row of the same pool. The pool is drawn uniformly,
    # then both endpoints uniformly, so the move and its reverse have
    # identical probability. It is ``drop * free + j``: the position of
    # the dropped row among the pool's k chosen rows, and of the added row
    # among its ``free`` unchosen rows. A pool with no unchosen row draws
    # j from [0, 1) and keeps its segment. The start is one ``draw``.

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform draws as the rows of an (n, sum of k) int array: pool
        by pool, ``rng.random((n, len(pool)))`` picks the k rows of lowest
        uniform, the rows ``coalition_rows`` keeps, in ascending order.
        n < 1, or more than ``MAX_DRAWS`` uniforms, raises BadSpec before
        anything is drawn."""
        width = sum(map(len, self._pools))
        if n < 1 or n * width > MAX_DRAWS:
            raise BadSpec(f"{n} subsets need n >= 1 and at most {MAX_DRAWS} uniforms, {width} per subset")
        segments = []
        for pool, k in zip(self._pools, self._ks):
            chosen = np.argpartition(rng.random((n, len(pool))), k - 1, axis=1)[:, :k]
            segments.append(np.array(pool)[np.sort(chosen, axis=1)])
        return np.hstack(segments)

    def chain_start(self, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
        return self.state_of(example_set(self.draw(rng, 1)[0]))

    def chain_moves(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        c = rng.integers(len(self._pools), size=count)
        drop = rng.integers(0, self._k_of[c])
        free = self._free_of[c]
        return c, drop * free + rng.integers(0, free)

    def segment_step(self, c: int, seg: tuple[int, ...], move: int) -> tuple[int, ...]:
        pool = self._pools[c]
        if len(seg) == len(pool):
            return seg
        drop, j = divmod(move, len(pool) - len(seg))
        # the j-th unchosen row in pool order: step over the chosen rows
        # (both tuples ascend) at or before it
        for row in seg:
            if bisect.bisect_left(pool, row) <= j:
                j += 1
        return tuple(sorted(seg[:drop] + seg[drop + 1 :] + (pool[j],)))

    def explanation_of(self, state: tuple[tuple[int, ...], ...]) -> Explanation:
        return example_set(itertools.chain.from_iterable(state))

    def state_of(self, x: Explanation) -> tuple[tuple[int, ...], ...]:
        state, start = [], 0
        for k in self._ks:
            state.append(tuple(x.payload[start : start + k]))
            start += k
        return tuple(state)


class MaskSpace(ExplanationSpace):
    """Binary feature masks with an independent Bernoulli keep prior.

    A chain walks the mask as the int whose bit i is entry i: its radix
    is 2^dim and a move flips the bit it names, an XOR. The bits are
    their own id, and the mask Explanation is built from them only when
    the chain scores or reports a state."""

    kind = ExplanationKind.FEATURE_MASK
    self_indexed = True

    def __init__(self, dim: int, keep_prob: float):
        if dim < 1:
            raise BadSpec(f"mask dimension must be >= 1, got {dim}")
        if not 0.0 < keep_prob < 1.0:
            raise BadSpec(f"keep probability must lie in (0, 1), got {keep_prob}")
        self.dim = int(dim)
        self.keep_prob = float(keep_prob)
        self._log_p = math.log(self.keep_prob)
        self._log_q = math.log1p(-self.keep_prob)
        self.descriptor = f"feature masks [2^{dim}, keep_prob={keep_prob}]"
        self.radices, self.spans = [1 << self.dim], [self.dim]

    def size(self) -> int:
        return 1 << self.dim

    def elements(self) -> Iterator[Explanation]:
        self._check_enumerable()
        for bits in itertools.product((0, 1), repeat=self.dim):
            yield feature_mask(bits)

    def prior_weight(self, x: Explanation) -> float:
        ones = int(np.sum(x.payload))
        return self.keep_prob**ones * (1.0 - self.keep_prob) ** (self.dim - ones)

    def log_prior(self, x: Explanation) -> float:
        ones = int(np.sum(x.payload))
        return ones * self._log_p + (self.dim - ones) * self._log_q

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n prior draws as the rows of an (n, dim) array of 0.0 and 1.0,
        equal to n successive ``initial_state`` draws from the same rng."""
        return (rng.random((n, self.dim)) < self.keep_prob).astype(np.float64)

    def initial_state(self, rng: np.random.Generator) -> Explanation:
        return feature_mask(self.draw(rng, 1)[0])

    def segment_step(self, c: int, seg: int, move: int) -> int:
        return seg ^ (1 << move)

    def explanation_of(self, state: tuple[int]) -> Explanation:
        packed = np.frombuffer(state[0].to_bytes((self.dim + 7) // 8, "little"), dtype=np.uint8)
        return feature_mask(np.unpackbits(packed, count=self.dim, bitorder="little"))

    def state_of(self, x: Explanation) -> tuple[int]:
        return (int.from_bytes(np.packbits(x.payload, bitorder="little").tobytes(), "little"),)


class EnumeratedSpace(ExplanationSpace):
    """An explicit candidate list, optionally with per-candidate weights.

    A weighted list must not repeat a candidate, since a prior is looked
    up by candidate; an unweighted one may."""

    def __init__(self, candidates: Sequence[Explanation], prior_weights: Sequence[float] | None = None, descriptor: str = "enumerated"):
        if len(candidates) == 0:
            raise BadSpec("an enumerated space needs at least one candidate")
        self._candidates = tuple(candidates)
        self.kind = self._candidates[0].kind
        if prior_weights is None:
            self._weights = None
            self._log_weights = None
        else:
            weights = np.asarray(prior_weights, dtype=float)
            if weights.shape != (len(self._candidates),) or np.any(weights < 0):
                raise BadSpec("prior weights must be nonnegative, one per candidate")
            self._weights = weights
            with np.errstate(divide="ignore"):
                self._log_weights = np.log(weights)
        self._index = {c: i for i, c in enumerate(self._candidates)}
        if self._weights is not None and len(self._index) < len(self._candidates):
            raise BadSpec("weighted candidates must be distinct")
        self.descriptor = f"{descriptor} [{len(self._candidates)}]"
        self.radices, self.spans = [len(self._candidates)], [max(len(self._candidates) - 1, 1)]

    def size(self) -> int:
        return len(self._candidates)

    def elements(self) -> Iterator[Explanation]:
        self._check_enumerable()
        return iter(self._candidates)

    def prior_weight(self, x: Explanation) -> float:
        if self._weights is None:
            return 1.0
        return float(self._weights[self._index[x]])

    def log_prior(self, x: Explanation) -> float:
        if self._log_weights is None:
            return 0.0
        return float(self._log_weights[self._index[x]])

    def initial_state(self, rng: np.random.Generator) -> Explanation:
        return self._candidates[int(rng.integers(len(self._candidates)))]

    def segment_step(self, c: int, seg: Explanation, move: int) -> Explanation:
        # a move names one of the other candidates, skipping the current
        # one; a single candidate draws from [0, 1) and keeps the state
        if len(self._candidates) == 1:
            return seg
        if move >= self._index[seg]:
            move += 1
        return self._candidates[move]
