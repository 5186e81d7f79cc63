"""Symmetry groups and their actions on data.

The symmetric group, the block group of two-layer hierarchical data and graph
automorphism groups are permutation groups sharing one element form, a
``Permutation`` of the flattened data point; orthogonal matrices act on point
clouds. Plus uniform sampling, orbits, stabilizers, and cosets. All finite
groups expose batched enumeration so that downstream quantile computations
stay vectorized. Every permutation group is held as a stabilizer chain
(``symmpi.chains``): in closed form for the symmetric and block groups, and
for a graph's automorphisms found by a search pruned with colour refinement
or built by Schreier–Sims from generators. Its order and orbits need no
enumeration, and its elements are listed, in lexicographic order of their
images, only when asked for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chains import StabilizerChain, WeightedGraph, checked_adjacency


class NotEnumerableError(TypeError):
    """Raised when exact enumeration is requested for a non-finite group."""


class Permutation:
    """A permutation of [0, n), stored as the image of each index."""

    __slots__ = ("mapping",)

    def __init__(self, mapping, validate: bool = True):
        m = np.asarray(mapping, dtype=np.int64)
        if validate:
            if m.ndim != 1 or not np.array_equal(np.sort(m), np.arange(m.size)):
                raise ValueError("mapping must be a bijection on [0, n)")
        self.mapping = m

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n), validate=False)

    @property
    def n(self) -> int:
        return self.mapping.size

    def __call__(self, i: int) -> int:
        return int(self.mapping[i])

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i))."""
        return Permutation(self.mapping[other.mapping], validate=False)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.n)
        return Permutation(inv, validate=False)

    def act(self, z):
        """Permute the last axis of z: out[..., g(i)] = z[..., i]."""
        z = np.asarray(z)
        return np.take(z, self.inverse().mapping, axis=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.mapping, other.mapping)

    def __hash__(self) -> int:
        return hash(tuple(self.mapping.tolist()))

    def __repr__(self) -> str:
        return f"Permutation({self.mapping.tolist()})"


def sample_uniform_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform draw from the symmetric group on n symbols."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(rng.permutation(n), validate=False)


def sample_block_permutation(K: int, M: int, rng: np.random.Generator) -> Permutation:
    """Uniform draw from the block group on K blocks of M entries, as a
    permutation of the K*M flattened entries: an outer permutation of the
    blocks, then one inner permutation per block; entry i of block k moves to
    entry inner_k(i) of block outer(k)."""
    if K < 1 or M < 1:
        raise ValueError("K and M must be >= 1")
    outer = rng.permutation(K)
    inners = np.array([rng.permutation(M) for _ in range(K)])
    return Permutation((outer[:, None] * M + inners).ravel(), validate=False)


def sample_haar_orthogonal(p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform p x p orthogonal matrix via QR of a Gaussian matrix.

    The R-diagonal sign correction Q <- Q diag(sign(R_ii)) makes the law
    exactly uniform rather than merely orthogonal.
    """
    return _haar_matrices(p, 1, rng)[0]


def _haar_matrices(p: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    """``draws`` Haar-uniform p x p orthogonal matrices, (draws, p, p), from
    one Gaussian draw and one stacked QR (Mezzadri, "How to generate random
    matrices from the classical compact groups", 2007): the matrices and the
    stream of ``draws`` successive ``sample_haar_orthogonal`` calls."""
    if p < 1:
        raise ValueError("p must be >= 1")
    g = rng.standard_normal((draws, p, p))
    if p == 1:
        # the 1 x 1 QR is the draw's sign, +1 at zero
        return np.where(g < 0, -1.0, 1.0)
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=1, axis2=2))
    d[d == 0] = 1.0
    return q * d[:, None, :]


# --------------------------------------------------------------------------
# Group action contracts
# --------------------------------------------------------------------------


class GroupAction:
    """Abstract group with an action on data arrays.

    Finite groups additionally provide ``order`` and ``elements``, and
    permutation groups ``iter_mapping_batches``.
    """

    def identity(self):
        raise NotImplementedError

    def compose(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def act(self, g, z):
        raise NotImplementedError

    def order(self) -> int:
        raise NotEnumerableError(f"{type(self).__name__} is not enumerable")

    def elements(self):
        raise NotEnumerableError(f"{type(self).__name__} is not enumerable")

    def iter_mapping_batches(self, batch_size: int = 250_000):
        """Yield (m, n) integer arrays of permutation images, if applicable."""
        raise NotEnumerableError(f"{type(self).__name__} has no permutation form")


class TrivialGroup(GroupAction):
    """The one-element group; acts as the identity on anything."""

    def identity(self):
        return None

    def compose(self, g, h):
        return None

    def inverse(self, g):
        return None

    def sample(self, rng):
        return None

    def act(self, g, z):
        return np.asarray(z)

    def order(self) -> int:
        return 1

    def elements(self):
        return iter([None])


class PermutationGroup(GroupAction):
    """A finite group of permutations of a data point's entries.

    Every element is a ``Permutation`` of the flattened point: entry i of a
    point of ``shape`` moves to entry g(i). The group is held as a
    stabilizer chain for the base 0..n-1, which gives its order and orbits
    and lists its elements in lexicographic order of their images.
    Subclasses give the shape, ``sample`` and the chain: a graph group's
    constructor takes it, and the symmetric and block groups name their
    ``_blocks`` (K, M), whose closed-form chain is built on first use.
    """

    shape: tuple
    _blocks: tuple

    @functools.cached_property
    def _chain(self) -> StabilizerChain:
        return StabilizerChain.of_blocks(*self._blocks)

    def order(self) -> int:
        return self._chain.order

    def iter_mapping_batches(self, batch_size: int = 250_000):
        """Read-only (B, n) arrays of the elements' images, in lexicographic
        order."""
        return self._chain.lex_batches(batch_size)

    def identity(self) -> Permutation:
        return Permutation.identity(math.prod(self.shape))

    def compose(self, g: Permutation, h: Permutation) -> Permutation:
        return g.compose(h)

    def inverse(self, g: Permutation) -> Permutation:
        return g.inverse()

    def act(self, g: Permutation, z):
        """Act on (..., *shape) points or on their flat form (..., n)."""
        z = np.asarray(z)
        n = math.prod(self.shape)
        if z.shape[-1:] == (n,):
            return g.act(z)
        if z.shape[z.ndim - len(self.shape):] == self.shape:
            lead = z.shape[: z.ndim - len(self.shape)]
            return g.act(z.reshape(lead + (n,))).reshape(z.shape)
        raise ValueError(f"data shape {z.shape} does not match the group's points {self.shape}")

    def elements(self):
        for maps in self.iter_mapping_batches():
            for m in maps:
                yield Permutation(m, validate=False)


class SymmetricGroup(PermutationGroup):
    """All permutations of n symbols, acting by coordinate permutation."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.shape = (n,)
        self._blocks = (1, n)

    def sample(self, rng) -> Permutation:
        return sample_uniform_permutation(self.n, rng)

    def act_uniform_batch(self, rng, z):
        """Apply an independent uniform permutation to each row of z (..., n)."""
        z = np.asarray(z)
        return rng.permuted(z, axis=-1)


class BlockPermutationGroup(PermutationGroup):
    """Permutations moving whole blocks and shuffling within blocks.

    Acts on (..., K, M) arrays (or their flat (..., K*M) form); the group
    has size K! * (M!)^K.
    """

    def __init__(self, K: int, M: int):
        if K < 1 or M < 1:
            raise ValueError("K and M must be >= 1")
        self.K = K
        self.M = M
        self.shape = (K, M)
        self._blocks = (K, M)

    def sample(self, rng) -> Permutation:
        return sample_block_permutation(self.K, self.M, rng)

    def act_uniform_batch(self, rng, z):
        """Apply an independent uniform block permutation per row of z (..., K, M)
        or of its flat form (..., K*M)."""
        z = np.asarray(z)
        if z.shape[-1:] == (self.K * self.M,) and z.shape[-2:] != (self.K, self.M):
            blocks = z.reshape(z.shape[:-1] + (self.K, self.M))
            return self.act_uniform_batch(rng, blocks).reshape(z.shape)
        if z.shape[-2:] != (self.K, self.M):
            raise ValueError("expected trailing shape (K, M)")
        out = rng.permuted(z, axis=-1)
        order = np.argsort(rng.random(z.shape[:-1]), axis=-1)
        return np.take_along_axis(out, order[..., None], axis=-2)


class OrthogonalGroup(GroupAction):
    """Orthogonal matrices O(p) acting on point clouds (..., p) by z @ g.T."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p

    def identity(self) -> np.ndarray:
        return np.eye(self.p)

    def compose(self, g, h) -> np.ndarray:
        return g @ h

    def inverse(self, g) -> np.ndarray:
        return g.T.copy()

    def sample(self, rng) -> np.ndarray:
        return sample_haar_orthogonal(self.p, rng)

    def act(self, g, z):
        z = np.asarray(z, dtype=float)
        return z @ g.T


class GraphAutomorphismGroup(PermutationGroup):
    """The automorphisms of a weighted graph, held as a stabilizer chain.

    The chain is for the base 0, 1, ..., n-1 (Sims 1970): strong generators
    and, for each vertex v, its basic orbit, the images of v under the
    automorphisms that fix 0..v-1. The order is the product of the basic
    orbit sizes and every vertex's orbit comes from the generators, so
    neither lists an element.

    ``enumerate_automorphisms`` builds the group and its chain; this
    constructor only holds them.
    """

    def __init__(self, adjacency: np.ndarray, chain: StabilizerChain):
        self.adjacency = adjacency
        self.shape = (self.n,)
        self._chain = chain

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def sample(self, rng) -> Permutation:
        """A uniform element drawn through the chain, one transversal pick
        per level, without listing the elements."""
        return Permutation(self._chain.random_element(rng), validate=False)


# --------------------------------------------------------------------------
# Batched actions: group elements applied to many data points at once
# --------------------------------------------------------------------------


def _index_action(inverse_maps: np.ndarray, shape: tuple):
    """Act on data points of ``shape`` with the rows of a (B, n) inverse-map
    array: copy b of a flattened point x is x[inverse_maps[b]], gathered by
    ``np.take`` as in ``Permutation.act``."""
    n = math.prod(shape)
    if inverse_maps.shape[1] != n:
        raise ValueError(f"group acts on {inverse_maps.shape[1]} entries, data points have {n}")
    B = inverse_maps.shape[0]

    def act(x):
        x = np.asarray(x)
        lead = x.shape[: x.ndim - len(shape)]
        return np.take(x.reshape(lead + (n,)), inverse_maps, axis=-1).reshape(lead + (B,) + shape)

    return act


def _element_action(group: GroupAction, g, shape: tuple):
    def act(x):
        out = np.asarray(group.act(g, x))
        return np.expand_dims(out, out.ndim - len(shape))

    return act


def actions_of(group: GroupAction, elements, shape) -> list:
    """Given group elements as batched actions on data points of ``shape``.

    Returns ``(elements, act)`` pairs as ``iter_actions`` yields them: one pair
    for all of them when they are Permutations of the flattened points, as
    every ``PermutationGroup``'s elements are, else one pair per element.
    """
    shape = tuple(shape)
    elements = list(elements)
    if elements and all(isinstance(g, Permutation) and g.n == math.prod(shape) for g in elements):
        maps = np.array([g.mapping for g in elements], dtype=np.int64)
        return [(maps, _index_action(np.argsort(maps, axis=1), shape))]
    return [([g], _element_action(group, g, shape)) for g in elements]


def iter_actions(group: GroupAction, shape, batch_size: int = 250_000):
    """Every element of a finite group, as batched actions on data points of ``shape``.

    Yields ``(elements, act)`` pairs; ``act`` maps an array (..., *shape) of
    points to (..., B, *shape), one acted copy per element, B = len(elements).
    Groups with a permutation form come in (B, n) image arrays of up to
    ``batch_size`` rows, acting on the flattened points; the others come one
    element at a time, acting through ``group.act``. A group with neither
    form raises NotEnumerableError.
    """
    return _listed_actions(group, shape, batch_size, paired=True)


def _listed_actions(group: GroupAction, shape, batch_size: int, paired: bool):
    """``iter_actions``' pairs when ``paired``. Otherwise each batch of
    images acts by the images themselves, which saves their argsort: copy b
    of a flattened point x is x[maps[b]], its copy under the inverse of
    element b. A group holds the inverse of each of its elements, so the
    unpaired actions sweep the same orbit, in another order."""
    shape = tuple(shape)
    try:
        batches = group.iter_mapping_batches(batch_size)
    except NotEnumerableError:
        for g in group.elements():
            yield [g], _element_action(group, g, shape)
        return
    for maps in batches:
        yield maps, _index_action(np.argsort(maps, axis=1) if paired else maps, shape)


def sample_actions(group: GroupAction, shape, draws: int, rng: np.random.Generator,
                   batch_size: int = 250_000):
    """``draws`` uniform group elements, as batched actions like ``iter_actions``.

    Groups with ``act_uniform_batch`` draw up to ``batch_size`` elements at a
    time by acting on the index array arange(n) in the points' shape, and
    yield each batch as its (b, n) array of inverse images: the drawn element
    of row r is ``Permutation(np.argsort(row))``, and its copy of a flattened
    point x is x[row]. The others draw ``group.sample`` one element after
    another and yield them as ``actions_of`` does.
    """
    shape = tuple(shape)
    n = math.prod(shape)
    for start in range(0, draws, batch_size):
        b = min(batch_size, draws - start)
        if hasattr(group, "act_uniform_batch"):
            index = np.broadcast_to(np.arange(n).reshape(shape), (b,) + shape).copy()
            inverse_maps = np.asarray(group.act_uniform_batch(rng, index)).reshape(b, n)
            yield inverse_maps, _index_action(inverse_maps, shape)
        else:
            yield from actions_of(group, [group.sample(rng) for _ in range(b)], shape)


# --------------------------------------------------------------------------
# Automorphism enumeration and orbit machinery
# --------------------------------------------------------------------------

AUTOMORPHISM_SEARCH_CAP = 10


def enumerate_automorphisms(
    adjacency,
    cap: int = AUTOMORPHISM_SEARCH_CAP,
    generators: list[Permutation] | None = None,
) -> GraphAutomorphismGroup:
    """The vertex permutations g with g A g^T = A (exact weight equality),
    as a stabilizer chain.

    Up to ``cap`` vertices the chain comes from a search pruned by colour
    refinement (``StabilizerChain.of_graph``). A larger graph requires an
    explicit generator list: each generator is checked to be an
    automorphism, and Schreier–Sims builds the chain of the group they
    generate. No element is listed until one is asked for.
    """
    A = checked_adjacency(adjacency)
    n = A.shape[0]

    if generators is not None:
        if not generators:
            raise ValueError("need at least one generator")
        graph = WeightedGraph(A)
        for g in generators:
            if g.n != n:
                raise ValueError("generator degree does not match the graph")
            if not graph.preserves(g.mapping.tolist()):
                raise ValueError(f"{g!r} is not an automorphism")
        chain = StabilizerChain.generated_by(n, [g.mapping for g in generators])
        return GraphAutomorphismGroup(A, chain)

    if n > cap:
        raise ValueError(f"graph has {n} > {cap} vertices; supply generators instead")
    return GraphAutomorphismGroup(A, StabilizerChain.of_graph(WeightedGraph(A), n))


def orbit_of_index(group: GroupAction, i: int) -> tuple[np.ndarray, int]:
    """Orbit {g(i)} of an index under a permutation group.

    Returns the sorted orbit and the stabilizer size, which satisfy
    |orbit| * |stabilizer| = |G|, both read from the group's stabilizer
    chain without listing an element.
    """
    if not isinstance(group, PermutationGroup):
        raise NotEnumerableError(f"{type(group).__name__} has no permutation form")
    orbit = group._chain.orbit_of(range(math.prod(group.shape))[i])
    return orbit, group._chain.order // orbit.size


@dataclass(frozen=True)
class CosetDecomposition:
    """One representative per class of group elements inducing equal score maps."""

    representatives: list
    subgroup_size: int


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Increasing indices of the first of each set of equal rows (NaN equals
    nothing): a stable sort of the rows, cut where neighbours differ."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return np.sort(order[starts])


def coset_representatives(group: GroupAction, psi, probes) -> CosetDecomposition:
    """Split a finite permutation group by the induced map g -> psi(g . z).

    Two elements land in the same class when their psi values agree on every
    probe point (NaN agrees with nothing); each class is represented by its
    first element in enumeration order, and the class of the identity has
    size |H|. ``psi`` must be vectorized over the leading axes of an (..., n)
    array.
    """
    probes = [np.asarray(p, dtype=float) for p in probes]
    if not probes:
        raise ValueError("probe set must be nonempty")
    if any(p.shape != probes[0].shape for p in probes):
        raise ValueError("probes must share one dimension")
    ident = np.array([float(psi(p)) for p in probes])

    reps = []
    seen = np.empty((0, len(probes)))  # signatures of the representatives so far
    subgroup_size = 0
    for elements, act in iter_actions(group, probes[0].shape):
        sigs = np.empty((len(elements), len(probes)))
        for c, p in enumerate(probes):
            sigs[:, c] = np.asarray(psi(act(p)), dtype=float).reshape(-1)
        subgroup_size += int(np.count_nonzero(np.all(sigs == ident, axis=1)))
        # first occurrences, earlier batches' signatures ahead of this batch's
        first = _first_occurrences(np.concatenate([seen, sigs]))
        new = first[first >= len(seen)] - len(seen)
        seen = np.concatenate([seen, sigs[new]])
        reps.extend(elements[r] for r in new)
    return CosetDecomposition(
        representatives=[Permutation(g, validate=False) if isinstance(g, np.ndarray) else g
                         for g in reps],
        subgroup_size=subgroup_size,
    )


def default_probes(z, rng: np.random.Generator, n_extra: int = 8, scale: float | None = None):
    """The observed point plus random perturbations, for coset detection."""
    z = np.asarray(z, dtype=float)
    if scale is None:
        spread = float(np.std(z))
        scale = spread if spread > 0 else 1.0
    return [z] + [z + scale * rng.standard_normal(z.shape) for _ in range(n_extra)]
