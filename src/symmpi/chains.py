"""Stabilizer chains of permutation groups, and the search that finds a
graph's automorphism group as one.

A ``StabilizerChain`` holds a group on n points by strong generators and
basic orbits for the base 0, 1, ..., n-1 (Sims 1970): its order and orbits
need no enumeration, it lists its elements in lexicographic order, and it
draws uniform elements at any order. It is built in closed form for the
symmetric and block groups, by Schreier–Sims from generators, or for a
graph's automorphisms by a search pruned with colour refinement (McKay &
Piperno, "Practical graph isomorphism, II", 2014) that finds one
automorphism per point of each basic orbit. Every ``groups.PermutationGroup``
holds one.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterable
from functools import cached_property, lru_cache

import numpy as np

_LEX_TAIL = 7  # most points of a listing's tail, read from a cached table
# most entries of a listing kept with its chain: those of the tail's table,
# and so fewer rows than an orbit sweep's batch of images
_KEPT_ENTRIES = math.factorial(_LEX_TAIL) * _LEX_TAIL


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _lex_table(m: int) -> np.ndarray:
    """Read-only (m!, m) table of the permutations of range(m) in
    lexicographic order; one empty row for m = 0."""
    return _read_only(np.array(list(itertools.permutations(range(m))), dtype=np.int64))


def checked_adjacency(adjacency) -> np.ndarray:
    """The adjacency as a float array, checked to be square, finite and symmetric."""
    A = np.asarray(adjacency, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        r, c = bad[0].tolist()
        raise ValueError(f"adjacency entries must be finite, got {float(A[r, c])!r} "
                         f"between vertices {r} and {c}")
    if not np.array_equal(A, A.T):
        raise ValueError("adjacency must be symmetric")
    return A


class WeightedGraph:
    """A symmetric adjacency as integer weight codes, for automorphism tests.

    Equal weights share a code (0.0 and -0.0 too). The most frequent
    off-diagonal code is the background; ``neighbours[u]`` lists the
    (w, code) pairs of u's other off-diagonal entries, ``adjacent[u]`` maps
    each such w to its code, and ``loops`` holds the diagonal's codes.
    """

    def __init__(self, A: np.ndarray):
        n = A.shape[0]
        flat = np.sort(A, axis=None)
        first = np.ones(flat.size, dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        codes = np.searchsorted(flat[first], A)
        off = codes[~np.eye(n, dtype=bool)]
        self.background = int(np.argmax(np.bincount(off))) if off.size else -1
        self.neighbours = [[] for _ in range(n)]
        self.adjacent = [{} for _ in range(n)]
        rows, cols = np.nonzero((codes != self.background) & ~np.eye(n, dtype=bool))
        for u, w, c in zip(rows.tolist(), cols.tolist(), codes[rows, cols].tolist()):
            self.neighbours[u].append((w, c))
            self.adjacent[u][w] = c
        self.loops = codes.diagonal().tolist()

    def preserves(self, g: list) -> bool:
        """Whether the permutation g, a list of images, is an automorphism.

        Only the entries at the vertices g moves are read: the loop and the
        non-background entries of each. If each of those lands on an entry
        of the same code, g maps the non-background entries onto themselves,
        being one-to-one, and so the background entries too.
        """
        loops, neighbours, adjacent, background = (self.loops, self.neighbours, self.adjacent,
                                                   self.background)
        for u, gu in enumerate(g):
            if gu != u:
                if loops[gu] != loops[u]:
                    return False
                row = adjacent[gu]
                for w, c in neighbours[u]:
                    if row.get(g[w], background) != c:
                        return False
        return True


class _Partition:
    """An ordered partition of the vertices, kept as nauty keeps one (McKay &
    Piperno, "Practical graph isomorphism, II", 2014): each cell is a run of
    ``lab``, ``pos`` inverts ``lab``, ``cell[x]`` is the position where x's
    cell starts, ``end[c]`` the position where the cell starting at c ends,
    and ``size`` counts the cells."""

    __slots__ = ("lab", "pos", "cell", "end", "size")

    def __init__(self, lab, pos, cell, end, size):
        self.lab, self.pos, self.cell, self.end, self.size = lab, pos, cell, end, size

    def copy(self) -> "_Partition":
        return _Partition(self.lab[:], self.pos[:], self.cell[:], self.end[:], self.size)


def _refine(graph: WeightedGraph, P: _Partition, splitters) -> list:
    """Split the cells of P until it is equitable (colour refinement): the
    vertices of a cell then have, for each weight code, equally many
    neighbours of that weight in each cell. ``splitters`` lists the cells
    whose counts may not be uniform yet.

    A cell split by its counts into a splitter keeps its uncounted vertices
    first and then the counted ones in increasing order of their counts, so
    the partition and the returned trace of splits depend on the graph and
    not on its labels. A part of a cell that has already split the others
    need not split them again, except for one largest part (Hopcroft).
    """
    lab, pos, cell, end = P.lab, P.pos, P.cell, P.end
    neighbours = graph.neighbours
    queue = deque(splitters)
    waiting = set(splitters)
    trace = []
    while queue:
        w = queue.popleft()
        waiting.discard(w)
        counts = {}
        for x in lab[w : end[w]]:
            for y, code in neighbours[x]:
                seen = counts.get(y)
                if seen is None:
                    counts[y] = [code]
                else:
                    seen.append(code)
        by_cell = {}
        for y, seen in counts.items():
            c = cell[y]
            if end[c] - c > 1:
                seen.sort()
                by_cell.setdefault(c, []).append((tuple(seen), y))
        for c in sorted(by_cell):
            hit = by_cell[c]
            e = end[c]
            hit.sort()
            if len(hit) == e - c and hit[0][0] == hit[-1][0]:
                continue
            k = e
            for _, y in reversed(hit):  # the counted vertices to the end, in order
                k -= 1
                p, z = pos[y], lab[k]
                lab[p], pos[z] = z, p
                lab[k], pos[y] = y, k
            starts, keys = ([c], [()]) if k > c else ([], [])
            for i, (key, y) in enumerate(hit, k):
                if not keys or key != keys[-1]:
                    starts.append(i)
                    keys.append(key)
                cell[y] = starts[-1]
            for a, b in zip(starts, starts[1:] + [e]):
                end[a] = b
            P.size += len(starts) - 1
            trace.append((c, tuple(starts), tuple(keys)))
            if c in waiting:
                new = starts[1:]
            else:
                largest = max(starts, key=lambda a: end[a] - a)
                new = [a for a in starts if a != largest]
            queue.extend(new)
            waiting.update(new)
    return trace


def _individualize(graph: WeightedGraph, P: _Partition, x: int) -> list:
    """Split vertex x from its cell into a cell of its own, placed after the
    rest, and refine P; returns the trace of the refinement."""
    c = P.cell[x]
    e = P.end[c]
    if e - c == 1:
        return []
    lab, pos = P.lab, P.pos
    p, z = pos[x], lab[e - 1]
    lab[p], pos[z] = z, p
    lab[e - 1], pos[x] = x, e - 1
    P.end[c], P.cell[x], P.end[e - 1] = e - 1, e - 1, e
    P.size += 1
    return _refine(graph, P, [e - 1])


def _equitable_partition(graph: WeightedGraph, n: int) -> _Partition:
    """The coarsest equitable partition finer than the loop weights."""
    loops = graph.loops
    lab = sorted(range(n), key=loops.__getitem__)
    pos, cell, end = [0] * n, [0] * n, [0] * n
    starts = []
    for i, x in enumerate(lab):
        if not starts or loops[x] != loops[lab[i - 1]]:
            starts.append(i)
        pos[x], cell[x] = i, starts[-1]
    for a, b in zip(starts, starts[1:] + [n]):
        end[a] = b
    P = _Partition(lab, pos, cell, end, len(starts))
    _refine(graph, P, starts)
    return P


def _candidate(L: _Partition, R: _Partition):
    """The vertex permutation mapping each cell of L onto the same cell of R,
    fixing the vertices in both and pairing the others in increasing order,
    and the branch to take when it is no automorphism: a vertex x of the
    first cell L and R do not share (else of the first cell of several
    vertices) and the images to try for it, or None when L is discrete."""
    n = len(L.lab)
    g = list(range(n))
    Llab, Rlab, Lcell, Rcell, end = L.lab, R.lab, L.cell, R.cell, L.end
    branch, shared = None, None
    c = 0
    while c < n:
        e = end[c]
        if e - c == 1:
            g[Llab[c]] = Rlab[c]
        else:
            xs = sorted(x for x in Llab[c:e] if Rcell[x] != c)
            if xs:
                ys = sorted(y for y in Rlab[c:e] if Lcell[y] != c)
                for x, y in zip(xs, ys):
                    g[x] = y
                if branch is None:
                    branch = (xs[0], ys + sorted(y for y in Rlab[c:e] if Lcell[y] == c))
            elif shared is None:
                shared = c
        c = e
    if branch is None and shared is not None:
        ys = sorted(Llab[shared : end[shared]])
        branch = (ys[0], ys)
    return g, branch


def _find_automorphism(graph, base, left, left_trace, j):
    """An automorphism that fixes the vertices individualized in ``base`` and
    maps v to j, where ``left`` is ``base`` with v individualized and refined
    (with trace ``left_trace``), or None when there is none.

    An automorphism maps the refined partitions of the two sides cell onto
    cell, so both refinements must leave the same trace. A depth-first search
    individualizes one more vertex x on the left and each vertex of the
    matching cell on the right in turn, refining both, until the candidate
    the two partitions give is an automorphism or the left one is discrete.
    """
    right = base.copy()
    if _individualize(graph, right, j) != left_trace:
        return None
    stack = []
    node = (left, right)
    while True:
        if node is not None:
            L, R = node
            g, branch = _candidate(L, R)
            if graph.preserves(g):
                return g
            if branch is not None:
                x, ys = branch
                Lx = L.copy()
                stack.append((Lx, _individualize(graph, Lx, x), R, iter(ys)))
            node = None
        if not stack:
            return None
        Lx, trace, R, ys = stack[-1]
        for y in ys:
            Ry = R.copy()
            if _individualize(graph, Ry, y) == trace:
                node = (Lx, Ry)
                break
        else:
            stack.pop()


class _Orbits:
    """Orbits of a permutation group that grows by its generators: a
    union-find of the points whose roots list their classes."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.members = [[i] for i in range(n)]

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    def add(self, g: list):
        for i, j in enumerate(g):
            if i == j:
                continue
            a, b = self.find(i), self.find(j)
            if a != b:
                if len(self.members[a]) < len(self.members[b]):
                    a, b = b, a
                self.parent[b] = a
                self.members[a] += self.members[b]
                self.members[b] = None

    def orbit(self, a: int) -> list:
        return self.members[self.find(a)]

    def labels(self) -> np.ndarray:
        return np.array([self.find(i) for i in range(len(self.parent))], dtype=np.int64)


def _grow(t: dict, generators: list) -> dict:
    """Extend a transversal, a dict from orbit points to elements (image
    arrays) that map the base point there, to the whole orbit under the
    generators by a breadth-first search from the points it holds, which
    keep their elements."""
    queue = list(t)
    for b in queue:
        for g in generators:
            c = int(g[b])
            if c not in t:
                t[c] = g[t[b]]
                queue.append(c)
    return t


def _schreier_sims(n: int, rows) -> tuple[list, dict]:
    """Strong generators and transversals for the base 0..n-1 of the group
    the rows of an (m, n) image array generate, by incremental Schreier–Sims
    (Sims 1970; Seress, "Permutation Group Algorithms", 2003, sec. 4.2).

    Each row not yet in the group joins it. Returns the strong generators as
    (first moved point, images) pairs, those whose first moved point is l or later
    generating G_l, and for each l whose basic orbit has more than one
    point a dict from each orbit point b to an element of G_l that maps l
    to b. Transversals only ever gain points, so a Schreier generator
    checked once stays checked.
    """
    ident = np.arange(n)
    strong, trans, checked = [], {}, {}

    def extend(l, h):
        # the orbit of l once h joins the generators of G_l
        t = trans.setdefault(l, {l: ident})
        if any(int(h[b]) not in t for b in t):
            _grow(t, [g for f, g in strong if f >= l])

    def sift(h):
        # the failing level and what is left of h there, or None when h sifts to the identity
        while True:
            moved = np.flatnonzero(h != ident)
            if not moved.size:
                return None
            l, b = int(moved[0]), int(h[moved[0]])
            t = trans.get(l, {})
            if b not in t:
                return h, l
            h = np.argsort(t[b])[h]

    def add(h, level, top):
        # h fixes 0..level-1 and moves level off its basic orbit; it is new
        # to the groups of levels top+1..level
        strong.append((level, h))
        for l in range(top + 1, level + 1):
            extend(l, h)

    def complete(i):
        # until every Schreier generator of levels i..0 sifts: each one
        # that does not joins the strong generators at its failing level
        while i >= 0:
            t_i, done, found = trans.get(i, {}), checked.setdefault(i, set()), None
            for b, tb in list(t_i.items()):
                for k, (f, s) in enumerate(strong):
                    # with b = i a deeper generator is its own Schreier generator
                    if f < i or (b == i and f > i) or (b, k) in done:
                        continue
                    g1, tc = s[tb], t_i[int(s[b])]
                    if not np.array_equal(g1, tc):
                        found = sift(np.argsort(tc)[g1])
                        if found is not None:
                            break
                    done.add((b, k))
                if found is not None:
                    break
            if found is None:
                i -= 1
            else:
                add(*found, i)
                i = found[1]

    for row in np.asarray(rows, dtype=np.int64).reshape(-1, n):
        found = sift(row)
        if found is not None:
            add(*found, -1)
            complete(found[1])
    return strong, {l: t for l, t in trans.items() if len(t) > 1}


class _BlockGenerators:
    """The strong generators of the block group on K blocks of M points, as
    (first moved point, images) pairs: the adjacent transpositions within
    each block and the swaps of adjacent blocks. They are made each time
    they are iterated, so that a chain read only for its order and orbits
    holds none of their n^2 images."""

    def __init__(self, K: int, M: int):
        self.K, self.M = K, M

    def __iter__(self):
        K, M = self.K, self.M
        ident = np.arange(K * M, dtype=np.int64)
        for v in range(K * M):
            k, i = divmod(v, M)
            if i < M - 1:
                g = ident.copy()
                g[v], g[v + 1] = v + 1, v
                yield v, g
            if i == 0 and k < K - 1:
                g = ident.copy()
                g[v : v + M], g[v + M : v + 2 * M] = ident[v + M : v + 2 * M], ident[v : v + M]
                yield v, g


class StabilizerChain:
    """A permutation group on n points, by its stabilizer chain for the base
    0, 1, ..., n-1.

    ``generators`` yields each strong generator with its first moved point;
    those whose first moved point is v or later generate G_v, the elements
    fixing 0..v-1. ``levels`` pairs each v whose basic orbit (the images of
    v under G_v) has more than one point with that orbit, sorted, and
    ``labels`` names each point's orbit under the whole group.
    """

    def __init__(self, n: int, generators: Iterable, levels: list, labels: np.ndarray):
        self.n = n
        self.generators = generators
        self.levels = levels
        self.labels = labels
        self.order = math.prod(len(orbit) for _, orbit in levels)

    @classmethod
    def generated_by(cls, n: int, rows) -> "StabilizerChain":
        """The chain of the group the rows of an (m, n) image array generate."""
        strong, trans = _schreier_sims(n, rows)
        orbits = _Orbits(n)
        for _, g in strong:
            orbits.add(g.tolist())
        levels = [(l, np.array(sorted(trans[l]), dtype=np.int64)) for l in sorted(trans)]
        return cls(n, strong, levels, orbits.labels())

    @classmethod
    def of_graph(cls, graph: WeightedGraph, n: int) -> "StabilizerChain":
        """The chain of a graph's automorphism group, built from the last
        vertex up.

        Colour refinement first gives the equitable partition of the graph
        with 0..v-1 individualized, for every v until it is discrete: G_v
        maps each of its cells onto itself. For a v in a cell of several
        vertices, G_{v+1} is known, and v's basic orbit is found by searching
        for one automorphism that fixes 0..v-1 and maps v to each j of that
        cell not yet in the orbit of v under the generators found so far.
        Each automorphism found joins the generators. When a search fails,
        the orbit of j under the generators found so far lies outside v's
        basic orbit and is skipped.
        """
        P = _equitable_partition(graph, n)
        steps = []
        for v in range(n):
            if P.size == n:
                break
            c = P.cell[v]
            if P.end[c] - c > 1:
                Q = P.copy()
                steps.append((v, P, Q, _individualize(graph, Q, v)))
                P = Q
        orbits = _Orbits(n)
        generators, levels = [], []
        for v, P, Q, trace in reversed(steps):
            c = P.cell[v]
            failed = set()
            for j in sorted(P.lab[c : P.end[c]]):
                if j in failed or orbits.find(j) == orbits.find(v):
                    continue
                g = _find_automorphism(graph, P, Q, trace, j)
                if g is None:
                    failed.update(orbits.orbit(j))
                else:
                    generators.append((v, np.array(g, dtype=np.int64)))
                    orbits.add(g)
            orbit = orbits.orbit(v)
            if len(orbit) > 1:
                levels.append((v, np.array(sorted(orbit), dtype=np.int64)))
        return cls(n, generators, levels[::-1], orbits.labels())

    @classmethod
    @lru_cache(maxsize=8)
    def of_blocks(cls, K: int, M: int) -> "StabilizerChain":
        """The chain of the block group on K blocks of M points, and of the
        symmetric group on M points when K = 1, in closed form. Groups of
        one shape share it, with its transversals, once it is built.

        Point kM + i's basic orbit is [kM, n) when i = 0, as G_kM moves any
        later block onto block k, and [kM + i, (k+1)M) otherwise, as G_kM+i
        keeps block k in place; the group is transitive.
        """
        n = K * M
        ident = np.arange(n, dtype=np.int64)
        levels = []
        for v in range(n):
            k, i = divmod(v, M)
            end = n if i == 0 else (k + 1) * M
            if end - v > 1:
                levels.append((v, ident[v:end]))
        return cls(n, _BlockGenerators(K, M), levels, np.zeros(n, dtype=np.int64))

    def orbit_of(self, i: int) -> np.ndarray:
        """The sorted orbit of point i under the group."""
        return np.flatnonzero(self.labels == self.labels[i])

    def _transversal(self, v: int) -> np.ndarray:
        """The (len(orbit), n) images of elements of G_v that map v to each
        point of its basic orbit in turn."""
        t = _grow({v: np.arange(self.n)}, [g for f, g in self.generators if f >= v])
        return np.array([t[u] for u in sorted(t)])

    @cached_property
    def _lex_levels(self) -> tuple[list, int, np.ndarray]:
        """The listing's levels: each level before the tail as its basic
        orbit, its transversal and the order of G_v, then the tail's first
        point t and the lexicographic table of the permutations of n - t
        points.

        The tail starts at the first level v with n - v <= 7 whose G_v has
        order (n - v)!, so is the symmetric group on v..n-1, and needs no
        transversal. Without one, t = n and the table has one empty row.
        """
        head, t, order = [], self.n, self.order
        for v, orbit in self.levels:
            if self.n - v <= _LEX_TAIL and order == math.factorial(self.n - v):
                t = v
                break
            head.append((orbit, self._transversal(v), order))
            order //= len(orbit)
        return head, t, _lex_table(self.n - t)

    @cached_property
    def listing(self) -> np.ndarray | None:
        """Every element's images in lexicographic order, one read-only
        (order, n) array, kept for a group of at most 7!·7 entries (else
        None). Groups that share the chain share it; the symmetric group on
        up to 7 points is the tail's table itself."""
        if self.order * self.n > _KEPT_ENTRIES:
            return None
        _, t, table = self._lex_levels
        if t == 0:
            return table
        return _read_only(np.concatenate(list(self._lex_stream(self.order))))

    def lex_batches(self, batch_size: int = 250_000):
        """Every element in lexicographic order of its images, as read-only
        (B, n) arrays of ``batch_size`` rows (the last may be shorter):
        slices of the kept ``listing`` when there is one."""
        listing = self.listing
        if listing is None:
            return self._lex_stream(batch_size)
        return (listing[lo : lo + batch_size] for lo in range(0, len(listing), batch_size))

    def _lex_stream(self, batch_size: int):
        """``lex_batches`` built from the chain's levels and the tail's table,
        each batch a new read-only array or a read-only view of one.

        The elements sharing the images p(0..v-1) of a product p of
        transversal elements of the levels before v are p t_u G_{v'}, one
        coset for each point u of v's basic orbit, with v' the next level;
        their image of v is p(u), so putting the cosets in order of p(u) at
        every level lists the elements in lexicographic order. At the tail
        t, the elements p G_t keep p's images of 0..t-1 and arrange its
        images of t..n-1, sorted, in the table's orders.
        """
        n = self.n
        head, t, table = self._lex_levels

        def expand(prefixes, k):
            if k < len(head):
                orbit, trans, order = head[k]
                step = max(1, batch_size // order)
                for lo in range(0, len(prefixes), step):
                    p = prefixes[lo : lo + step]
                    picks = trans[np.argsort(p[:, orbit], axis=1)]
                    yield from expand(p[np.arange(len(p))[:, None, None], picks].reshape(-1, n),
                                      k + 1)
                return
            step = max(1, batch_size // len(table))
            for lo in range(0, len(prefixes), step):
                p = prefixes[lo : lo + step].copy()
                p[:, t:].sort(axis=1)
                for start in range(0, len(table), batch_size):
                    part = table[start : start + batch_size]
                    index = np.empty((len(part), n), dtype=np.int64)
                    index[:, :t] = np.arange(t)
                    index[:, t:] = part + t
                    yield np.take(p, index, axis=1).reshape(-1, n)

        pending, count = [], 0
        for block in expand(np.arange(n, dtype=np.int64)[None], 0):
            pending.append(block)
            count += len(block)
            while count >= batch_size:
                rows = np.concatenate(pending) if len(pending) > 1 else pending[0]
                yield _read_only(rows[:batch_size])
                pending, count = [rows[batch_size:]], count - batch_size
        if count:
            yield _read_only(np.concatenate(pending) if len(pending) > 1 else pending[0])

    @cached_property
    def _transversals(self) -> list:
        """Every level's transversal, in level order."""
        return [self._transversal(v) for v, _ in self.levels]

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform element, at any order: the product t_0 t_1 ... of one
        uniform pick from each level's transversal, in level order. Each
        element is one such product, as G_v is the disjoint union of the
        cosets t_u G_{v'} of its transversal's elements."""
        p = np.arange(self.n, dtype=np.int64)
        for trans in self._transversals:
            p = p[trans[rng.integers(len(trans))]]
        return p
