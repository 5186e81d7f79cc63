"""The benchmark harness's count of the unstudentized hierarchical sets.

``_hierarchical_counts`` gives what the harness reads of a block of tests'
sets: each test's member count on its uniform grid and the memberships of
the candidates after the grid (the extras), such as the truth. A grid is a
frame (``calibrate._Grids``): its points are read at their indices, and
only the rank form forms whole rows (``_candidate_rows``), for the tests it
ranks. Studentized, or for a lone test, the rank form
``calibrate._hierarchical_block`` decides every candidate. Otherwise every
score is not below the candidate's own on an interval of candidates, its
hole, and a candidate's mass is the total weight less that of the holes
holding it (``_hole_counts``). The holes' ends, and the ends of the runs of
grid points in one target state, are sorted as events on each test's line
of grid indices; between two events the mass is
constant, so the members among the grid points there are counted by their
number, in arrays that grow with the holes, not with the grid. A hole that
lies, with its ends' rounding reach, beyond every candidate of its test and
target state is not formed (``_hole_grid`` says why that is exact).
Candidates within rounding of an end or of a level go to the rank form, so
the counts are the rank form's, whatever order the masses are summed in.
"""

from __future__ import annotations

import numpy as np

from .calibrate import (_ENDS_ROUNDING, _candidate_rows, _donor_frame, _hierarchical_block, _level,
                        _target_frame, rank_member)

def _hierarchical_counts(donors, sizes, target, grids, extras, c, studentize, alphas):
    """What the benchmark harness reads of the sets of ``_hierarchical_block``'s
    B tests at each of the A ``alphas``, as the rank form decides them: the
    member counts (A, B) among the points of each test's uniform grid
    (``grids``, ``calibrate._Grids``), and the memberships (A, B, X) of its
    X ``extras`` (B, X), the candidates after the grid. Without
    ``studentize`` the sets of two tests or more are counted from their
    holes (``_hole_counts``); a lone test, as in ``hierarchical_below``, is
    ranked whole on its grid's row: alone it would pay the hole form's fixed
    cost, about 1.2 ms of numpy calls on a K = 20, M = 15 test at the
    2001-point grid, where the rank form takes about 0.4 ms (timeit minima
    on a 2-vCPU host, numpy 2.4)."""
    if studentize or len(extras) == 1:
        return _ranked_counts(donors, sizes, target, _candidate_rows(grids, extras), c,
                              studentize, alphas, grids.size)
    return _hole_counts(donors, sizes, target, grids, extras, c, alphas)


def _ranked_counts(donors, sizes, target, cands, c, studentize, alphas, n_grid: int):
    """The rank form's member counts (A, B) among the first ``n_grid`` of
    the candidates (B, G) and memberships (A, B, G - n_grid) of the rest."""
    below = _hierarchical_block(donors, sizes, target, cands, c, studentize)
    member = np.stack([rank_member(below, a) for a in alphas])
    return member[:, :, :n_grid].sum(axis=2), member[:, :, n_grid:]


def _rank_at(donors, sizes, target, grids, extras, rows, cols, c) -> np.ndarray:
    """The unstudentized rank form's masses of the candidates ``rows``,
    ``cols``, ``rows`` ascending, where column j of a test is its grid
    point j, or its extra j - size after the grid. Each test's candidates go
    in with its smallest and largest (``_Grids.bounds``), which fix the
    rank form's pools, so every mass has the bits of a whole-row
    ``_hierarchical_block`` call."""
    G = grids.size
    # each test's first entry and count
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    tests, counts = rows[first], np.diff(first, append=rows.size)
    # each test's row: its smallest and largest candidate, its selected
    # ones, then its smallest again as padding
    low, high = grids.take(tests).bounds(extras[tests])
    row = np.repeat(low, counts.max() + 2, axis=1)
    row[:, 1:2] = high
    slot = np.arange(rows.size) - np.repeat(first, counts) + 2
    which = np.repeat(np.arange(tests.size), counts)
    on_grid = cols < G
    row[which[on_grid], slot[on_grid]] = grids.take(rows[on_grid]).at(cols[on_grid, None])[:, 0]
    row[which[~on_grid], slot[~on_grid]] = extras[rows[~on_grid], cols[~on_grid] - G]
    below = _hierarchical_block(donors[tests], sizes, target[tests], row, c, False)
    return below[which, slot]


def _hole_counts(donors, sizes, target, grids, extras, c, alphas):
    """Unstudentized ``_hierarchical_counts`` from the holes of every score.

    The target branch is centered at the grand mean or at its own mean,
    decided per candidate in the rank form's arithmetic. In either state the
    center moves linearly with the candidate c, slope 1/(K n_t) or 1/n_t, and
    so does a donor's where it is centered at the grand mean, which holds for
    c in one interval [kl, kh] (the grand mean is linear in c). Every score is
    then |linear in c| on each piece, and with two observed target values or
    more the candidate's own score has the larger slope, so a score is not
    below the candidate's own exactly on one closed interval of c per piece,
    its hole. A donor value's hole where it is centered at its mean, H, and
    at the grand mean, H', count as H - (H ^ [kl, kh]) + (H' ^ [kl, kh]).
    A candidate's mass is the total weight less that of the holes holding it
    in its target state.

    On each test's grid the ends of the holes and of the runs of grid points
    in one target state (``_target_runs``) are events on the line of grid
    indices, sorted by test, state and index: between two events of a test
    and state the mass is constant, so the grid points there are members
    together and are counted by their number (``_hole_grid``, which forms
    only the holes that reach some candidate of their state, all kinds and
    both states in one pass). The extras are looked up in the holes one by
    one. Grid points are read at their indices: no (tests x grid) array is
    formed but the rows of the tests ranked whole.

    The rank form decides every candidate within ``_ENDS_ROUNDING`` of the
    magnitudes of a hole's end or of kl or kh (within that width of the grand
    mean, for kl and kh), every grid point whose state the target's quadratic
    leaves open, every candidate whose mass lies within rounding of a level,
    and every candidate of a test with fewer than two observed target values
    (own and sibling scores then tie, or the own score does not move), or
    with data that are not finite or are beyond 2^500 / (1 + |c|); and every
    candidate where c is beyond 2^500, infinite included. The donors'
    switch points and the target's quadratic hold c times the data, and
    its square, which would overflow past those bounds. Extras that are not
    finite take whatever mass the arithmetic gives them.
    """
    B, X = extras.shape
    scale = np.abs(np.concatenate([donors, target], axis=1)).max(axis=1, initial=0.0)
    whole = ~(scale <= 2.0**500 / (1.0 + abs(c))) | (target.shape[1] < 2 or not c <= 2.0**500)
    counts = np.zeros((len(alphas), B))
    extra = np.zeros((len(alphas), B, X), dtype=bool)
    ranked = np.flatnonzero(whole)
    if ranked.size:
        counts[:, ranked], extra[:, ranked] = _ranked_counts(
            donors[ranked], sizes, target[ranked],
            _candidate_rows(grids.take(ranked), extras[ranked]), c, False, alphas, grids.size)
    live = np.flatnonzero(~whole)
    if live.size:
        # all the tests, as views, when all are live
        sel = slice(None) if live.size == B else live
        counts[:, sel], extra[:, sel], r, k = _hole_grid(
            donors[sel], sizes, target[sel], grids.take(sel), extras[sel], c, scale[sel, None],
            alphas)
        if r.size:
            order = np.argsort(r, kind="stable")
            rows, cols = live[r[order]], k[order]
            below = _rank_at(donors, sizes, target, grids, extras, rows, cols, c)
            on_grid = cols < grids.size
            for ai, alpha in enumerate(alphas):
                member = rank_member(below, alpha)
                counts[ai] += np.bincount(rows[on_grid], member[on_grid], minlength=B)
                extra[ai, rows[~on_grid], cols[~on_grid] - grids.size] = member[~on_grid]
    return counts.astype(np.intp), extra


def _hole_grid(donors, sizes, target, grids, extras, c, scale, alphas):
    """``_hole_counts`` of tests whose holes all exist: the counts (A, B) and
    the extras' memberships (A, B, X) as the holes decide them, and the
    candidates (rows, cols) left to the rank form, whose share of the counts
    is taken out; a column past the grid's last is an extra. Positions are
    kept on each test's line of grid indices, u = (x - lo) / step, where the
    grid's own points are 0, 1, ..., n_grid - 1 within rounding.

    A row (2 test + state) spans the positions from its first to its last
    candidate in its state: grid points (``_target_runs``) and extras. A
    piece whose [first - 2 r, last + 2 r] misses its row's span, r its
    test's rounding reach, is not formed into events, and the counts do not
    change:

    - its events would lie outside every run of its row, where
      ``_hole_segments`` counts nothing;
    - it holds no extra in its own state;
    - its zones could rank only candidates in the other state, whose masses
      it has no part in;
    - its +w and -w, which cancel before or after the row's runs, would add
      only rounding, which ``margin`` bounds.

    Each kind of piece is tested on its ends, for both states at once, and
    a take-back goes with its own-mean hole; a piece cut to [kl, kh] is
    tested again after the cut. On table-1 blocks about a quarter of the
    pieces go. The pieces left, of all four kinds, are zoned, cut and turned
    into events in one pass: a block's cost is mostly its count of numpy
    calls and of fresh arrays.
    """
    B, X = extras.shape
    n_grid = grids.size
    G = n_grid + X
    D, n_o = sizes.size, target.shape[1]
    K, n_t = D + 1, n_o + 1
    means, sds, donor_sum = _donor_frame(donors, sizes)
    # point 0 is first, but for the sign of a zero
    lo = grids.at(0)
    step = (grids.last - lo) / (n_grid - 1)
    # every candidate's rounding reaches no farther than this
    low, high = grids.bounds(extras)
    reach = scale + np.maximum(high, -low)
    runs = _target_runs(target, grids, donor_sum, K, c, reach)
    x_far = ~_target_near(target, extras, donor_sum, K, c, reach)
    ux = (extras - lo) / step
    # whether each extra is in each state (B, 2, X), near then far
    x_state = np.stack([~x_far, x_far], axis=1)
    # the target's center cb + cs c in each state (B, 2, 1)
    g1 = 1.0 / (K * n_t)
    t_mean = target.sum(axis=1, keepdims=True) / n_t
    g0 = (donor_sum + t_mean) / K
    cb = np.stack([g0, t_mean], axis=1)
    cs = np.array([[g1], [1.0 / n_t]])
    a = 1.0 - cs  # the own score's slope
    # each donor's [kl, kh], where it is centered at the grand mean, and the
    # reach of its rounding (B, D); it is never near, or always, where no
    # candidate lies within that reach of [kl, kh], or none outside it
    radius = c * sds / np.sqrt(sizes)
    u_kl = ((means - radius - g0) / g1 - lo) / step
    u_kh = ((means + radius - g0) / g1 - lo) / step
    r_k = _ENDS_ROUNDING * ((scale + radius) * (K * n_t) + reach) / step
    below_lo = _grid_index(u_kl - r_k, n_grid) + (ux[:, None] < (u_kl - r_k)[..., None]).sum(2)
    below_hi = _grid_index(u_kh + r_k, n_grid) + (ux[:, None] < (u_kh + r_k)[..., None]).sum(2)
    never, always = below_lo >= below_hi, (below_lo == 0) & (below_hi == G)
    # each row's span (B, 2, 1), widened by twice its test's rounding reach
    # r_end; a row without candidates spans nothing (inf to -inf)
    r_end = _ENDS_ROUNDING * (reach / step)[:, 0]
    run_b, run_first, run_stop, run_state = runs
    span_lo, span_hi = np.full(2 * B, np.inf), np.full(2 * B, -np.inf)
    np.minimum.at(span_lo, 2 * run_b + run_state, run_first)
    np.maximum.at(span_hi, 2 * run_b + run_state, run_stop - 1)
    span_lo, span_hi = span_lo.reshape(B, 2), span_hi.reshape(B, 2)
    if X:
        # an extra that is not a number lies in no piece and spans nothing
        at = np.where(x_state, ux[:, None], np.nan)
        span_lo = np.fmin(span_lo, np.fmin.reduce(at, axis=2))
        span_hi = np.fmax(span_hi, np.fmax.reduce(at, axis=2))
    span_lo = (span_lo - 2 * r_end[:, None])[:, :, None]
    span_hi = (span_hi + 2 * r_end[:, None])[:, :, None]
    # the grid's first point and step, (B, 1, 1) against (B, 2, n) arrays
    lo3, step3 = lo[:, None], step[:, None]

    def select(first, last, used=None):
        """The pieces with ends ``first`` and ``last`` (B, 2, n) that meet
        their rows' spans, and that ``used`` selects: their rows, columns
        and ends."""
        meet = (last >= span_lo) & (first <= span_hi)
        if used is not None:
            meet &= used
        n = meet.shape[2]
        idx = np.flatnonzero(meet).astype(np.int32)
        row = idx // n
        return row, idx - n * row, first.reshape(-1).take(idx), last.reshape(-1).take(idx)

    branch = np.repeat(np.arange(D), sizes)
    # a donor value's hole where its donor is centered at its mean, unless
    # it is always near, and its part within [kl, kh] taken back unless never
    d = np.abs(donors - means[:, branch])[:, None]
    own = select(((cb - d) / a - lo3) / step3, ((cb + d) / a - lo3) / step3,
                 ~always[:, None, branch])
    del d
    own_at = (own[0] >> 1) * D + branch.take(own[1])
    back = np.flatnonzero(~never.reshape(-1).take(own_at))
    # its hole where its donor is centered at the grand mean, unless never
    x1 = ((donors[:, None] - g0[:, None] + cb) / (a + g1) - lo3) / step3
    x2 = ((cb - donors[:, None] + g0[:, None]) / (a - g1) - lo3) / step3
    grand = select(np.minimum(x1, x2), np.maximum(x1, x2, out=x2), ~never[:, None, branch])
    # every sibling's hole
    x1 = ((target - lo) / step)[:, None]
    x2 = ((2 * cb - target[:, None]) / (1 - 2 * cs) - lo3) / step3
    sib = select(np.minimum(x1, x2), np.maximum(x1, x2, out=x2))
    del x1, x2

    # every piece, in the order own-mean holes, siblings, grand-mean holes,
    # take-backs: its row, its first and last position, and its code, twice
    # its weight's index in ``weights``, plus one where the piece takes its
    # weight back. The last two kinds are cut to their donors' [kl, kh].
    # Every piece that holds a grid point opens and closes at an event
    # (``_hole_events``), and every extra gets the signed weights of the
    # pieces that hold it in its state.
    # (np.unique would import numpy.ma, a megabyte of memory, for this)
    weights = np.array(sorted({*(1.0 / (K * sizes)).tolist(), g1}))
    signed = np.stack([weights, -weights], axis=1).reshape(-1)
    w_code = 2 * np.searchsorted(weights, 1.0 / (K * sizes))[branch]
    row, first, last = (np.concatenate([own[i], sib[i], grand[i], own[i].take(back)])
                        for i in (0, 2, 3))
    code = np.concatenate([w_code.take(own[1]),
                           np.full(sib[0].size, 2 * np.searchsorted(weights, g1)),
                           w_code.take(grand[1]), w_code.take(own[1].take(back)) + 1])
    clip = np.concatenate([(grand[0] >> 1) * D + branch.take(grand[1]), own_at.take(back)])
    zoned = row.size - back.size
    del own, grand, sib, own_at, back
    test = row >> 1

    # the candidates within 2 r of the donors' kl and kh, and of the pieces'
    # ends before the cut, go to the rank form. The ends within the largest
    # 2 r of a grid point or an extra are picked first, then held to their
    # own test's r, so no array of the pieces' r is formed.
    k_test = np.repeat(np.arange(B), D)
    ends = [(u_kl.reshape(-1), k_test, 2 * r_k.reshape(-1)),
            (u_kh.reshape(-1), k_test, 2 * r_k.reshape(-1))]
    # each piece's extras' positions
    e = [ux[:, x].take(test) for x in range(X)]
    r_max, gap = 2 * r_end.max(), np.empty(zoned)
    for u in (first[:zoned], last[:zoned]):
        near = np.abs(np.subtract(u, np.rint(u, out=gap), out=gap), out=gap) <= r_max
        for ex in e:
            near |= np.abs(np.subtract(u, ex[:zoned], out=gap), out=gap) <= r_max
        at = np.flatnonzero(near)
        ends.append((u.take(at), test.take(at), 2 * r_end.take(test.take(at))))
    del gap, near
    u, z_test, r = (np.concatenate(v) for v in zip(*ends))
    hit = np.flatnonzero(np.abs(u - np.rint(u)) <= r)
    # spans of grid points left to the rank form: (tests, first, stop)
    ranges = [(z_test[hit], _grid_index(u[hit] - r[hit], n_grid),
               _grid_index(u[hit] + r[hit], n_grid))]
    x_ranked = np.zeros((B, X), dtype=bool)
    for x in range(X):
        x_ranked[z_test[np.abs(u - ux[:, x].take(z_test)) <= r], x] = True
    cut = row.size - clip.size
    np.maximum(first[cut:], u_kl.reshape(-1).take(clip), out=first[cut:])
    np.minimum(last[cut:], u_kh.reshape(-1).take(clip), out=last[cut:])
    # a piece cut to [kl, kh] may miss its row's span: it is not formed
    # into events
    meets = (last >= span_lo.reshape(-1).take(row)) & (first <= span_hi.reshape(-1).take(row))

    bits = _event_bits(B, n_grid, weights.size)
    events = [_run_events(runs, bits, signed.size),
              _hole_events(row, first, last, code, meets, n_grid, bits)]
    x_held = np.zeros((B, X))
    # whether each extra is in each row's state (2 B, X)
    x_in = x_state.reshape(2 * B, X)
    for x, ex in enumerate(e):
        inside = np.flatnonzero(x_in[:, x].take(row) & (first <= ex) & (ex <= last))
        x_held[:, x] = np.bincount(test.take(inside), signed.take(code.take(inside)), minlength=B)
    # the pieces are done with, and freed before the sort's arrays are made
    del row, first, last, code, test, e, meets
    total = (D + n_o / n_t) / K
    mass, (seg_test, seg_first, seg_len, seg_below) = _hole_segments(events, signed, runs,
                                                                     n_grid, bits, total)

    # each segment's members counted whole; the segments within rounding of
    # a level and the zones go to the rank form, their grid points' share of
    # the counts taken out
    levels = [_level(alpha) for alpha in alphas]
    N = donors.shape[1] + n_o + D
    # bounds the rounding of the hole masses' sums and of the rank form's
    margin = 16 * (G + 8 * N) * np.finfo(float).eps
    counts = np.stack([np.bincount(seg_test, seg_len * (seg_below < lv), minlength=B)
                       for lv in levels])
    unsure = np.zeros(seg_below.shape, dtype=bool)
    for lv in levels:
        unsure |= np.abs(seg_below - lv) <= margin
    ranges.append((seg_test[unsure], seg_first[unsure], seg_first[unsure] + seg_len[unsure]))
    r_test, r_col = _grid_cells(ranges, n_grid)
    line = n_grid + 1
    r_state = run_state[np.searchsorted(run_b * line + run_first, r_test * line + r_col,
                                        side="right") - 1]
    r_below = mass(2 * r_test + r_state, r_col)
    for ai, lv in enumerate(levels):
        counts[ai] -= np.bincount(r_test, r_below < lv, minlength=B)

    member = np.zeros((len(alphas), B, X), dtype=bool)
    if X:
        # each extra's mass: the total less the pieces that hold it in its state
        x_below = total - x_held
        for lv in levels:
            x_ranked |= np.abs(x_below - lv) <= margin
        member = np.stack([x_below < lv for lv in levels])
        xb, xc = np.nonzero(x_ranked)
        r_test, r_col = np.concatenate([r_test, xb]), np.concatenate([r_col, n_grid + xc])
    return counts, member, r_test, r_col


def _event_bits(B: int, n_grid: int, n_weights: int):
    """The bits of an event key of ``_hole_events`` for B tests, for the
    grid index and for the code (a weight's sign and index, or a run's start
    or stop), and the key's dtype."""
    bits = int(n_grid).bit_length(), (2 * n_weights + 1).bit_length()
    fits = (2 * B) << (bits[0] + bits[1]) <= 2**31
    return bits + (np.int32 if fits else np.int64,)


def _hole_events(row, first, last, code, meets, n_grid: int, bits):
    """The event keys of the pieces of ``_hole_grid`` that meet their rows'
    spans (``meets``) and hold a grid point: a piece holds the grid points
    at or beyond position ``first`` and not beyond ``last``, opens at the
    first of them with its code and closes one past the last with the other
    sign. A key orders its event by row (2 test + state), grid index and
    code."""
    bits_n, bits_c, dtype = bits
    lo_n, hi_n = _grid_index(first, n_grid), _grid_index(last, n_grid)
    keep = np.flatnonzero((lo_n < hi_n) & meets)
    head = (row.take(keep).astype(dtype) << (bits_n + bits_c)) | code.take(keep).astype(dtype)
    return np.concatenate([head | (lo_n.take(keep).astype(dtype) << bits_c),
                           (head ^ 1) | (hi_n.take(keep).astype(dtype) << bits_c)])


def _run_keys(runs, bits):
    """The cells (row << bits_n | grid index) of the starts and of the stops
    of the runs of ``_target_runs``, each ascending."""
    run_b, run_first, run_stop, run_state = runs
    dtype = bits[2]
    row = (2 * run_b + run_state).astype(dtype) << bits[0]
    return np.sort(row | run_first.astype(dtype)), np.sort(row | run_stop.astype(dtype))


def _run_events(runs, bits, code):
    """The event keys of the runs' starts, with code ``code``, and of their
    stops, with the next."""
    starts, stops = _run_keys(runs, bits)
    return np.concatenate([(starts << bits[1]) | code, (stops << bits[1]) | code + 1])


def _hole_segments(events, signed, runs, n_grid: int, bits, total):
    """The masses of ``_hole_grid``'s rows (2 test + state) along their
    grids, from one sort of their event keys, the arrays of the list
    ``events``, which it empties: ``mass(rows, cols)``, the mass
    of the grid points ``cols`` of ``rows``, and the segments between events
    that hold grid points in their row's state (``_target_runs``), as
    (tests, first grid indices, lengths, masses). After the sort, equal
    keys, about nine events in ten on table-1 blocks, are summed as one: a
    key's weight (``signed`` by its code) times its count. The cumulative
    sum of those gives every key's mass; only the last key at each grid
    index of a row, its cell, is kept."""
    bits_n, bits_c, _ = bits
    key = np.concatenate(events)
    events.clear()
    key.sort()
    # each distinct key and its count
    last = np.flatnonzero(np.append(key[1:] != key[:-1], True))
    count = np.diff(last, prepend=-1)
    key = key.take(last)
    held = np.append(signed, [0.0, 0.0]).take(key & (1 << bits_c) - 1) * count
    cell = key >> bits_c
    del key, count
    last = np.flatnonzero(np.append(cell[1:] != cell[:-1], True))
    cell = cell.take(last)
    held = np.cumsum(held, out=held).take(last)

    def mass(rows, cols, at=None):
        # each row's sum starts after the cells of the rows before it
        base = np.searchsorted(cell, rows << bits_n)
        if at is None:
            at = np.searchsorted(cell, rows << bits_n | cols, side="right") - 1
        return total - held.take(at) + np.where(base > 0, held.take(base - 1), 0.0)

    # whether a row's grid points from each cell to the next are in a run of
    # its state
    starts, stops = _run_keys(runs, bits)
    inside = np.searchsorted(starts, cell, side="right") - np.searchsorted(stops, cell, side="right")
    index = cell & (1 << bits_n) - 1
    length = np.diff(index, append=n_grid) * inside
    seg = np.flatnonzero(length)
    rows = cell.take(seg) >> bits_n
    return mass, (rows >> 1, index.take(seg), length.take(seg), mass(rows, None, seg))


def _grid_index(u, n_grid: int):
    """How many of the grid points 0, 1, ..., n_grid - 1 lie below each
    position u on a grid's line."""
    u = np.clip(u, 0, n_grid)
    return np.ceil(u, out=u).astype(np.intp)


def _spans(first, stop):
    """The integers of the spans [first, stop): each one's span and value."""
    size = stop - first
    which = np.repeat(np.arange(size.size), size)
    return which, np.arange(which.size) - (np.cumsum(size) - size - first)[which]


def _grid_cells(ranges, n_grid: int):
    """The distinct (tests, grid indices) within ``ranges``, a list of
    (tests, first, stop) spans of grid indices."""
    b, first, stop = (np.concatenate(v) for v in zip(*ranges))
    which, index = _spans(first, stop)
    cells = np.sort(b[which] * n_grid + index)
    return np.divmod(cells[np.append(cells[:1] == cells[:1], cells[1:] != cells[:-1])], n_grid)


def _target_runs(target, grids, donor_sum, K, c, reach):
    """Each test's grid (``grids``, B ``_Grids`` of G points) as runs of grid
    points in one target state, as ``_target_near`` decides it: the runs'
    tests, first grid indices, indices one past their last, and states, 0
    near or 1 far, ascending by test and index.

    The quadratic's roots at 4 times its bound below zero and above it cut
    each grid into at most 5 runs. A run is near where the quadratic lies
    below -4 bounds at its first and last grid points and, if the run holds
    it, at its vertex, so over the whole run; far likewise above 4 bounds.
    The points of any other run, few, are decided one by one. The roots only
    place the cuts: one that rounding misplaces leaves more points to decide
    one by one.
    """
    B, G = len(reach), grids.size
    lo = grids.at(0)
    m_o, coef, bound = _target_quadratic(target, donor_sum, K, c, reach)
    qa, qb, qc = coef
    with np.errstate(all="ignore"):
        level = np.concatenate([qc - 4 * bound, qc + 4 * bound], axis=1)
        h = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4 * qa * level), qb))
        root = np.concatenate([h / qa, level / h], axis=1) + m_o
        u = (root - lo) / (grids.last - lo) * (G - 1)
        vertex = -qb / (2 * qa) if qa else np.full(qb.shape, -np.inf)
    cuts = _grid_index(np.nan_to_num(u), G)
    cuts.sort(axis=1)
    starts = np.concatenate([np.zeros((B, 1), np.intp), cuts], axis=1)
    stops = np.concatenate([cuts, np.full((B, 1), G)], axis=1)
    first = grids.at(np.minimum(starts, G - 1)) - m_o
    last = grids.at(np.maximum(stops - 1, 0)) - m_o
    q = [_quadratic(coef, y) for y in (first, last, np.clip(vertex, first, last))]
    near = np.logical_and.reduce([x < -4 * bound for x in q])
    far = np.logical_and.reduce([x > 4 * bound for x in q])
    filled = stops > starts
    b, p = np.nonzero(filled & (near | far))
    runs = [b, starts[b, p], stops[b, p], far[b, p].astype(np.intp)]
    b, p = np.nonzero(filled & ~(near | far))
    if b.size:
        which, index = _spans(starts[b, p], stops[b, p])
        b = b[which]
        s = donor_sum[b] if np.ndim(donor_sum) else donor_sum
        far = ~_target_near(target[b], grids.take(b).at(index[:, None]), s, K, c, reach[b])[:, 0]
        runs = [np.concatenate(v) for v in zip(runs, (b, index, index + 1, far.astype(np.intp)))]
    order = np.lexsort((runs[1], runs[0]))
    return tuple(v[order] for v in runs)


def _target_quadratic(target, donor_sum, K, c, reach):
    """``_target_near``'s quadratic: the observed target mean m_o (B, 1),
    the coefficients (qa, qb, qc) of the quadratic in y = candidate - m_o,
    and the bound (B, 1) within which rounding may decide its sign."""
    n_o = target.shape[1]
    n_t = n_o + 1
    m_o = target.sum(axis=1, keepdims=True) / n_o
    q_o = ((target - m_o) ** 2).sum(axis=1, keepdims=True)
    u1 = (K - 1) / (K * n_t)
    d0 = ((K - 1) * m_o - donor_sum) / K
    sd_min = np.sqrt(q_o / n_o)
    ratio = np.divide(n_t * reach, n_o * sd_min, out=np.full(reach.shape, np.inf),
                      where=sd_min > 0)
    bound = 2.0**-40 * (1 + abs(c)) ** 2 * reach**2 * (1 + ratio)
    return m_o, (u1**2 - c**2 / n_t**2, 2 * u1 * d0, d0**2 - c**2 * q_o / (n_o * n_t)), bound


def _quadratic(coef, y):
    """qa y^2 + qb y + qc in ``_target_near``'s arithmetic."""
    qa, qb, qc = coef
    q = np.multiply(qa, y)
    q += qb
    q *= y
    q += qc
    return q


def _target_near(target, cands, donor_sum, K, c, reach):
    """``_target_frame``'s choice (B, G) to center the target branch at the
    grand mean, from the sign of one quadratic.

    With m_o the observed target mean, q_o its sum of squares and
    y = c - m_o, the target is near where (mean_t - grand)^2 <= c^2 sd_t^2 / n_t,
    that is where qa y^2 + qb y + qc <= 0 with qa = u1^2 - c^2 / n_t^2,
    qb = 2 u1 d0 and qc = d0^2 - c^2 q_o / (n_o n_t) (u1 = (K - 1) / (K n_t),
    d0 = ((K - 1) m_o - donor_sum) / K). Where the quadratic lies within a
    bound of the rounding of both forms of zero, ``_target_frame`` decides.
    The bound is 2^-40 (1 + |c|)^2 A^2 (1 + n_t A / (n_o sd_min)), A =
    ``reach`` (B, 1) the magnitude of the data and candidates, sd_min =
    sqrt(q_o / n_o) the smallest target SD: over 16 times the sum of the
    first-order rounding of the rank form's comparison (its SD is computed
    from a sum of squares) and of the quadratic. A target of equal observed
    values (sd_min = 0) is decided by ``_target_frame`` throughout.
    """
    m_o, coef, bound = _target_quadratic(target, donor_sum, K, c, reach)
    q = _quadratic(coef, np.subtract(cands, m_o))
    near = q <= 0
    rows, cols = np.nonzero(np.abs(q, out=q) <= bound)
    if rows.size:
        s = donor_sum[rows] if np.ndim(donor_sum) else donor_sum
        near[rows, cols] = _target_frame(target[rows], cands[rows, cols, None], s, K, c)[3][:, 0]
    return near
