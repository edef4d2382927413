"""Rectangular assignment solver and decoupled group matching.

``hungarian`` solves min-cost assignment of T targets to K queries
(T <= K) and pins a deterministic tie-break: among all minimum-cost
assignments it returns the one whose (query, target) pair sequence,
sorted by query, is lexicographically smallest. That makes fixtures
portable across implementations — equal-cost optima cannot flip the
output.

The solve runs in two phases. Phase one is a shortest-augmenting-path
Kuhn-Munkres over targets (float64 potentials) that yields the optimal
total and optimal duals: u per target and v <= 0 per query, with v = 0 on
every query phase one leaves unmatched. Under those duals the optimal
assignments are exactly the matchings that use only tight edges (reduced
cost within ``rc_tol`` of zero), cover every target and cover every query
whose dual is negative (Crouse, IEEE TAES 2016). Phase two makes that
graph square with K - T dummy columns, each tight to every query whose
dual may be zero, and canonicalizes: in ascending query order, each query
takes the smallest real column it can reach by an alternating cycle
through the queries not yet fixed, found by one breadth-first search in
the tight graph, or stays on a dummy. Totals are compared with
``math.fsum`` (correctly rounded, order independent). If the chosen pairs
do not reach phase one's total, which a tolerance-tight edge can cause,
the re-solve path decides instead: it fixes pairs greedily in (query,
target) order and keeps a pair only when a full re-solve of the rest
still reaches the optimal total.

Phase one is warm-started (Jonker & Volgenant, Computing 1987): u starts
at each target's minimum cost and v at 0, and each target in turn takes
the first free query at that minimum, so on tied costs the augmenting
search runs for few targets or none. The start is feasible, tight on its
matched edges and zero on every query dual, so the duals phase one ends
with have the properties above. Any optimal duals describe the same set
of optimal matchings (complementary slackness), so phase two's answer
does not depend on where phase one started. With C = max|cost| the duals
stay within |u| <= C and -2C <= v <= 0, so reduced costs stay within 4C;
``hungarian`` rejects costs beyond float64 max / (T + 2), which keeps
them and every total of T entries finite.

``split_match`` runs the solver independently for the seen and candidate
query groups and concatenates the results into one assignment, so a pair
can never link a query to the other group's targets.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .losses import class_similarity, match_cost_matrix


class Pair(NamedTuple):
    query: int
    target: int
    cost: float
    group: str


@dataclass
class Assignment:
    pairs: list                      # Pair, ascending query index
    group: str                       # "seen" | "candidate" | "combined"
    unmatched_queries: list = field(default_factory=list)

    @property
    def total_cost(self):
        return math.fsum(p.cost for p in self.pairs)

    def validate(self):
        queries = [p.query for p in self.pairs]
        targets = [p.target for p in self.pairs]
        if len(set(queries)) != len(queries):
            raise ValueError("duplicate query index in assignment")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target index in assignment")
        if set(queries) & set(self.unmatched_queries):
            raise ValueError("query listed as both matched and unmatched")
        return self


def _lsa(cost):
    """Shortest-augmenting-path assignment over rows of ``cost`` (n <= m).

    Returns (col_of_row, row_potentials, col_potentials). Warm start
    (Jonker & Volgenant, Computing 1987): each row's potential is its
    minimum, every column's is 0, and in row order each row takes the
    first free column whose cost equals that minimum. Then the classic
    O(n^2 m) potential loop (virtual column at index m) augments only the
    rows the start left free. The start already holds the loop's
    invariants (feasible potentials, every matched edge exactly tight), and
    column potentials change only on columns a search visits, each of them
    matched, so the potentials returned are optimal duals with v <= 0
    everywhere and v = 0 on every free column.
    """
    a = np.asarray(cost, dtype=np.float64)
    n, m = a.shape
    u = np.zeros(n + 1)
    u[:n] = a.min(axis=1)
    v = np.zeros(m + 1)
    p = np.full(m + 1, n)            # matched row per column, n = free
    at_min = a == u[:n, None]
    left = []                        # rows the greedy start leaves free
    for i in range(n):
        j = np.flatnonzero(at_min[i] & (p[:m] == n))
        if j.size:
            p[j[0]] = i
        else:
            left.append(i)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in left:
        p[m] = i
        j0 = m
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[:m]
            cand = a[i0] - u[i0] - v[:m]
            better = free & (cand < minv[:m])
            minv[:m][better] = cand[better]
            way[:m][better] = j0
            free_idx = np.flatnonzero(free)
            k = int(np.argmin(minv[free_idx]))
            delta = minv[free_idx][k]
            j1 = int(free_idx[k])
            used_idx = np.flatnonzero(used)
            u[p[used_idx]] += delta
            v[used_idx] -= delta
            minv[:m][free] -= delta
            j0 = j1
            if p[j0] == n:
                break
        while j0 != m:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    cols = np.flatnonzero(p[:m] < n)
    col_of_row = np.empty(n, dtype=np.int64)
    col_of_row[p[cols]] = cols
    return col_of_row, u[:n], v[:m]


def _min_completion(cost, rows, cols):
    """Optimal total for matching every target in ``cols`` within ``rows``."""
    if not cols:
        return 0.0, []
    sub = cost[np.ix_(rows, cols)]
    col_of_row = _lsa(sub.T)[0]      # solver rows = targets
    entries = [float(cost[rows[col_of_row[t]], cols[t]]) for t in range(len(cols))]
    return math.fsum(entries), entries


def _resolve_phase_two(cost, best_total, reduced, rc_tol):
    """Canonicalize by re-solves: the reference path and the fallback.

    Fixes pairs greedily in (query, target) order and keeps a pair only
    when an optimal ``_lsa`` completion of the remaining targets still
    reaches ``best_total`` (compared with ``math.fsum``). Candidates are
    pruned by reduced cost first and rescanned without pruning if the
    pruned pass comes up empty. Returns the (q, t, cost) pairs in
    discovery order.
    """
    k, t = cost.shape
    fixed = []                        # (q, t, cost) in discovery order
    fixed_costs = []
    rem_q = list(range(k))
    rem_t = list(range(t))

    while rem_t:
        chosen = None
        for prune in (True, False):
            for q in rem_q:
                for tt in rem_t:
                    if prune and reduced[q, tt] > rc_tol:
                        continue
                    rows = [r for r in rem_q if r != q]
                    cols = [c for c in rem_t if c != tt]
                    _, entries = _min_completion(cost, rows, cols)
                    trial = math.fsum(fixed_costs + [float(cost[q, tt])] + entries)
                    if trial == best_total:
                        chosen = (q, tt)
                        break
                if chosen:
                    break
            if chosen:
                break
        if chosen is None:
            # fp-degenerate case: phase one's total was not reachable by
            # fsum bookkeeping; fall back to the cheapest extension.
            best_trial = None
            for q in rem_q:
                for tt in rem_t:
                    rows = [r for r in rem_q if r != q]
                    cols = [c for c in rem_t if c != tt]
                    _, entries = _min_completion(cost, rows, cols)
                    trial = math.fsum(fixed_costs + [float(cost[q, tt])] + entries)
                    if best_trial is None or trial < best_trial[0]:
                        best_trial = (trial, q, tt)
            best_total, q, tt = best_trial
            chosen = (q, tt)
        q, tt = chosen
        fixed.append((q, tt, float(cost[q, tt])))
        fixed_costs.append(float(cost[q, tt]))
        rem_q.remove(q)
        rem_t.remove(tt)
    return fixed


def _tight_phase_two(cost, col_of_row, v_q, reduced, rc_tol):
    """Lexicographically smallest optimum among the tight-edge matchings.

    The problem is made square with K - T dummy columns (indices >= T),
    each tight to every query whose dual may be zero. Starting from phase
    one's matching, queries are fixed in ascending order; query q takes
    the smallest real column it can get by rotating an alternating cycle
    through unfixed queries, or stays on a dummy. Returns (q, t, cost)
    pairs in query order, or None when a starting edge is not tight.
    """
    k, t = cost.shape
    tight = np.empty((k, k), dtype=bool)
    tight[:, :t] = reduced <= rc_tol
    tight[:, t:] = (v_q >= -rc_tol)[:, None]
    mate = np.full(k, -1, dtype=np.int64)          # column of each query
    mate[col_of_row] = np.arange(t)
    mate[mate < 0] = np.arange(t, k)
    if not tight[np.arange(k), mate].all():
        return None
    owner = np.empty(k, dtype=np.int64)            # query of each column
    owner[mate] = np.arange(k)
    fixed = np.zeros(k, dtype=bool)
    nxt = np.empty(k, dtype=np.int64)

    for q in range(k):
        # real columns q could take: tight, and held by an unfixed query
        cands = np.flatnonzero(tight[q, :t] & ~fixed[owner[:t]])
        if cands.size and cands[0] != mate[q]:
            # reverse BFS: a reaches b when a can take b's column
            seen = fixed.copy()                    # fixed queries never move
            seen[q] = True
            frontier = np.array([q])
            while frontier.size and not seen[owner[cands[0]]]:
                sub = tight[:, mate[frontier]]
                new = np.flatnonzero(sub.any(axis=1) & ~seen)
                seen[new] = True
                nxt[new] = frontier[sub[new].argmax(axis=1)]
                frontier = new
            reached = cands[seen[owner[cands]]]
            if reached.size and reached[0] != mate[q]:
                path = [q]
                a = int(owner[reached[0]])
                while a != q:
                    path.append(a)
                    a = int(nxt[a])
                mate[path] = mate[np.roll(path, -1)]
                owner[mate[path]] = path
        fixed[q] = True

    return [(q, int(mate[q]), float(cost[q, mate[q]]))
            for q in range(k) if mate[q] < t]


def hungarian(cost, group="combined"):
    """Min-cost injective target->query assignment with lexicographic ties.

    ``cost`` is (K queries, T targets) with T <= K and finite entries of
    magnitude at most float64 max / (T + 2); larger ones raise ValueError.
    T = 0 yields an empty assignment with every query unmatched. Among all
    optimal assignments (totals compared with ``math.fsum``) the one whose
    pairs, sorted by query, form the lexicographically smallest sequence
    is returned.

    Phase one (``_lsa`` over targets) yields the optimal total and dual
    potentials. Phase two searches the tight-edge subgraph under those
    duals, made square by dummy columns (``_tight_phase_two``). If its
    pairs do not reach phase one's ``fsum`` total, the re-solve path
    (``_resolve_phase_two``) decides instead.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be rank 2, got shape {cost.shape}")
    k, t = cost.shape
    if t > k:
        raise ValueError(f"{t} targets exceed {k} queries")
    if cost.size and not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    if t == 0:
        return Assignment(pairs=[], group=group,
                          unmatched_queries=list(range(k))).validate()
    # reduced costs stay within 4 max|cost| and totals within T max|cost|
    c_max = float(np.abs(cost).max())
    limit = np.finfo(np.float64).max / (t + 2)
    if c_max > limit:
        raise ValueError(
            f"cost magnitude {c_max:.6g} exceeds {limit:.6g} (float64 max / "
            f"(T + 2) for T = {t} targets): reduced costs or totals would overflow")

    col_of_row, u_t, v_q = _lsa(cost.T)
    best_total = math.fsum(float(cost[col_of_row[i], i]) for i in range(t))
    # reduced cost of (query q, target i) under phase-one potentials
    reduced = cost - v_q[:, None] - u_t[None, :]
    rc_tol = 1e-9 * c_max            # no absolute floor: tiny costs keep their ties apart

    fixed = _tight_phase_two(cost, col_of_row, v_q, reduced, rc_tol)
    if fixed is None or math.fsum(c for _, _, c in fixed) != best_total:
        fixed = _resolve_phase_two(cost, best_total, reduced, rc_tol)

    pairs = [Pair(q, tt, c, group) for q, tt, c in sorted(fixed)]
    matched = {p.query for p in pairs}
    return Assignment(
        pairs=pairs, group=group,
        unmatched_queries=[q for q in range(k) if q not in matched],
    ).validate()


def split_match(preds_seen, preds_cand, seen_targets, cand_targets, joint, weights):
    """Assign each query group to its own targets, then concatenate.

    ``preds_seen``/``preds_cand`` are (V, M) pairs for the two groups;
    targets are (joint class id, mask) lists whose ids must respect the
    seen/candidate boundary of ``joint``. Candidate query indices are
    shifted by the seen group size and candidate target indices by the
    seen target count, so the combined assignment indexes the stacked
    prediction and target lists directly.
    """
    v_seen, m_seen = preds_seen
    v_cand, m_cand = preds_cand
    k_seen, k_cand = len(v_seen), len(v_cand)
    if len(seen_targets) > k_seen:
        raise ValueError(
            f"{len(seen_targets)} seen targets exceed {k_seen} seen queries")
    if len(cand_targets) > k_cand:
        raise ValueError(
            f"{len(cand_targets)} candidate targets exceed {k_cand} candidate queries")

    if seen_targets:
        cm = match_cost_matrix(class_similarity(v_seen, joint), m_seen,
                               seen_targets, "seen", weights, joint.seen_count)
        a_seen = hungarian(cm.values, group="seen")
    else:
        a_seen = Assignment(pairs=[], group="seen",
                            unmatched_queries=list(range(k_seen)))
    if cand_targets:
        cm = match_cost_matrix(class_similarity(v_cand, joint), m_cand,
                               cand_targets, "candidate", weights, joint.seen_count)
        a_cand = hungarian(cm.values, group="candidate")
    else:
        a_cand = Assignment(pairs=[], group="candidate",
                            unmatched_queries=list(range(k_cand)))

    t_seen = len(seen_targets)
    pairs = list(a_seen.pairs)
    pairs += [Pair(p.query + k_seen, p.target + t_seen, p.cost, "candidate")
              for p in a_cand.pairs]
    unmatched = list(a_seen.unmatched_queries)
    unmatched += [q + k_seen for q in a_cand.unmatched_queries]
    return Assignment(pairs=pairs, group="combined",
                      unmatched_queries=unmatched).validate()
