"""The tests' package-free judges and seeded draw.

The judges are slow references that cross-check the fast kernels with
frozensets, an adjacency set read from g.edges, and unpruned enumeration;
none of them touches the bitmask machinery it is meant to check.  The
partition generator visits set partitions in restricted-growth order
(existing blocks in index order, then a new block), the order whose first
maximum partition the package's searches return, so witness identities can
be compared exactly, not just the optimal values.

gnp_edges, the tests' seeded G(n, p) draw, gives an edge list rather than
a Graph and makes the same RNG calls as bench/replay.py's random_edges, so
both draw the same graph from the same seed.  The module uses the standard
library only and imports nothing from the package, so code outside tests/
can import it too.
"""

import functools
import itertools


def gnp_edges(rng, n, p):
    """A G(n, p) edge list: each pair i < j in lexicographic order, kept when rng.random() < p."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


@functools.lru_cache(maxsize=16)
def ref_adjacency(g):
    """Every edge of g as an ordered pair, both ways round (kept for the last few graphs)."""
    return frozenset(g.edges) | {(v, u) for u, v in g.edges}


def ref_is_dominating(g, s):
    adj = ref_adjacency(g)
    return all(v in s or any((u, v) in adj for u in s) for v in range(g.n))


def ref_is_connected_subset(g, s):
    s = set(s)
    if not s:
        return False
    adj = ref_adjacency(g)
    start = min(s)
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for v in s:
            if v not in seen and (u, v) in adj:
                seen.add(v)
                todo.append(v)
    return seen == s


def ref_is_cds(g, s):
    return bool(s) and ref_is_dominating(g, s) and ref_is_connected_subset(g, s)


def ref_gamma_c(g):
    """Smallest CDS by size, ties broken toward the smallest vertex bitmask."""
    for size in range(1, g.n + 1):
        ranked = sorted(
            (sum(1 << v for v in c), frozenset(c))
            for c in itertools.combinations(range(g.n), size)
        )
        for _, cand in ranked:
            if ref_is_cds(g, cand):
                return size, cand
    raise AssertionError("no connected dominating set; is the graph disconnected?")


def iter_partitions(n):
    """Every set partition of range(n) in restricted-growth order."""
    if n == 0:
        yield []
        return

    def rec(i, blocks):
        if i == n:
            yield [frozenset(b) for b in blocks]
            return
        for j in range(len(blocks)):
            blocks[j].append(i)
            yield from rec(i + 1, blocks)
            blocks[j].pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[0]])


def ref_valid_cc_partition(g, parts):
    for i, p in enumerate(parts):
        if ref_is_cds(g, p):
            # a CDS part is legal only as a singleton (then its vertex is full)
            if len(p) != 1:
                return False
            continue
        if not any(
            j != i and not ref_is_cds(g, q) and ref_is_cds(g, p | q)
            for j, q in enumerate(parts)
        ):
            return False
    return True


def ref_cc(g):
    """CC by checking every partition, keeping the first strict improvement."""
    best, witness = 0, None
    for parts in iter_partitions(g.n):
        if len(parts) > best and ref_valid_cc_partition(g, parts):
            best, witness = len(parts), parts
    return best, witness


def ref_connected_domatic(g):
    best, witness = 0, None
    for parts in iter_partitions(g.n):
        if len(parts) > best and all(ref_is_cds(g, p) for p in parts):
            best, witness = len(parts), parts
    return best, witness


def ref_canonical_key(g):
    """n and the least adjacency code over all n! vertex orders: equal exactly for isomorphic graphs.

    The code of an order lists, pair by pair in lexicographic position
    order, whether the two vertices at those positions are adjacent.
    """
    adj = ref_adjacency(g)
    pairs = list(itertools.combinations(range(g.n), 2))
    return g.n, min(
        tuple((order[i], order[j]) in adj for i, j in pairs)
        for order in itertools.permutations(range(g.n))
    )


def ref_closed_neighborhood(g, v):
    adj = ref_adjacency(g)
    return {v} | {w for w in range(g.n) if (v, w) in adj}


def ref_full_rows(g):
    """The edges (p, q), p < q, in sorted order whose N[p] and N[q] together hold every vertex."""
    everything = set(range(g.n))
    adj = ref_adjacency(g)
    return [
        (p, q) for p, q in itertools.combinations(range(g.n), 2)
        if (p, q) in adj and ref_closed_neighborhood(g, p) | ref_closed_neighborhood(g, q) == everything
    ]


def ref_check_cc_equals_n(g):
    """The CC = n test written out directly, in Decision.as_dict() form.

    Each vertex takes the first full-row edge in sorted order that contains
    it; the first vertex on no such edge is named in the refusal.
    """
    full_rows = ref_full_rows(g)
    witness = {}
    for x in range(g.n):
        edge = next((e for e in full_rows if x in e), None)
        if edge is None:
            reason = f"vertex {x} has no incident edge whose row sums to {g.n}"
            return {"answer": False, "witness": None, "reason": reason, "variant": None}
        witness[str(x)] = list(edge)
    return {"answer": True, "witness": witness, "reason": None, "variant": None}


def ref_check_cc_equals_n_minus_1(g, variant):
    """The CC = n-1 pair scan written out directly, in Decision.as_dict() form.

    Full-row edges are tested by comparing neighborhood sets, triples by
    ref_is_cds; pairs, vertices, edges and y are all tried in ascending order.
    """
    n = g.n
    full_rows = ref_full_rows(g)

    def answer(witness=None, reason=None):
        return {"answer": witness is not None, "witness": witness, "reason": reason, "variant": variant}

    if variant == "strict" and all(any(x in e for e in full_rows) for x in range(n)):
        return answer(reason="the CC = n check already succeeds, which rules out CC = n-1")
    for u, v in itertools.combinations(range(n), 2):
        if variant == "strict" and ref_is_cds(g, {u, v}):
            continue
        justification = {}
        for x in range(n):
            if x in (u, v):
                continue
            edge = next((e for e in full_rows if x in e and u not in e and v not in e), None)
            if edge is not None:
                justification[str(x)] = ["edge", list(edge)]
            elif ref_is_cds(g, {x, u, v}):
                justification[str(x)] = ["triple", [x, u, v]]
            else:
                break
        else:
            y = next((y for y in range(n) if y not in (u, v) and ref_is_cds(g, {y, u, v})), None)
            if y is not None:
                return answer({"u": u, "v": v, "y": y, "justification": justification})
    return answer(reason="no qualifying vertex pair (u, v)")


def ref_peel(g, pick):
    """The peel written out on a set of remaining vertices: (member, steps, terminal).

    pick chooses the vertex to peel from the ascending list of full vertices
    left; steps and terminal use the same vocabulary as the package's trace.
    """
    adj = ref_adjacency(g)
    rest = set(range(g.n))
    steps = []
    while True:
        if len(rest) == 1:
            return False, tuple(steps), "reached_k1"
        if not ref_is_connected_subset(g, rest):
            return True, tuple(steps), "disconnected_ge2"
        fulls = [v for v in sorted(rest) if all((v, w) in adj for w in rest if w != v)]
        if not fulls:
            return False, tuple(steps), "connected_no_full"
        v = pick(fulls)
        rest.remove(v)
        steps.append((v, len(rest)))
