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


@functools.lru_cache(maxsize=16)
def ref_closed_neighborhoods(g):
    """N[v] for every vertex v, as frozensets read from ref_adjacency (kept for the last few graphs)."""
    closed = [{v} for v in range(g.n)]
    for u, v in ref_adjacency(g):
        closed[u].add(v)
    return tuple(map(frozenset, closed))


@functools.lru_cache(maxsize=16)
def ref_outside(g):
    """V - N[v] for every vertex v: the vertices v does not dominate (kept for the last few graphs)."""
    everything = frozenset(range(g.n))
    return tuple(everything - c for c in ref_closed_neighborhoods(g))


def ref_is_dominating(g, s):
    adj = ref_adjacency(g)
    return all(v in s or any((u, v) in adj for u in s) for v in range(g.n))


def ref_is_connected_subset(g, s):
    return _connected_within(ref_closed_neighborhoods(g), set(s))


def ref_connected_without_full_vertex(g):
    """g is connected and no closed neighbourhood is all of V."""
    return ref_is_connected_subset(g, range(g.n)) and all(len(c) < g.n for c in ref_closed_neighborhoods(g))


def _connected_within(closed, s):
    """The set s is nonempty and a search from its least vertex, stepping from w to closed[w] & s, reaches all of s."""
    if not s:
        return False
    seen = set()
    todo = [min(s)]
    while todo:
        w = todo.pop()
        if w not in seen:
            seen.add(w)
            todo.extend(closed[w] & s)
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


def ref_full_rows(g):
    """The edges (p, q), p < q, in sorted order whose N[p] and N[q] together hold every vertex."""
    closed = ref_closed_neighborhoods(g)
    outside = ref_outside(g)
    return sorted((p, q) for p, q in ref_adjacency(g) if p < q and closed[q] >= outside[p])


def ref_full_rows_at(g):
    """For each vertex x, the list of ref_full_rows(g) edges that contain x, still in sorted order."""
    at = [[] for _ in range(g.n)]
    for edge in ref_full_rows(g):
        for x in edge:
            at[x].append(edge)
    return at


def ref_check_cc_equals_n(g):
    """The CC = n test written out directly, in Decision.as_dict() form.

    Each vertex takes the first full-row edge in sorted order that contains
    it; the first vertex on no such edge is named in the refusal.
    """
    witness = {}
    for x, edges in enumerate(ref_full_rows_at(g)):
        if not edges:
            reason = f"vertex {x} has no incident edge whose row sums to {g.n}"
            return {"answer": False, "witness": None, "reason": reason, "variant": None}
        witness[str(x)] = list(edges[0])
    return {"answer": True, "witness": witness, "reason": None, "variant": None}


def ref_check_cc_equals_n_minus_1(g, variant):
    """The CC = n-1 pair scan written out directly, in Decision.as_dict() form.

    Every pair is scanned in ascending order, and within a pair every x,
    edge and y in ascending order too: nothing is skipped on a degree or
    partner count.  Full-row edges come from ref_full_rows.  A set s is a
    CDS when no vertex lies outside every N[w], w in s, and a search inside
    s reaches all of it; the vertices that N[u] | N[v] misses are found once
    per pair.
    """
    n = g.n
    closed = ref_closed_neighborhoods(g)
    outside = ref_outside(g)
    full_rows_at = ref_full_rows_at(g)

    def answer(witness=None, reason=None):
        return {"answer": witness is not None, "witness": witness, "reason": reason, "variant": variant}

    if variant == "strict" and all(full_rows_at):
        return answer(reason="the CC = n check already succeeds, which rules out CC = n-1")

    def is_cds_with(x):
        """{x, u, v} is a CDS for the pair being scanned; x = u tests the pair itself."""
        return missing <= closed[x] and _connected_within(closed, {x, u, v})

    for u, v in itertools.combinations(range(n), 2):
        missing = outside[u] - closed[v]
        if variant == "strict" and is_cds_with(u):
            continue
        justification = {}
        for x in range(n):
            if x in (u, v):
                continue
            edge = next((e for e in full_rows_at[x] if u not in e and v not in e), None)
            if edge is not None:
                justification[str(x)] = ["edge", list(edge)]
            elif is_cds_with(x):
                justification[str(x)] = ["triple", [x, u, v]]
            else:
                break
        else:
            y = next((y for y in range(n) if y not in (u, v) and is_cds_with(y)), None)
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


def ref_replay_peel(g, steps, terminal):
    """A recorded peel holds on g: ref_peel run with each recorded vertex as its pick.

    True only when steps is a sequence of pairs of ints, each recorded vertex
    is full at its step (in any order), the remaining orders match, and the
    peel ends there with the recorded terminal.  A recorded vertex that is
    not full, or a pick past the recorded steps, takes the lowest full vertex
    instead, so the replayed steps then differ from the recorded ones.
    """
    if not isinstance(steps, (tuple, list)) or not all(
        isinstance(step, (tuple, list)) and len(step) == 2 and all(type(x) is int for x in step)
        for step in steps
    ):
        return False
    recorded = iter([v for v, _ in steps])

    def follow(fulls):
        v = next(recorded, None)
        return v if v in fulls else fulls[0]

    _, replayed, end = ref_peel(g, follow)
    return replayed == tuple(map(tuple, steps)) and end == terminal
