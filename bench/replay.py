"""The bench's own graph builders and witness checkers.

Everything here works on plain Python sets and edge lists and imports
nothing from the package, so a wrong kernel cannot vouch for its own output.
"""

import re


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(0, n - 1)]


def corona_edges(n, edges):
    """H corona K_1: vertex i of H gets the pendant leaf n + i."""
    return list(edges) + [(i, n + i) for i in range(n)]


def prufer_tree_edges(seq, n):
    """Decode a Pruefer sequence over 0..n-1 (quadratic; n is small)."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


def random_edges(rng, n, p):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected_within(adj, s):
    if not s:
        return False
    start = next(iter(s))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] & s:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(s)


def has_full_vertex(adj):
    return any(len(a) == len(adj) - 1 for a in adj)


def random_connected(rng, n, p, no_full=False):
    """Draw G(n, p) until it is connected and, if asked, has no full vertex."""
    while True:
        edges = random_edges(rng, n, p)
        adj = adjacency(n, edges)
        if connected_within(adj, set(range(n))) and not (no_full and has_full_vertex(adj)):
            return edges


def graph6(n, edges):
    """graph6 line for n <= 62: upper triangle in column-major order, 6 bits per byte."""
    adj = adjacency(n, edges)
    bits = [1 if i in adj[j] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        byte = 0
        for b in bits[k:k + 6]:
            byte = byte << 1 | b
        out.append(chr(63 + byte))
    return "".join(out)


class SetGraph:
    """Closed neighbourhoods as sets, for replaying witnesses."""

    def __init__(self, n, edges):
        self.n = n
        self.adj = adjacency(n, edges)
        self.closed = [self.adj[v] | {v} for v in range(n)]

    def dominates(self, s):
        covered = set()
        for v in s:
            covered |= self.closed[v]
        return len(covered) == self.n

    def is_cds(self, s):
        return bool(s) and self.dominates(s) and connected_within(self.adj, set(s))

    def full_row(self, p, q):
        return q in self.adj[p] and len(self.closed[p] | self.closed[q]) == self.n

    def is_partition(self, parts):
        flat = sorted(v for part in parts for v in part)
        return all(parts) and flat == list(range(self.n))

    def cc_witness_ok(self, value, parts):
        """A connected coalition partition with `value` parts."""
        if value == 0:
            return parts is None
        parts = [set(p) for p in parts]
        if len(parts) != value or not self.is_partition(parts):
            return False
        cds = [self.is_cds(p) for p in parts]
        for i, part in enumerate(parts):
            if cds[i]:
                if len(part) != 1 or len(self.adj[next(iter(part))]) != self.n - 1:
                    return False
            elif not any(j != i and not cds[j] and self.is_cds(part | parts[j])
                         for j in range(len(parts))):
                return False
        return True

    def domatic_witness_ok(self, value, parts):
        """A partition of V into `value` connected dominating sets."""
        parts = [set(p) for p in parts]
        return (value >= 1 and len(parts) == value and self.is_partition(parts)
                and all(self.is_cds(p) for p in parts))

    def check_n_ok(self, decision):
        """A yes names a full-row edge at every vertex; a no names a vertex with none."""
        if decision.answer:
            w = decision.witness
            return sorted(w) == list(range(self.n)) and all(
                x in (p, q) and self.full_row(p, q) for x, (p, q) in w.items())
        found = re.match(r"vertex (\d+) ", decision.reason or "")
        if not found:
            return False
        x = int(found.group(1))
        return x < self.n and not any(self.full_row(x, y) for y in self.adj[x])

    def check_n1_yes_ok(self, witness, strict):
        u, v, y = witness["u"], witness["v"], witness["y"]
        if not (0 <= u < v < self.n) or y in (u, v) or not self.is_cds({y, u, v}):
            return False
        if strict and self.is_cds({u, v}):
            return False
        just = witness["justification"]
        if sorted(just) != [x for x in range(self.n) if x not in (u, v)]:
            return False
        for x, (kind, item) in just.items():
            if kind == "edge":
                p, q = item
                if x not in (p, q) or {p, q} & {u, v} or not self.full_row(p, q):
                    return False
            elif kind != "triple" or tuple(item) != (x, u, v) or not self.is_cds({x, u, v}):
                return False
        return True
