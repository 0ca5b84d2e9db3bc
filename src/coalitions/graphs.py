"""Immutable bitmask-backed graphs: construction, serialization, enumeration, canonical form.

Vertices of a graph of order n are the integers 0..n-1.  Vertex sets travel
through the public API as frozensets of ids; the search kernels in the other
modules work on integer bitmasks, so the packing helpers and the induced
connectivity test live here where every module can share them.
"""

import binascii
from math import isqrt

from .errors import GraphFormatError, GuardExceededError, PreconditionError

GRAPH6_MAX_N = 258047
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)
_GRAPH6_TO_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}
ENUMERATION_GUARD = 7


def subset_mask(g, s, what):
    """Pack a vertex set of g into a bitmask, rejecting ids outside 0..n-1 with ``what`` named."""
    mask = 0
    for v in s:
        if not (0 <= v < g.n):
            raise PreconditionError(f"{what} contains vertex {v}, outside 0..{g.n - 1}")
        mask |= 1 << v
    return mask


def set_from_mask(mask):
    """Unpack a bitmask into a frozenset of vertex ids."""
    return frozenset(iter_mask(mask))


def iter_mask(mask):
    """Yield the vertex ids set in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Instances are immutable.  ``nbr_masks`` and ``closed_masks`` expose the
    adjacency as bitmasks for the exhaustive-search kernels.  Equality is
    vertex-by-vertex (same order, same adjacency), not isomorphism.
    ``Graph(n, edges)`` deduplicates repeated edges; out-of-range ids and
    self-loops raise a PreconditionError naming the offending pair.
    """

    __slots__ = ("n", "_nbr", "_edges")

    def __init__(self, n, edges):
        if n < 0:
            raise PreconditionError(f"vertex count must be nonnegative, got {n}")
        nbr = [0] * n
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"self-loop ({u}, {v}) is not allowed")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.n = n
        self._nbr = tuple(nbr)
        self._edges = None

    @classmethod
    def from_neighbor_masks(cls, n, nbr):
        """Trusted constructor for internal callers that already hold symmetric masks."""
        g = object.__new__(cls)
        g.n = n
        g._nbr = tuple(nbr)
        g._edges = None
        return g

    @property
    def nbr_masks(self):
        return self._nbr

    @property
    def closed_masks(self):
        return tuple(m | (1 << v) for v, m in enumerate(self._nbr))

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    @property
    def edges(self):
        """All edges as (u, v) pairs with u < v, sorted."""
        if self._edges is None:
            out = []
            for u in range(self.n):
                rest = self._nbr[u] >> (u + 1)
                for k in iter_mask(rest):
                    out.append((u, u + 1 + k))
            self._edges = tuple(out)
        return self._edges

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return self._nbr[v].bit_count()

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._nbr == other._nbr

    def __hash__(self):
        return hash((self.n, self._nbr))

    def __repr__(self):
        shown = list(self.edges[:12])
        tail = ", ..." if self.m > 12 else ""
        return f"Graph(n={self.n}, edges={shown}{tail})"


def induced_connected(g, mask):
    """True iff the subgraph induced on the nonempty vertex mask is connected."""
    if mask == 0:
        return False
    nbr = g._nbr
    comp = frontier = mask & -mask
    while frontier:
        reach = 0
        m = frontier
        while m:
            low = m & -m
            reach |= nbr[low.bit_length() - 1]
            m ^= low
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp == mask


def is_connected(g):
    """Whole-graph connectivity; the empty graph counts as disconnected, K_1 as connected."""
    if g.n == 0:
        return False
    return induced_connected(g, g.full_mask)


def full_vertex_mask(g):
    """Bitmask of the vertices adjacent to every other vertex (degree n-1).

    For n=1 the single vertex counts as full: its degree 0 equals n-1.
    """
    want = g.n - 1
    m = 0
    for v, nb in enumerate(g._nbr):
        if nb.bit_count() == want:
            m |= 1 << v
    return m


def corona(g, h):
    """Corona product: one copy of g, g.n copies of h, vertex i joined to copy i.

    Layout is deterministic: g keeps ids 0..g.n-1, copy i occupies the next
    h.n ids in order.
    """
    if g.n == 0:
        raise PreconditionError("corona requires a nonempty first factor")
    gn, hn = g.n, h.n
    n = gn + gn * hn
    nbr = [m for m in g._nbr] + [0] * (gn * hn)
    for i in range(gn):
        base = gn + i * hn
        copy_mask = ((1 << hn) - 1) << base
        nbr[i] |= copy_mask
        for v in range(hn):
            nbr[base + v] |= (h._nbr[v] << base) | (1 << i)
    return Graph.from_neighbor_masks(n, nbr)


def _gen_path(n):
    if n < 1:
        raise PreconditionError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _gen_cycle(n):
    if n < 3:
        raise PreconditionError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _gen_complete(n):
    if n < 1:
        raise PreconditionError(f"complete needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _gen_complete_bipartite(r, s):
    if r < 1 or s < 1:
        raise PreconditionError(f"complete_bipartite needs r, s >= 1, got r={r}, s={s}")
    return Graph(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def _gen_star(leaves):
    if leaves < 1:
        raise PreconditionError(f"star needs at least 1 leaf, got {leaves}")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _gen_friendship(t):
    # t triangles sharing the hub vertex 0
    if t < 1:
        raise PreconditionError(f"friendship needs t >= 1 triangles, got {t}")
    edges = []
    for i in range(t):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * t + 1, edges)


# family -> (builder, parameter count), in the order the CLI and error texts list them
_GENERATORS = {
    "path": (_gen_path, 1),
    "cycle": (_gen_cycle, 1),
    "complete": (_gen_complete, 1),
    "complete_bipartite": (_gen_complete_bipartite, 2),
    "star": (_gen_star, 1),
    "friendship": (_gen_friendship, 1),
}
GENERATOR_FAMILIES = tuple(_GENERATORS)


def generate(family, params):
    """Build a standard graph family member with canonical vertex numbering.

    Families: path n; cycle n (n >= 3); complete n; complete_bipartite r s
    (part A first); star leaves (hub 0); friendship t (hub 0).
    """
    if family not in _GENERATORS:
        raise PreconditionError(
            f"unknown family {family!r}; expected one of {', '.join(GENERATOR_FAMILIES)}"
        )
    fn, arity = _GENERATORS[family]
    if len(params) != arity:
        raise PreconditionError(f"family {family} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def _pair_order(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def emit_graph6(g):
    """Encode a graph of order <= 258047 as a one-line graph6 string.

    The header is one byte for n <= 62, and '~' plus an 18-bit big-endian
    count for larger n.  The payload is the upper triangle in column order,
    (0,1), (0,2), (1,2), (0,3), ..., six bits per byte, padded with zeros.
    """
    n = g.n
    if n > GRAPH6_MAX_N:
        raise PreconditionError(f"graph6 supports n <= {GRAPH6_MAX_N}, got {n}")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    nbr = g._nbr
    pairs = 0  # bit k is the k-th pair in column order
    k = 0
    for j in range(1, n):
        pairs |= (nbr[j] & ((1 << j) - 1)) << k
        k += j
    # graph6 reads the pairs from the most significant bit down.  base64 writes one character
    # per six bits, and padding to whole 24-bit groups keeps it from appending '='
    pad = -k % 24
    bits = int(format(pairs, "b").zfill(k)[::-1], 2) << pad
    body = binascii.b2a_base64(bits.to_bytes((k + pad) >> 3, "big"), newline=False)
    return head + body.translate(_BASE64_TO_GRAPH6)[:(k + 5) // 6].decode()


def parse_graph6(text):
    """Decode a single graph6 line into a Graph.

    Accepts an optional ">>graph6<<" prefix and the one-byte or '~' headers,
    so n <= 258047.  Malformed bytes, a truncated header or bit payload, and
    trailing garbage all raise GraphFormatError.
    """
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphFormatError("empty graph6 line")
    for c in line:
        if not ("?" <= c <= "~"):
            raise GraphFormatError(f"graph6 byte {ord(c)} outside the printable range [63, 126]")
    if line[0] != "~":
        n, head = ord(line[0]) - 63, 1
    elif len(line) < 4:
        raise GraphFormatError(f"graph6 header truncated: '~' needs 3 more bytes, got {len(line) - 1}")
    elif line[1] == "~":
        raise GraphFormatError(f"graph6 header encodes n > {GRAPH6_MAX_N}; only n <= {GRAPH6_MAX_N} is supported")
    else:
        n = (ord(line[1]) - 63) << 12 | (ord(line[2]) - 63) << 6 | (ord(line[3]) - 63)
        head = 4
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = len(line) - head
    if payload < need:
        raise GraphFormatError(
            f"graph6 payload truncated: need {need} bytes for n={n}, got {payload}"
        )
    if payload > need:
        raise GraphFormatError(
            f"trailing garbage after graph6 payload: expected {need} bytes, got {payload}"
        )
    bits = line[head:].translate(_GRAPH6_TO_BITS)
    nbr = [0] * n
    k = bits.find("1", 0, nbits)
    while k >= 0:
        # the k-th pair in column order is (i, j) with j(j-1)/2 <= k < j(j+1)/2
        j = (1 + isqrt(8 * k + 1)) >> 1
        i = k - (j * (j - 1) >> 1)
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
        k = bits.find("1", k + 1, nbits)
    return Graph.from_neighbor_masks(n, nbr)


def iter_graph6_lines(lines):
    """Parse the graph on each of an iterable of graph6 lines, skipping blanks and '>' headers.

    A ">>graph6<<" header may share its line with the first graph, as nauty
    writes it.  An open text file is such an iterable, so a file streams one
    line at a time; for a string in memory pass text.splitlines().
    """
    for line in lines:
        stripped = line.strip().removeprefix(">>graph6<<")
        if not stripped or stripped.startswith(">"):
            continue
        yield parse_graph6(stripped)


def parse_edgelist(text):
    """Parse the edge-list text format.

    First non-comment line is the order n; each further line is "u v".
    Lines starting with '#' and blank lines are ignored; duplicate edges are
    deduplicated.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphFormatError(f"line {lineno}: expected the vertex count, got {line!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex count {fields[0]!r} is not an integer")
            continue
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {line!r}")
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("edge-list input contains no vertex count line")
    try:
        return Graph(n, edges)
    except PreconditionError as exc:
        raise GraphFormatError(str(exc))


def emit_edgelist(g):
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines)


def enumerate_labeled_graphs(n, connected_only=False):
    """Yield every labeled graph on n vertices exactly once.

    Order is ascending adjacency bitmask, where bit k of the mask is the k-th
    vertex pair in lexicographic order (0,1), (0,2), ..., (n-2,n-1).  The
    guard stops at n=7 because the count is 2^(n(n-1)/2).
    """
    if not (1 <= n <= ENUMERATION_GUARD):
        raise GuardExceededError(
            f"labeled enumeration supports 1 <= n <= {ENUMERATION_GUARD}, got {n}"
        )
    pairs = _pair_order(n)
    for mask in range(1 << len(pairs)):
        nbr = [0] * n
        m = mask
        while m:
            low = m & -m
            u, v = pairs[low.bit_length() - 1]
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            m ^= low
        g = Graph.from_neighbor_masks(n, nbr)
        if connected_only and not is_connected(g):
            continue
        yield g


def is_tree(g):
    """True iff g is connected with exactly n-1 edges."""
    return g.n >= 1 and is_connected(g) and g.m == g.n - 1


def is_corona_of_k1(g):
    """Recognize graphs of the form H corona K_1 with H connected and nonempty.

    Such a graph has even order 2h: exactly h pendant vertices, each non-
    pendant supporting exactly one of them, and the non-pendants inducing a
    connected subgraph.  Labeling does not matter.
    """
    n = g.n
    if n < 2 or n % 2:
        return False
    if n == 2:
        return g.m == 1
    leaf_mask = sum(1 << v for v in range(n) if g.degree(v) == 1)
    if leaf_mask.bit_count() != n // 2:
        return False
    # n/2 leaves whose supports are exactly the n/2 non-leaves support one leaf each
    supports = 0
    for leaf in iter_mask(leaf_mask):
        supports |= g._nbr[leaf]
    return supports == g.full_mask ^ leaf_mask and induced_connected(g, supports)


def _refine(nbr, cells, stack):
    """Split an ordered partition (a list of cell bitmasks), in place, until it is equitable.

    stack holds splitter masks.  A popped splitter S splits every cell by its
    vertices' neighbour counts in S, the parts in sorted-count order; for a
    single vertex S = {x} they are cell & ~N(x), then cell & N(x).  Each split
    pushes every new part except the first largest one, whose counts follow
    from the others' and the old cell's (McKay, "Practical graph isomorphism",
    1981).  Only positions and counts pick cells, parts and splitters, so the
    result depends on the graph and the input, not on labels.  It is equitable
    when every cell's counts follow from splitters in the stack: start from
    [V] at the root, and from [{v}] after individualizing v in an equitable
    partition.
    """
    n = len(nbr)
    while stack and len(cells) < n:
        s = stack.pop()
        single = not s & (s - 1)
        ns = nbr[s.bit_length() - 1]
        i = 0
        for cell in cells[:]:
            i += 1
            if not cell & (cell - 1):
                continue
            if single:
                a = cell & ns
                if a and a != cell:
                    b = cell ^ a
                    cells[i - 1:i] = b, a
                    i += 1
                    stack.append(a if a.bit_count() <= b.bit_count() else b)
                continue
            groups = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                k = (nbr[low.bit_length() - 1] & s).bit_count()
                groups[k] = groups.get(k, 0) | low
            if len(groups) > 1:
                parts = [groups[k] for k in sorted(groups)]
                cells[i - 1:i] = parts
                i += len(parts) - 1
                keep = max(parts, key=int.bit_count)
                stack += [p for p in parts if p != keep]


def _twins(nbr, cell):
    """True iff the cell's vertices are pairwise twins: all N(v) equal, or all N[v] equal."""
    vs = list(iter_mask(cell))
    return len({nbr[v] for v in vs}) == 1 or len({nbr[v] | 1 << v for v in vs}) == 1


def _orbit(mask, gens):
    """The vertex mask closed under the permutations gens."""
    while True:
        grown = mask
        for perm in gens:
            for x in iter_mask(mask):
                grown |= 1 << perm[x]
        if grown == mask:
            return mask
        mask = grown


def canonical_form(g):
    """A key equal for two graphs exactly when they are isomorphic: (n, min leaf code).

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): refine to an equitable partition, then for each
    vertex of the first non-singleton cell put it in a cell of its own ahead of
    the rest, refine by that vertex alone and recurse.  A leaf's partition is
    discrete, and its code is the adjacency read in that vertex order; the
    least code over all leaves is the form.  A node whose non-singleton cells
    are all classes of twins is a leaf too: individualizing a twin splits no
    other cell, and every order inside those cells gives the same code, so
    each is read ascending.  A child is skipped when an automorphism that fixes
    the node's partition maps an already tried vertex onto it, since its
    subtree then holds the same codes: a twin of a tried vertex (N(u) - v ==
    N(v) - u, so swapping the two is one), or an image of a tried vertex under
    the automorphisms found so far that fix every vertex individualized above
    the node (two leaves with equal codes give one).
    """
    nbr = g.nbr_masks
    best = None
    best_order = None
    autos = []

    def search(cells, stack, fixed):
        nonlocal best, best_order
        _refine(nbr, cells, stack)
        target = None
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                if target is None:
                    target = i
                if not _twins(nbr, cell):
                    break
        else:
            if len(cells) == g.n:
                order = [cell.bit_length() - 1 for cell in cells]
            else:
                order = [v for cell in cells for v in iter_mask(cell)]
            code = 0
            for k, u in enumerate(order):
                nu = nbr[u]
                for w in order[k + 1:]:
                    code = code << 1 | (nu >> w & 1)
            if best is None or code < best:
                best, best_order = code, order
            elif code == best:
                perm = [0] * len(order)
                for a, b in zip(best_order, order):
                    perm[a] = b
                autos.append(perm)
            return
        cell = cells[target]
        tried = 0
        for v in iter_mask(cell):
            bit = 1 << v
            if tried:
                if any(nbr[u] & ~bit == nbr[v] & ~(1 << u) for u in iter_mask(tried)):
                    continue
                gens = [p for p in autos if all(p[x] == x for x in fixed)]
                if bit & _orbit(tried, gens):
                    continue
            tried |= bit
            search(cells[:target] + [bit, cell ^ bit] + cells[target + 1:], [bit], fixed + [v])

    full = g.full_mask
    search([full] if full else [], [full], [])
    del search  # search refers to itself; dropping it leaves no cycle for the garbage collector
    return g.n, best
