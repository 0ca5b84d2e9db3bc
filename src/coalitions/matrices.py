"""The edge-domination matrix and the two polynomial deciders.

check_cc_equals_n decides CC(G) = n for connected graphs without a full
vertex: it holds exactly when every vertex has an incident edge whose two
closed neighborhoods cover the whole graph (a full row of the edge-domination
matrix).  check_cc_equals_n_minus_1 decides CC(G) = n-1 through a search over
vertex pairs (u, v); it ships in two variants because the plain rule admits
edge cases.  The "paper" variant is the rule as stated; the "strict" variant
additionally requires that {u, v} is not itself a connected dominating set
and that the CC = n test already failed.  The verification harness measures
how the variants and the exact oracle relate instead of assuming it.
"""

import json
from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import is_connected, iter_mask

VARIANTS = ("paper", "strict")


@dataclass(frozen=True)
class Decision:
    """A yes/no answer plus either a checkable witness or a refutation reason."""

    answer: bool
    witness: object = None
    reason: str | None = None
    variant: str | None = None

    def as_dict(self):
        """The decision as JSON data: the witness's int keys become strings, its tuples lists."""
        return {
            "answer": self.answer,
            "witness": json.loads(json.dumps(self.witness)),
            "reason": self.reason,
            "variant": self.variant,
        }


def edge_domination_matrix(g):
    """The edge-domination matrix of a graph with at least one edge, as a tuple of row masks.

    Row i belongs to g.edges[i], and bit x of it is set exactly when vertex x
    lies in the union of the closed neighborhoods of that edge's endpoints.
    """
    edges = g.edges
    if not edges:
        raise PreconditionError("edge-domination matrix needs a graph with at least one edge")
    closed = g.closed_masks
    return tuple(closed[p] | closed[q] for p, q in edges)


def _check_preconditions(g, op, minimum_order):
    """Refuse graphs the deciders are not defined on; return the maximum degree."""
    if g.n < minimum_order:
        raise PreconditionError(f"{op} needs a graph of order >= {minimum_order}, got {g.n}")
    if not is_connected(g):
        raise PreconditionError(f"{op} needs a connected graph")
    top = max(map(int.bit_count, g.nbr_masks))
    if top == g.n - 1:
        degrees = list(map(int.bit_count, g.nbr_masks))
        raise PreconditionError(f"{op} requires no full vertex; vertex {degrees.index(top)} is full")
    return top


def _dominators(closed, cand, need):
    """The members of the mask cand whose closed neighborhoods contain all of need.

    w lies in N[m] exactly when m lies in N[w], so this is cand ANDed with
    N[m] for every m in need; the loop stops as soon as nothing is left.
    need is walked top bit first, one big-int op fewer than need & -need.
    """
    while need and cand:
        m = need.bit_length() - 1
        cand &= closed[m]
        need ^= 1 << m
    return cand


def _partner_masks(g, closed):
    """Yield, for x = 0, 1, ..., the mask of the w such that xw is an edge whose row sums to n.

    closed is g.closed_masks.  The row of xw is N[x] | N[w], so it is full
    exactly when N[w] covers the vertices N[x] misses: the full-row partners
    of x are its neighbors that dominate V - N[x].  The masks are built one
    at a time, so a caller that stops early pays only for those it read.
    """
    full = g.full_mask
    for x, nbr in enumerate(g.nbr_masks):
        yield _dominators(closed, nbr, full ^ closed[x])


def _first_edge(x, partners):
    """The first edge in sorted order joining x to a vertex of the nonempty mask partners.

    Every edge (w, x) with w < x sorts before every edge (x, w) with w > x,
    and each group sorts by w, so the first edge is the one to the lowest w.
    """
    w = (partners & -partners).bit_length() - 1
    return (x, w) if x < w else (w, x)


def check_cc_equals_n(g):
    """Decide CC(G) = n for a connected graph of order >= 2 with no full vertex.

    Answer yes iff every vertex has an incident edge whose edge-domination
    row sums to n.  The witness maps each vertex to the lowest such edge in
    sorted order; a no carries the first vertex with no qualifying edge.

    The row of an edge xw is N[x] | N[w].  Each closed neighborhood holds at
    most D + 1 vertices, D the maximum degree, and x and w lie in both, so
    the row holds at most 2D.  So when 2D < n no row is full, and vertex 0
    is the first refusal; that answer needs no partner mask.  Otherwise the
    partner masks are built in vertex order and the scan stops at the first
    vertex without one.
    """
    top = _check_preconditions(g, "the CC = n check", 2)
    n = g.n
    if 2 * top < n:
        return Decision(False, reason=f"vertex 0 has no incident edge whose row sums to {n}")
    witness = {}
    for x, partners in enumerate(_partner_masks(g, g.closed_masks)):
        if not partners:
            return Decision(False, reason=f"vertex {x} has no incident edge whose row sums to {n}")
        witness[x] = _first_edge(x, partners)
    return Decision(True, witness)


def check_cc_equals_n_minus_1(g, variant="strict"):
    """Decide CC(G) = n-1 via the pair search, in the requested variant.

    A pair (u, v) qualifies when every other vertex x either sits on an edge
    avoiding u and v whose row sums to n (condition 1) or makes {x, u, v} a
    connected dominating triple (condition 2), and some y outside the pair
    makes {y, u, v} a connected dominating triple.  The strict variant also
    requires that {u, v} itself is not a CDS and that the CC = n check fails.
    Pairs are scanned in ascending order and the first qualifying one is the
    witness: u, v, the lowest such y, and for each x the first edge in
    sorted order that serves it, else its triple.

    Four facts keep the scan to few pairs and a few mask operations per pair:

    - Condition 1 for x holds exactly when partner[x] minus {u, v} is
      nonempty, where partner[x] holds the w whose edge xw has a full row
      (see _partner_masks); its lowest vertex gives the first such edge.
    - No full row => no pair.  Condition 1 then never holds, so every x
      outside {u, v} (n >= 3, so one exists) needs condition 2.  If uv is
      an edge, the triple is connected only when x lies in N(u) | N(v), so
      the row of uv would be full.  If uv is no edge, every such x is
      adjacent to both u and v, so the row of xu is full.  When 2D < n, D
      the maximum degree, no row is full (check_cc_equals_n); that is tested
      before any partner mask is built, in both variants.  Otherwise the
      pair scan is skipped once the masks show every vertex lonely (below).
      The strict variant's refusal, "the CC = n check already succeeds",
      needs a full row, so it cannot apply in either case.
    - {z, u, v} dominates exactly when N[z] contains every vertex missed
      by N[u] | N[v], and three vertices induce a connected graph exactly
      when two of their pairs are edges: z adjacent to u or v if uv is an
      edge, to both otherwise.  These z form one mask per pair, the same
      mask for x in condition 2 and for y; an empty mask skips the pair.
    - A lonely x, one with no full-row partner at all, can only be served
      by condition 2, which puts x in N(u) | N(v) unless x is u or v.  So
      every lonely vertex outside N[u] lies in N[v]: for each u only the v
      above u whose closed neighborhoods contain those vertices are
      scanned, still in ascending order.
    """
    if variant not in VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    top = _check_preconditions(g, "the CC = n-1 check", 3)
    n = g.n
    no = Decision(False, reason="no qualifying vertex pair (u, v)", variant=variant)
    if 2 * top < n:
        return no
    strict = variant == "strict"
    closed = g.closed_masks
    partner = list(_partner_masks(g, closed))
    if strict and all(partner):  # the CC = n check's answer
        return Decision(
            False,
            reason="the CC = n check already succeeds, which rules out CC = n-1",
            variant=variant,
        )
    full = g.full_mask
    lonely = sum(1 << x for x, m in enumerate(partner) if not m)
    if lonely == full:  # no full row
        return no
    nbr = g.nbr_masks
    for u in range(n):
        above = full ^ ((2 << u) - 1)
        for v in iter_mask(_dominators(closed, above, lonely & ~closed[u])):
            pair = (1 << u) | (1 << v)
            missing = full ^ (closed[u] | closed[v])
            adjacent = nbr[u] >> v & 1
            if strict and adjacent and not missing:
                continue  # {u, v} is itself a CDS
            link = nbr[u] | nbr[v] if adjacent else nbr[u] & nbr[v]
            triples = _dominators(closed, link & ~pair, missing)
            if not triples:
                continue
            justification = {}
            for x in range(n):
                if x == u or x == v:
                    continue
                partners = partner[x] & ~pair
                if partners:
                    justification[x] = ("edge", _first_edge(x, partners))
                elif triples >> x & 1:
                    justification[x] = ("triple", (x, u, v))
                else:
                    break
            else:
                y = (triples & -triples).bit_length() - 1
                witness = {"u": u, "v": v, "y": y, "justification": justification}
                return Decision(True, witness, variant=variant)
    return no
