"""The edge-domination matrix and the two polynomial deciders.

check_cc_equals_n decides CC(G) = n for connected graphs without a full
vertex: it holds exactly when every vertex has an incident edge whose two
closed neighborhoods cover the whole graph (a full row of the edge-domination
matrix).  Neither decider builds the matrix: each walks a vertex to its
lowest full-row partner by testing candidates (_first_partner), and on a
dense graph the first candidate usually passes.  check_cc_equals_n_minus_1
decides CC(G) = n-1 through a search over vertex pairs (u, v) in two
variants: "paper", the rule as stated, and "strict", which its docstring
proves exact.
"""

import json
from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import iter_mask, require

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


def _first_partner(nbr, anti, cand, miss):
    """The lowest w in the mask cand with miss & anti[w] == 0, or -1 when there is none.

    nbr is g.nbr_masks and anti[w] = V - N(w), the vertices w is not adjacent
    to.  Called with cand inside N(x) and miss = anti[x], it returns the lowest
    full-row partner of x in cand.  The row of an edge xw is N[x] | N[w], and
    it is full exactly when every vertex not adjacent to x is adjacent to w:
    x itself is, and any other vertex outside N[x] must lie in N(w).

    The walk tests the lowest w left in cand.  If w fails, some z of miss is
    not adjacent to w, and cand is ANDed with N(z).  That drops w, since w is
    not in N(z).  It keeps every w' that passes, since z lies in miss and so
    is adjacent to w'.  So cand always holds every passing vertex it started
    with, and the first w that passes is the lowest.  On a dense graph the
    first candidate usually passes.
    """
    while cand:
        w = (cand ^ (cand - 1)).bit_length() - 1  # positive operands only: cheaper than cand & -cand
        left = miss & anti[w]
        if not left:
            return w
        cand &= nbr[left.bit_length() - 1]
    return -1


def check_cc_equals_n(g):
    """Decide CC(G) = n for a connected graph of order >= 2 with no full vertex.

    Answer yes iff every vertex has an incident edge whose edge-domination
    row sums to n.  The witness maps each vertex to the lowest such edge in
    sorted order; a no carries the first vertex with no qualifying edge.

    The row of an edge xw is N[x] | N[w].  Each closed neighborhood holds at
    most D + 1 vertices, D the maximum degree, and x and w lie in both, so
    the row holds at most 2D.  So when 2D < n no row is full, and vertex 0
    is the first refusal; that answer walks no vertex.  Otherwise each
    vertex in turn walks to its lowest full-row partner (_first_partner),
    and the scan stops at the first vertex without one.  Every edge (w, x)
    with w < x sorts before every edge (x, w) with w > x, and each group
    sorts by w, so the lowest partner gives the first edge.
    """
    top = require(g, "the CC = n check", order=2, connected=True, no_full=True)
    n = g.n
    if 2 * top < n:
        return Decision(False, reason=f"vertex 0 has no incident edge whose row sums to {n}")
    nbr = g.nbr_masks
    full = g.full_mask
    anti = [full ^ m for m in nbr]
    witness = {}
    for x in range(n):
        w = _first_partner(nbr, anti, nbr[x], anti[x])
        if w < 0:
            return Decision(False, reason=f"vertex {x} has no incident edge whose row sums to {n}")
        witness[x] = (x, w) if x < w else (w, x)
    return Decision(True, witness)


def check_cc_equals_n_minus_1(g, variant="strict"):
    """Decide CC(G) = n-1 via the pair search, in the requested variant.

    A partition into n-1 parts is one pair {u, v} plus n-2 singletons, and
    with no full vertex no singleton is a CDS.  So the partition is a
    connected coalition partition exactly when {u, v} is not a CDS (a part
    of two vertices must form a coalition, and a CDS forms none), every
    other vertex x has a partner, and the pair has one: some y outside it
    with {y, u, v} a CDS.  x's partner is a singleton w with {x, w} a CDS,
    which is an edge xw avoiding u and v whose row sums to n (condition 1),
    or the pair, with {x, u, v} a connected dominating triple (condition 2).

    CC is the largest part count, so CC = n-1 exactly when such a pair
    exists and CC != n.  check_cc_equals_n decides CC = n: every vertex has
    a full-row partner.  The strict variant tests all of this, so it is
    exact.  The paper variant, the rule as stated, drops the non-CDS test
    and the CC != n test: its no means CC != n-1, and its yes is wrong only
    when CC = n or its witness pair is itself a CDS.  Pairs are scanned in
    ascending order and the first qualifying one is the witness: u, v, the
    lowest such y, and for each x the first edge in sorted order that
    serves it, else its triple.

    Four facts keep the scan to few pairs and a few mask operations per pair:

    - Condition 1 for x holds exactly when x has a full-row partner w, one
      whose edge xw has a full row, outside {u, v}; the lowest gives the
      first such edge.  One pass walks every x to its lowest partner,
      first[x] (_first_partner), or marks x lonely when it has none.  The
      row of xw is the row of wx, so a lonely vertex is nobody's partner,
      and the pass leaves the lonely vertices found so far out of each walk.
      The scan reads first[x], and walks x again, without u, v and the
      lonely vertices, only when first[x] is u or v.
    - No full row => no pair.  Condition 1 then never holds, so every x
      outside {u, v} (n >= 3, so one exists) needs condition 2.  If uv is
      an edge, the triple is connected only when x lies in N(u) | N(v), so
      the row of uv would be full.  If uv is no edge, every such x is
      adjacent to both u and v, so the row of xu is full.  When 2D < n, D
      the maximum degree, no row is full (check_cc_equals_n); that is tested
      before any vertex is walked, in both variants.  Otherwise the pair
      scan is skipped once the pass finds every vertex lonely.
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
    top = require(g, "the CC = n-1 check", order=3, connected=True, no_full=True)
    n = g.n
    no = Decision(False, reason="no qualifying vertex pair (u, v)", variant=variant)
    if 2 * top < n:
        return no
    strict = variant == "strict"
    nbr = g.nbr_masks
    full = g.full_mask
    anti = [full ^ m for m in nbr]
    first = []
    lonely = 0
    for x in range(n):
        w = _first_partner(nbr, anti, nbr[x] & ~lonely, anti[x])
        first.append(w)
        if w < 0:
            lonely |= 1 << x
    if strict and not lonely:  # the CC = n check's answer
        return Decision(
            False,
            reason="the CC = n check already succeeds, which rules out CC = n-1",
            variant=variant,
        )
    if lonely == full:  # no full row
        return no
    closed = g.closed_masks
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
            keep = ~(pair | lonely)
            justification = {}
            for x in range(n):
                if x == u or x == v:
                    continue
                w = first[x]
                if w == u or w == v:
                    w = _first_partner(nbr, anti, nbr[x] & keep, anti[x])
                if w >= 0:
                    justification[x] = ("edge", (x, w) if x < w else (w, x))
                elif triples >> x & 1:
                    justification[x] = ("triple", (x, u, v))
                else:
                    break
            else:
                y = (triples & -triples).bit_length() - 1
                witness = {"u": u, "v": v, "y": y, "justification": justification}
                return Decision(True, witness, variant=variant)
    return no
