"""Membership test for the peel family: the graphs whose coalition number is zero.

The family is built bottom-up from all disconnected graphs of order at least
two by repeatedly joining one new universal vertex.  Membership is decided
top-down by peeling full vertices, over a mask rest of the vertices not yet
peeled.  A peel never creates a full vertex: if every vertex outside rest is
full in G and x in rest is adjacent to all of rest, then the peeled vertices
are adjacent to x too, so x is full in G.  So in any peel order the full
vertices of G[rest] are F & rest, with F those of G, and the peel removes
exactly F (all but the last vertex on K_n) before one classification of
what is left: G is a member exactly when G is not complete and G - F is
disconnected.  The trace peels F lowest id first.
"""

from dataclasses import dataclass

from .graphs import full_vertex_mask, induced_connected, iter_mask, require

TERMINAL_DISCONNECTED = "disconnected_ge2"
TERMINAL_NO_FULL = "connected_no_full"
TERMINAL_K1 = "reached_k1"


@dataclass(frozen=True)
class PeelTrace:
    """Checkable record of a membership decision.

    steps holds (peeled original vertex id, remaining order) pairs in peel
    order; terminal is the state that ended the peel.  Membership is
    equivalent to terminal == "disconnected_ge2".
    """

    steps: tuple
    terminal: str


def in_family_f(g):
    """Decide membership in the peel family, returning (member, trace).

    Peels the full vertices in ascending order, stopping at a single vertex
    on K_n.  Reaching a disconnected graph of order >= 2 proves membership;
    a connected graph without full vertices, or a single vertex, disproves
    it (the one-vertex graph is not a member: its coalition number is 1).
    """
    require(g, "family membership")
    fulls = full_vertex_mask(g)
    # zip stops after n - 1 peels, which keeps the last vertex of K_n
    steps = tuple(zip(iter_mask(fulls), range(g.n - 1, 0, -1)))
    rest = g.full_mask ^ fulls or 1 << (g.n - 1)
    # by the lemma G[rest] has no full vertex unless it is the last vertex of K_n
    if induced_connected(g, rest):
        return False, PeelTrace(steps, TERMINAL_NO_FULL if rest & (rest - 1) else TERMINAL_K1)
    return True, PeelTrace(steps, TERMINAL_DISCONNECTED)

