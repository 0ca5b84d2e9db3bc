"""Membership test for the peel family: the graphs whose coalition number is zero.

The family is built bottom-up from all disconnected graphs of order at least
two by repeatedly joining one new universal vertex.  Membership is decided
top-down by peeling full vertices.  The peel choice cannot change the verdict
because any two full vertices have the same closed neighborhood (all of V),
so swapping them is an automorphism; the lowest id is peeled for determinism
and the tests compare other choices through a reference peel.

Both the decision and the replay walk a mask ``rest`` of the vertices not yet
peeled, over the original graph, so vertex ids never need relabeling.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import induced_connected, iter_mask

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

    @property
    def member(self):
        return self.terminal == TERMINAL_DISCONNECTED


def _peel_step(g, rest):
    """Classify G[rest], the graph left once every vertex outside rest is peeled.

    Returns (terminal, 0) when the peel ends at G[rest], else (None, fulls)
    with fulls the nonempty mask of vertices of rest adjacent to every other
    vertex of rest.  The empty mask counts as disconnected, as in is_connected.
    """
    if not induced_connected(g, rest):
        return TERMINAL_DISCONNECTED, 0
    if rest & (rest - 1) == 0:
        return TERMINAL_K1, 0
    nbr = g.nbr_masks
    fulls = 0
    for v in iter_mask(rest):
        if nbr[v] & rest == rest ^ (1 << v):
            fulls |= 1 << v
    return (None, fulls) if fulls else (TERMINAL_NO_FULL, 0)


def in_family_f(g):
    """Decide membership in the peel family, returning (member, trace).

    Repeatedly removes the lowest full vertex.  Reaching a disconnected graph
    of order >= 2 proves membership; running out of full vertices while still
    connected, or peeling all the way down to a single vertex, disproves it
    (the one-vertex graph is not a member: its coalition number is 1).
    """
    if g.n < 1:
        raise PreconditionError("family membership needs a graph of order >= 1")
    rest = g.full_mask
    steps = []
    while True:
        terminal, fulls = _peel_step(g, rest)
        if terminal:
            return terminal == TERMINAL_DISCONNECTED, PeelTrace(tuple(steps), terminal)
        low = fulls & -fulls
        rest ^= low
        steps.append((low.bit_length() - 1, rest.bit_count()))


def replay_peel_trace(g, trace):
    """Re-run a peel trace against g, checking every step.

    Returns True when each recorded vertex was full at its step, the
    remaining orders match, and the terminal state is reproduced.
    """
    rest = g.full_mask
    for v, remaining in trace.steps:
        terminal, fulls = _peel_step(g, rest)
        if terminal or not (isinstance(v, int) and v >= 0 and fulls >> v & 1):
            return False
        rest ^= 1 << v
        if rest.bit_count() != remaining:
            return False
    terminal, _ = _peel_step(g, rest)
    # a None terminal means the trace stopped while a full vertex was still available
    return terminal is not None and terminal == trace.terminal
