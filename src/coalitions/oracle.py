"""Ground-truth connected-coalition machinery.

A connected coalition is a pair of disjoint vertex sets, neither a connected
dominating set, whose union is one.  A coalition partition is a partition of
V where every part is either a singleton holding a full vertex or a non-CDS
with a non-CDS coalition partner.  CC(G) is the largest number of parts such
a partition can have, or 0 when none exists.

The exact search enumerates set partitions as restricted-growth strings and
returns the first maximum-size valid partition in that order, so witnesses
are reproducible.  Its two structural prunes rest on a small fact used
throughout this module: any superset of a connected dominating set is again
a connected dominating set (domination is monotone, and an added vertex is
dominated, so it attaches to the connected core).

- Growth: a non-singleton part that becomes a CDS stays one in every
  completion and can never be legal.
- Partner feasibility: with the vertices below i placed and rest the mask
  of those not yet placed, a part p can only end as some p' within p | rest.
  Its partner q' is either a grown current part, so within q | rest, or a
  part still to be opened, so within rest.  Either way p' | q' lies inside
  p | q | rest for some current part q (q = p covers the second case), and
  a subset of a non-CDS is no CDS.  So when no such mask is a CDS, p finds
  no partner in any completion and the branch is cut.  A full-vertex
  singleton is exempt without a test: it is a CDS, so p | rest is one too.

Both prunes cut only branches holding no valid partition, so the first
maximum partition in restricted-growth order is the one the unpruned
enumeration finds.
"""

from .domination import PARTITION_GUARD_DEFAULT, cds_table, mask_is_cds, shrink_to_minimal_cds
from .errors import CoalitionExpansionError, GuardExceededError, PreconditionError
from .graphs import (
    Graph,
    full_vertex_mask,
    is_connected,
    set_from_mask,
    subset_mask,
)


def _partition_masks(g, parts):
    """Convert a claimed partition of V(G) to bitmasks, rejecting anything that is not one."""
    if g.n < 1:
        raise PreconditionError("partitions are only defined for graphs of order >= 1")
    masks = []
    union = 0
    for idx, part in enumerate(parts):
        m = subset_mask(g, part, f"part {idx}")
        if m == 0:
            raise PreconditionError(f"part {idx} is empty")
        if m & union:
            raise PreconditionError(f"part {idx} overlaps an earlier part")
        union |= m
        masks.append(m)
    if union != g.full_mask:
        missing = sorted(set_from_mask(g.full_mask ^ union))
        raise PreconditionError(f"partition misses vertices {missing}")
    return masks


def _diagnose(g, parts):
    """is_cc_partition's (valid, diagnostics), plus every coalition pair (i, j), i < j, ascending."""
    masks = _partition_masks(g, parts)
    k = len(masks)
    cds = [mask_is_cds(g, m) for m in masks]
    pairs = [(i, j) for i in range(k) if not cds[i] for j in range(i + 1, k)
             if not cds[j] and mask_is_cds(g, masks[i] | masks[j])]
    partner = {}
    for i, j in pairs:
        # a part's pairs with lower parts come first, so the first one seen is its lowest partner
        partner.setdefault(i, j)
        partner.setdefault(j, i)
    fulls = full_vertex_mask(g)
    diagnostics = []
    for i, m in enumerate(masks):
        if cds[i]:
            diagnostics.append("full-singleton" if m & (m - 1) == 0 and m & fulls else "illegal-CDS")
        elif i in partner:
            diagnostics.append(f"partnered({partner[i]})")
        else:
            diagnostics.append("unpartnered")
    valid = "illegal-CDS" not in diagnostics and "unpartnered" not in diagnostics
    return valid, diagnostics, pairs


def is_cc_partition(g, parts):
    """Validate a partition of V(G) against the coalition rules.

    Returns (valid, diagnostics).  diagnostics[i] classifies part i as
    "full-singleton" (a one-vertex CDS, legal on its own), "partnered(j)"
    (a non-CDS forming a connected coalition with non-CDS part j, lowest such
    j), "unpartnered", or "illegal-CDS" (a CDS that is not a full-vertex
    singleton; no such part can ever be legal).
    """
    valid, diagnostics, _ = _diagnose(g, parts)
    return valid, diagnostics


def cc_partition_search(g, guard=PARTITION_GUARD_DEFAULT):
    """Exact CC(G) by partition search, with no disconnected-graph shortcut.

    This is the raw engine behind cc_number; the harness also runs it
    directly on disconnected graphs to confirm the shortcut they take.
    Returns (cc, witness) where the witness is the first maximum-size valid
    partition in restricted-growth-string order, or (0, None) if no valid
    partition exists.
    """
    n = g.n
    if n < 1:
        raise PreconditionError("cc search needs a graph of order >= 1")
    if n > guard:
        raise GuardExceededError(f"cc partition search guarded at n <= {guard}, got n={n}")
    table = cds_table(g)
    fulls = full_vertex_mask(g)
    full = g.full_mask

    def leaf_valid(blocks):
        if fulls:
            cands = [p for p in blocks if p & (p - 1) or not (p & fulls)]
        else:
            cands = blocks
        # every candidate part is a non-CDS here; each needs a partner
        for p in cands:
            for q in cands:
                if q != p and table[p | q]:
                    break
            else:
                return False
        return True

    # The all-singleton partition is the unique one with n parts; if it is
    # valid the answer is n and nothing larger exists.
    if leaf_valid([1 << v for v in range(n)]):
        return n, [frozenset((v,)) for v in range(n)]

    best = 0
    best_blocks = None

    def rec(i, blocks):
        nonlocal best, best_blocks
        b = len(blocks)
        if b + n - i <= best:
            return
        if i == n:
            if leaf_valid(blocks):
                best = b
                best_blocks = blocks.copy()
            return
        rest = full ^ ((1 << i) - 1)
        for p in blocks:
            reach = p | rest
            # partner feasibility (module docstring); q = p tests p | rest itself
            for q in blocks:
                if table[reach | q]:
                    break
            else:
                return
        bit = 1 << i
        for j in range(b):
            grown = blocks[j] | bit
            # growing a part into a non-singleton CDS dooms every completion
            if not table[grown]:
                blocks[j] = grown
                rec(i + 1, blocks)
                blocks[j] = grown ^ bit
        blocks.append(bit)
        rec(i + 1, blocks)
        blocks.pop()

    rec(1, [1])
    if best == 0:
        return 0, None
    return best, [set_from_mask(p) for p in best_blocks]


def cc_number(g, guard=PARTITION_GUARD_DEFAULT):
    """Exact connected coalition number with a deterministic witness.

    Disconnected graphs of order >= 2 return (0, None) without searching:
    they have no connected dominating set at all, so no part can ever find a
    partner and no singleton can be full.
    """
    if g.n < 1:
        raise PreconditionError("cc_number needs a graph of order >= 1")
    # before the disconnected shortcut, so an oversized input is refused whatever its shape
    if g.n > guard:
        raise GuardExceededError(f"cc partition search guarded at n <= {guard}, got n={g.n}")
    if g.n >= 2 and not is_connected(g):
        return 0, None
    return cc_partition_search(g, guard)


def _split_minimal(g, core):
    """Split a minimal CDS into its lowest vertex and the rest, a connected coalition.

    A proper nonempty subset of a minimal CDS is never a CDS (otherwise the
    superset fact above would contradict minimality), and the core has at
    least two vertices because the graph has no full vertex, so this split
    always works.  It is verified anyway, and a failure is loud.
    """
    a = core & -core
    b = core ^ a
    if not b or mask_is_cds(g, a) or mask_is_cds(g, b):
        raise CoalitionExpansionError(
            "a minimal connected dominating set admitted no coalition split"
        )
    return a, b


def _expand_masks(g, masks):
    """Coalition partition masks with at least two parts per CDS mask of the domatic partition.

    Each class but the last shrinks to a minimal core and splits in two; its
    surplus joins the last class, whose own minimal core splits in two.  What
    is left of the last class (rest) becomes a domatic class of its own if it
    is a CDS, a part of its own if some half partners it, and otherwise joins
    the second half of the last core.
    """
    cores = []
    tail = masks[-1]
    for d in masks[:-1]:
        c = shrink_to_minimal_cds(g, d)
        cores.append(c)
        # surplus joins the last class, which stays a CDS (superset fact)
        tail |= d ^ c
    tail_core = shrink_to_minimal_cds(g, tail)
    rest = tail ^ tail_core
    if rest and mask_is_cds(g, rest):
        # Only possible when the input partition was not maximum: its last
        # class contained two disjoint CDSs.  Expand the finer partition.
        return _expand_masks(g, cores + [tail_core, rest])
    out = []
    for c in cores:
        out += _split_minimal(g, c)
    a, b = _split_minimal(g, tail_core)
    if not rest:
        return out + [a, b]
    # rest is nonempty and not a CDS: give it its own seat if some existing half partners it
    for p in out + [a, b]:
        if mask_is_cds(g, p | rest):
            return out + [a, b, rest]
    # a is no CDS, b | rest is none (the loop tried p = b), and their union
    # is tail, a superset of tail_core, so they form a coalition
    return out + [a, b | rest]


def expand_domatic_to_cc_partition(g, parts):
    """Grow a connected domatic partition into a valid coalition partition.

    Constructive route to CC(G) >= 2 d_c(G) for connected graphs without a
    full vertex: every class but the last shrinks to a minimal CDS (surplus
    joins the last class), each minimal class splits into two coalition
    halves, and the last class is handled by cases on what surrounds its own
    minimal core.  The result is validated with is_cc_partition and has at
    least twice as many parts as the input; any failure raises
    CoalitionExpansionError rather than returning a bad partition.
    """
    if g.n <= 1:
        raise PreconditionError("expansion needs a graph of order > 1")
    if not is_connected(g):
        raise PreconditionError("expansion needs a connected graph")
    fulls = full_vertex_mask(g)
    if fulls:
        raise PreconditionError(
            f"expansion requires a graph with no full vertex; {sorted(set_from_mask(fulls))} are full"
        )
    masks = _partition_masks(g, parts)
    for i, m in enumerate(masks):
        if not mask_is_cds(g, m):
            raise PreconditionError(
                f"part {i} of the claimed domatic partition is not a connected dominating set"
            )
    out = _expand_masks(g, masks)
    result = [set_from_mask(m) for m in out]
    valid, diagnostics = is_cc_partition(g, result)
    if not valid:
        raise CoalitionExpansionError(
            f"expansion produced an invalid partition (diagnostics: {diagnostics})"
        )
    if len(result) < 2 * len(masks):
        raise CoalitionExpansionError(
            f"expansion produced {len(result)} parts from {len(masks)} classes, fewer than the promised doubling"
        )
    return result


def coalition_graph(g, parts):
    """Graph on the parts of a valid coalition partition, with edges at coalition pairs.

    Vertex i stands for part i.  Full-vertex singleton parts are CDSs, so
    they can never belong to a coalition pair and end up isolated.
    """
    valid, diagnostics, pairs = _diagnose(g, parts)
    if not valid:
        raise PreconditionError(
            f"not a valid coalition partition (diagnostics: {diagnostics})"
        )
    return Graph(len(parts), pairs)
