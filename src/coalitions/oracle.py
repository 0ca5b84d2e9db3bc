"""Ground-truth connected-coalition machinery.

A connected coalition is a pair of disjoint vertex sets, neither a connected
dominating set, whose union is one.  A coalition partition is a partition of
V where every part is either a singleton holding a full vertex or a non-CDS
with a non-CDS coalition partner.  CC(G) is the largest number of parts such
a partition can have, or 0 when none exists.

The exact search returns the first maximum-size valid partition in
restricted-growth order of the labels, so witnesses are reproducible.  One
recursion places the vertices of a given order onto a partial partition of
b parts; rest is the mask of the vertices not yet placed.  Beside the bound
b + |rest| <= best, its three cuts rest on the superset fact (mask_is_cds).

- Growth: a non-singleton part that becomes a CDS stays one in every
  completion and can never be legal.
- Partner test: every part p needs a current part q, p itself or a
  non-CDS, with p | q | rest a CDS.  A part p can only end as some p'
  within p | rest.  Its partner q' is a grown current part, so within
  q | rest, or a part still to be opened, so within rest (q = p).  Either
  way p' | q' lies inside p | q | rest, and a subset of a non-CDS is no
  CDS.  A current part that is a CDS is a full-vertex singleton (growth
  forbids larger ones): it never grows and partners no part, and as its
  own q it passes.  At a leaf rest is empty and the test is the validity rule.
- New part: with b <= best parts open, a completion can only beat the
  incumbent by opening a part N within rest.  N is a CDS, and then so is
  rest, or N has a non-CDS partner M with N | M a CDS: M opens later
  (N | M within rest) or grows from a current non-CDS part q (a CDS part
  partners nothing), with N | M within q | rest.  So a node where neither
  rest nor such a q | rest is a CDS is cut: the partner test for an empty
  part, whose reach is rest.  No leaf meets it, as the bound returns there.

All four cuts read only rest and the parts, never the order the placed
vertices came in, so they hold in any vertex order, and each cuts only
branches with no valid partition of more than best parts.  The value is
searched in descending degree order, ties by label, which empties rest of
high-degree vertices, and so stops it being a CDS, sooner than label order
does.  The witness comes from a lex-first walk over the labels: with the
vertices below i fixed, i gets the least restricted-growth choice that
still has a completion of CC parts.  Fixing the least feasible prefix at
every step yields the first maximum partition of the unpruned label-order
enumeration.  The walk keeps W, the last completion of CC parts it found.
W extends the fixed prefix, so W's own choice t for i is feasible: only the
open parts j < t need a search, and when none of them has a completion, t
is the least feasible choice and W stands.
"""

from .domination import PARTITION_GUARD_DEFAULT, cds_table, mask_is_cds, shrink_to_minimal_cds
from .errors import CoalitionExpansionError, PreconditionError
from .graphs import full_vertex_mask, is_connected, require, set_from_mask, subset_mask


def _partition_masks(g, parts):
    """Convert a claimed partition of V(G) to bitmasks, rejecting anything that is not one."""
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


def is_cc_partition(g, parts):
    """Validate a partition of V(G) against the coalition rules.

    Returns (valid, diagnostics).  diagnostics[i] classifies part i as
    "full-singleton" (a one-vertex CDS, legal on its own), "partnered(j)"
    (a non-CDS forming a connected coalition with non-CDS part j, lowest such
    j), "unpartnered", or "illegal-CDS" (a CDS that is not a full-vertex
    singleton; no such part can ever be legal).
    """
    require(g, "is_cc_partition")
    masks = _partition_masks(g, parts)
    cds = [mask_is_cds(g, m) for m in masks]
    fulls = full_vertex_mask(g)
    diagnostics = []
    for i, m in enumerate(masks):
        if cds[i]:
            diagnostics.append("full-singleton" if m & (m - 1) == 0 and m & fulls else "illegal-CDS")
            continue
        # parts are scanned in order, so the first partner found is the lowest
        partner = next((j for j, q in enumerate(masks)
                        if j != i and not cds[j] and mask_is_cds(g, m | q)), None)
        diagnostics.append("unpartnered" if partner is None else f"partnered({partner})")
    valid = "illegal-CDS" not in diagnostics and "unpartnered" not in diagnostics
    return valid, diagnostics


def _place(table, n, blocks, order, best, cap):
    """Complete the partial partition blocks by placing the vertices of order, in that order.

    Returns a valid completion with the most parts if it has more than best,
    else None.  The search stops at the first completion with cap parts, the
    most any can have.  Each call carries rest, the mask of the vertices it
    has still to place, down to its children; blocks is restored on return.
    """
    m = len(order)
    found = None

    def rec(k, blocks, rest):
        nonlocal best, found
        b = len(blocks)
        if b + m - k <= best:
            return
        # new-part test (module docstring): with b <= best a part must still open
        if b <= best and not table[rest]:
            for q in blocks:
                if table[rest | q] and not table[q]:
                    break
            else:
                return
        for p in blocks:
            reach = p | rest
            # partner test (module docstring); at a leaf rest is 0: the validity rule
            for q in blocks:
                if table[reach | q] and (q == p or not table[q]):
                    break
            else:
                return
        if k == m:
            # no partition has more than cap parts, so at cap the bound cuts every node left
            best = b if b < cap else n
            found = blocks.copy()
            return
        bit = 1 << order[k]
        rest ^= bit
        for j in range(b):
            grown = blocks[j] | bit
            # growing a part into a non-singleton CDS dooms every completion
            if not table[grown]:
                blocks[j] = grown
                rec(k + 1, blocks, rest)
                blocks[j] = grown ^ bit
        blocks.append(bit)
        rec(k + 1, blocks, rest)
        blocks.pop()

    rec(0, blocks, sum(1 << v for v in order))
    return found


def cc_partition_search(g, guard=PARTITION_GUARD_DEFAULT):
    """Exact CC(G) by partition search, with no disconnected-graph shortcut.

    This is the raw engine behind cc_number; the harness also runs it
    directly on disconnected graphs to confirm the shortcut they take.
    Returns (cc, witness) where the witness is the first maximum-size valid
    partition in restricted-growth-string order, or (0, None) if no valid
    partition exists.  The all-singleton partition is tried first; then the
    value is found in degree order, and the witness by the lex-first walk of
    the module docstring.
    """
    require(g, "cc search", guard=guard)
    n = g.n
    table = cds_table(g)
    singletons = [1 << v for v in range(n)]
    # the only partition with n parts; its leaf test is the validity rule
    if _place(table, n, singletons, (), 0, n):
        return n, [set_from_mask(p) for p in singletons]
    nbr = g.nbr_masks
    order = sorted(range(n), key=lambda v: -nbr[v].bit_count())
    # with the singletons refused, no partition has more than n - 1 parts
    found = _place(table, n, [1 << order[0]], order[1:], 0, n - 1)
    if found is None:
        return 0, None
    cc = len(found)
    witness = sorted(found, key=lambda p: p & -p)  # W, its parts numbered by lowest label
    for i in range(1, n):
        bit, low = 1 << i, (1 << i) - 1
        if witness[0] & bit:
            continue  # t = 0: W's own choice is the least, and no open part needs a search
        fixed = [p & low for p in witness if p & low]
        t = next(j for j, p in enumerate(witness) if p & bit)
        later = [v for v in order if v > i]
        for j in range(t):
            grown = fixed[j] | bit
            if not table[grown]:
                hit = _place(table, n, fixed[:j] + [grown] + fixed[j + 1:], later, cc - 1, cc)
                if hit:
                    witness = sorted(hit, key=lambda p: p & -p)
                    break
    return cc, [set_from_mask(p) for p in witness]


def cc_number(g, guard=PARTITION_GUARD_DEFAULT):
    """Exact connected coalition number with a deterministic witness.

    Disconnected graphs of order >= 2 return (0, None) without searching:
    they have no connected dominating set at all, so no part can ever find a
    partner and no singleton can be full.  graphs.require refuses the empty
    graph and, before that shortcut, any graph above the guard, whatever its
    shape.
    """
    require(g, "cc_number", guard=guard)
    if g.n >= 2 and not is_connected(g):
        return 0, None
    return cc_partition_search(g, guard)


def _split_minimal(g, core):
    """Split a minimal CDS into its lowest vertex and the rest, a connected coalition.

    A proper nonempty subset of a minimal CDS is never a CDS
    (shrink_to_minimal_cds), and the core has at least two vertices because
    the graph has no full vertex, so this split always works.  It is
    verified anyway, and a failure is loud.
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
    require(g, "expansion", order=2, connected=True, no_full=True)
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

