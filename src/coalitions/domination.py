"""Dominating-set predicates and exact gamma_c / d_c computation at desk scale.

The predicates take vertex bitmasks (subset_mask packs a vertex set).  The
whole-subset CDS table built from them is the package's one exponential
subset scan: gamma_c is read off it, and the partition searches here and in
the coalition oracle decide CDS-ness only by looking masks up in it.  Both
searches enumerate set partitions as restricted-growth strings so witnesses
are deterministic.
"""

from .errors import GuardExceededError, PreconditionError
from .graphs import induced_connected, is_connected, iter_mask, set_from_mask

PARTITION_GUARD_DEFAULT = 12
_TABLE_LIMIT = 20


def mask_is_dominating(g, mask):
    """True iff every vertex of g lies in mask or has a neighbor in it."""
    # reads the stored neighbor masks: g.closed_masks would build a fresh n-tuple per call
    nbr = g.nbr_masks
    cover = mask
    for v in iter_mask(mask):
        cover |= nbr[v]
    return cover == g.full_mask


def mask_is_cds(g, mask):
    """True iff the nonempty mask dominates g and induces a connected subgraph."""
    return mask != 0 and mask_is_dominating(g, mask) and induced_connected(g, mask)


def cds_table(g):
    """Boolean table over all 2^n vertex masks: table[mask] iff the mask is a CDS.

    Bulk precomputation for the partition searches; guarded because the table
    has 2^n entries.
    """
    n = g.n
    if n > _TABLE_LIMIT:
        raise GuardExceededError(f"cds_table supports n <= {_TABLE_LIMIT}, got {n}")
    closed = g.closed_masks
    full = g.full_mask
    size = 1 << n
    table = [False] * size
    cover = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        cover[mask] = cover[mask ^ low] | closed[low.bit_length() - 1]
        if cover[mask] == full:
            table[mask] = induced_connected(g, mask)
    return table


def _min_cds(table):
    """(size, mask) of the least mask of least size that the table marks as a CDS."""
    return min((mask.bit_count(), mask) for mask, ok in enumerate(table) if ok)


def gamma_c(g):
    """Minimum size of a connected dominating set, with a deterministic witness.

    Read off cds_table, so it shares that table's guard of n <= 20.  Ties
    break toward the smallest member bitmask, so repeated runs return the
    same witness.
    """
    if g.n < 1:
        raise PreconditionError("gamma_c needs a graph of order >= 1")
    if not is_connected(g):
        raise PreconditionError("gamma_c undefined for disconnected graphs")
    size, mask = _min_cds(cds_table(g))
    return size, set_from_mask(mask)


def connected_domatic_number(g, guard=PARTITION_GUARD_DEFAULT):
    """Maximum number of parts in a partition of V into connected dominating sets.

    Exact search over set partitions in restricted-growth order.  A part can
    end only inside its own vertices plus the unassigned ones, and a superset
    of a CDS is a CDS, so a branch is pruned when for some part that union is
    no CDS in the table.  It is also pruned when the unassigned vertices
    cannot supply enough gamma_c-sized parts to beat the incumbent.  That
    bound counts a deficit: every final part is a CDS of at least gamma_c
    vertices, so each current part that is not yet a CDS must still take
    max(1, gamma_c - |part|) of the unassigned vertices, and only what is
    left over can open new parts.  The bound never exceeds n // gamma_c (each
    of b parts plus what it still needs holds gamma_c vertices or more, so
    b * gamma_c <= i + deficit), so it alone stops the search once the
    incumbent reaches n // gamma_c.  Returns (d_c, witness) where the witness
    is the first maximum partition in enumeration order.
    """
    if g.n < 1:
        raise PreconditionError("connected_domatic_number needs a graph of order >= 1")
    if not is_connected(g):
        raise PreconditionError("connected_domatic_number undefined for disconnected graphs")
    if g.n > guard:
        raise GuardExceededError(
            f"d_c partition search guarded at n <= {guard}, got n={g.n}"
        )
    n = g.n
    table = cds_table(g)
    gc, _ = _min_cds(table)
    full = g.full_mask
    best = 0
    best_parts = None

    def rec(i, blocks):
        nonlocal best, best_parts
        b = len(blocks)
        free = n - i
        rest = full ^ ((1 << i) - 1)
        for blk in blocks:
            if not table[blk]:
                if not table[blk | rest]:
                    return
                free -= max(1, gc - blk.bit_count())
        if free < 0 or b + free // gc <= best:
            return
        if i == n:
            # rest is empty here, so every part is already a CDS
            best = b
            best_parts = [set_from_mask(p) for p in blocks]
            return
        bit = 1 << i
        for j in range(b):
            blocks[j] |= bit
            rec(i + 1, blocks)
            blocks[j] ^= bit
        blocks.append(bit)
        rec(i + 1, blocks)
        blocks.pop()

    rec(1, [1])
    assert best >= 1 and best_parts is not None
    return best, best_parts


def shrink_to_minimal_cds(g, mask):
    """Greedily shrink a connected dominating set mask to a minimal one.

    One ascending pass removes each vertex whose removal leaves a CDS.
    Because supersets of connected dominating sets are again connected
    dominating sets, a vertex that cannot go cannot go later either, so no
    single removal works on the result, and it is minimal in the strong
    sense: no proper subset is a CDS.
    """
    if not mask_is_cds(g, mask):
        raise PreconditionError("shrink_to_minimal_cds needs a connected dominating set")
    for v in iter_mask(mask):
        if mask_is_cds(g, mask ^ (1 << v)):
            mask ^= 1 << v
    return mask
