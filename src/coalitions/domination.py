"""Dominating-set predicates and exact gamma_c / d_c computation at desk scale.

The predicates take vertex bitmasks (subset_mask packs a vertex set) and
decide one mask at a time; they remain the validators of witnesses and the
test of the minimal shrink.  The whole-subset CDS table is the package's one
exponential subset scan, and it shares no code with them: cds_table builds
it bit-parallel, as one int of 2^n bits updated by a few shifts and masks
per vertex.  gamma_c is read off the table, and the partition searches here
and in the coalition oracle decide CDS-ness only by looking masks up in it.
Both searches enumerate set partitions as restricted-growth strings so
witnesses are deterministic.
"""

import itertools

from .errors import GuardExceededError, PreconditionError
from .graphs import induced_connected, is_connected, iter_mask, set_from_mask

PARTITION_GUARD_DEFAULT = 12
_TABLE_LIMIT = 20
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # the digits of a bit string as bool bytes


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
    has 2^n entries.  It is built as one int of 2^n bits, bit m for mask m,
    by a few shifts, ANDs and ORs of such ints per vertex:

    - avoiding(S), the masks that miss S, comes from z = 1 by doubling,
      z |= z << 2^i for each vertex i outside S.  A mask dominates exactly
      when it misses no closed neighborhood N[v].
    - The connected masks start as the n singletons.  A sweep adds vertex v
      to every connected mask that misses v and holds a neighbor of v, for
      each v in turn; the direction alternates, and a sweep that adds
      nothing ends the build.  A connected set of two or more vertices has a
      vertex whose removal leaves it connected (a leaf of a spanning tree),
      and that vertex has a neighbor in the rest.  So the connected sets are
      exactly the closure of the singletons under adding an adjacent vertex.
      After s sweeps every connected set of at most s + 1 vertices is in,
      so sweep n adds nothing: at most n sweeps.

    The CDS bits are the connected ones that dominate.  They are unpacked
    into a list of bools, the container the searches index fastest.
    """
    n = g.n
    if n > _TABLE_LIMIT:
        raise GuardExceededError(f"cds_table supports n <= {_TABLE_LIMIT}, got {n}")

    def avoiding(s):
        z = 1
        for i in range(n):
            if not s >> i & 1:
                z |= z << (1 << i)
        return z

    without = [avoiding(1 << v) for v in range(n)]  # the masks that miss v
    undominated = 0
    grow = []  # grow[v]: the masks that hold v and a neighbor of v
    for v, nbr in enumerate(g.nbr_masks):
        lonely = avoiding(nbr)  # the masks that hold no neighbor of v
        undominated |= lonely & without[v]  # the masks that miss N[v]
        grow.append(without[v] << (1 << v) & ~lonely)
    conn = sum(1 << (1 << v) for v in range(n))
    order = list(range(n))
    while True:
        before = conn
        for v in order:
            conn |= (conn & without[v]) << (1 << v) & grow[v]
        if conn == before:
            break
        order.reverse()
    bits = format(conn & ~undominated, "b").zfill(1 << n)[::-1].encode().translate(_BIT_BYTES)
    return memoryview(bits).cast("?").tolist()


def _min_cds(table):
    """(size, mask) of the least mask of least size that the table marks as a CDS."""
    # masks come in ascending order and min keeps the first of equal keys
    mask = min(itertools.compress(range(len(table)), table), key=int.bit_count)
    return mask.bit_count(), mask


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
