"""Dominating-set predicates and exact gamma_c / d_c computation at desk scale.

The predicates take vertex bitmasks (subset_mask packs a vertex set) and
decide one mask at a time; they remain the validators of witnesses and the
test of the minimal shrink.  The whole-subset CDS table is the package's one
exponential subset scan, and it shares no code with them: it is built
bit-parallel, as one int of 2^n bits, from masks made once per order n, in
sweeps of three big-int operations per vertex, and unpacked per set bit
when sparse.  gamma_c is read off that int size by size; the partition
searches here and in the coalition oracle decide CDS-ness only from its
unpacked table.  The d_c search enumerates set partitions as
restricted-growth strings; both return the first maximum partition in that
order, so witnesses are fixed.
"""

import functools

from .errors import GuardExceededError, PreconditionError
from .graphs import _BIT_BYTES, induced_connected, is_connected, iter_mask, set_from_mask

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
    """True iff the nonempty mask dominates g and induces a connected subgraph.

    The superset fact: any superset of a CDS is again a CDS.  Domination is
    monotone, and an added vertex is dominated, so it attaches to the
    connected core.
    """
    return mask != 0 and mask_is_dominating(g, mask) and induced_connected(g, mask)


@functools.cache
def _order_masks(n):
    """(without, layers) for order n: ints of 2^n bits, bit m for mask m.

    without[v] marks the masks that miss v and layers[k] the masks of k
    vertices; a mask that gains vertex i moves up 2^i bits.  Constants of n:
    at most 21 orders pass the table guard, about 5 MB at n = 20.
    """
    without = [1] * n
    layers = [1]
    for i in range(n):
        step = 1 << i
        for v in range(n):
            if v != i:
                without[v] |= without[v] << step
        layers.append(0)
        for k in range(i + 1, 0, -1):
            layers[k] |= layers[k - 1] << step
    return without, layers


def _cds_bits(g):
    """The int of 2^n bits whose bit m is set iff mask m is a CDS of g (see cds_table)."""
    n = g.n
    if n > _TABLE_LIMIT:
        raise GuardExceededError(f"cds_table supports n <= {_TABLE_LIMIT}, got {n}")
    without, _ = _order_masks(n)
    every = (1 << (1 << n)) - 1
    undominated = 0
    grow = []  # grow[v]: the masks that miss v and hold a neighbor of v
    for v, nbr in enumerate(g.nbr_masks):
        lonely = every  # the masks that hold no neighbor of v
        for u in iter_mask(nbr):
            lonely &= without[u]
        missing = lonely & without[v]  # the masks that miss N[v]
        undominated |= missing
        grow.append(without[v] ^ missing)
    conn = sum(1 << (1 << v) for v in range(n))
    order = list(range(n))
    while True:
        before = conn
        for v in order:
            conn |= (conn & grow[v]) << (1 << v)
        if conn == before:
            break
        order.reverse()
    return conn & ~undominated


def _unpack(bits, n):
    """The int of 2^n bits as a list of 2^n bools, bool m for bit m (cds_table's fill)."""
    digits = format(bits, "b")[::-1]  # digit m is bit m
    if bits.bit_count() * 32 >= 1 << n:
        return memoryview(digits.ljust(1 << n, "0").encode().translate(_BIT_BYTES)).cast("?").tolist()
    table = [False] * (1 << n)
    m = digits.find("1")
    while m >= 0:
        table[m] = True
        m = digits.find("1", m + 1)
    return table


def cds_table(g):
    """Boolean table over all 2^n vertex masks: table[mask] iff the mask is a CDS.

    Bulk precomputation for the partition searches; guarded because the table
    has 2^n entries.  It is built as one int of 2^n bits, bit m for mask m,
    by ANDs, ORs and shifts of such ints:

    - without[v], the masks that miss v, is made once per order n.  The
      masks that hold no neighbor of v are the AND of without[u] over the
      neighbors u of v.  A mask dominates exactly when it misses no closed
      neighborhood N[v].
    - grow[v], the masks that miss v and hold a neighbor of v, is
      without[v] minus the masks that miss N[v].  The connected masks start
      as the n singletons.  A sweep adds v to those in grow[v] for each v in
      turn, conn |= (conn & grow[v]) << 2^v, three big-int operations; the
      direction alternates, and a sweep that adds nothing ends the build.
      A connected set of two or more vertices has a vertex whose removal
      leaves it connected (a leaf of a spanning tree), and that vertex has a
      neighbor in the rest.  So the connected sets are exactly the closure
      of the singletons under adding an adjacent vertex.  After s sweeps
      every connected set of at most s + 1 vertices is in, so sweep n adds
      nothing: at most n sweeps.

    The CDS bits are the connected ones that dominate.  They are unpacked
    into a list of bools, the container the searches index fastest: below
    2^n / 32 CDSs by setting each bit str.find locates, else by translating
    every entry, which costs less from about 1 set bit in 30 (n = 10-16).
    """
    return _unpack(_cds_bits(g), g.n)


def _min_cds(bits, n):
    """(size, mask) of the least CDS of least size: the lowest bit of the first nonzero bits & layers[size]."""
    for size, layer in enumerate(_order_masks(n)[1]):
        found = bits & layer
        if found:
            return size, (found & -found).bit_length() - 1
    raise AssertionError("no connected dominating set")


def gamma_c(g):
    """Minimum size of a connected dominating set, with a deterministic witness.

    Read off the CDS bits that cds_table unpacks, without unpacking them, so
    it shares that table's guard of n <= 20.  Ties break toward the smallest
    member bitmask, so repeated runs return the same witness.
    """
    if g.n < 1:
        raise PreconditionError("gamma_c needs a graph of order >= 1")
    if not is_connected(g):
        raise PreconditionError("gamma_c undefined for disconnected graphs")
    size, mask = _min_cds(_cds_bits(g), g.n)
    return size, set_from_mask(mask)


def connected_domatic_number(g, guard=PARTITION_GUARD_DEFAULT):
    """Maximum number of parts in a partition of V into connected dominating sets.

    Exact search over set partitions in restricted-growth order.  A part can
    end only inside its own vertices plus the unassigned ones, so a branch is
    pruned when for some part that union is no CDS in the table (superset
    fact, mask_is_cds).  It is also pruned when the unassigned vertices
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
    bits = _cds_bits(g)
    table = _unpack(bits, n)
    gc, _ = _min_cds(bits, n)
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

    One ascending pass removes each vertex whose removal leaves a CDS.  By
    the superset fact (mask_is_cds) a vertex that cannot go cannot go later
    either, so no single removal works on the result, and it is minimal in
    the strong sense: no proper subset is a CDS.
    """
    if not mask_is_cds(g, mask):
        raise PreconditionError("shrink_to_minimal_cds needs a connected dominating set")
    for v in iter_mask(mask):
        if mask_is_cds(g, mask ^ (1 << v)):
            mask ^= 1 << v
    return mask
