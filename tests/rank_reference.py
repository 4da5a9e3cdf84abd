"""The bigraph's former normalizer, kept as the differential reference.

:func:`_endpoint_ranks` sorts event tuples of its own and uses endpoints
that are already distinct as they are.  The library now ranks a bigraph
with :func:`intdigraph.intervals.stable_ranks` (through
:func:`intdigraph.domination.bigraph_ranks`); ``test_rank_reference.py``
checks on random inputs that both give the same endpoint order and the
same certificate.
"""


def _endpoint_ranks(a_intervals, b_intervals):
    """Distinct total order on all endpoints, closed semantics preserved.

    Left endpoints precede right endpoints at equal coordinates; among
    tied right endpoints, larger indices come first so that a maximum
    over ranks selects the smallest index.  Already-distinct endpoint
    sets are used as-is.
    """
    vals = []
    for iv in a_intervals:
        vals.append(iv.lo)
        vals.append(iv.hi)
    for iv in b_intervals:
        vals.append(iv.lo)
        vals.append(iv.hi)
    if len(set(vals)) == len(vals):
        a = [(iv.lo, iv.hi) for iv in a_intervals]
        b = [(iv.lo, iv.hi) for iv in b_intervals]
        return a, b
    events = []
    for part, ivs in ((0, a_intervals), (1, b_intervals)):
        for idx, iv in enumerate(ivs):
            events.append((iv.lo, 0, part, idx, "l"))
            events.append((iv.hi, 1, part, -idx, "r"))
    events.sort(key=lambda e: e[:4])
    ranks: dict[tuple, int] = {}
    for rank, (_, _, part, signed_idx, side) in enumerate(events):
        idx = signed_idx if side == "l" else -signed_idx
        ranks[(part, idx, side)] = rank
    a = [(ranks[(0, i, "l")], ranks[(0, i, "r")]) for i in range(len(a_intervals))]
    b = [(ranks[(1, i, "l")], ranks[(1, i, "r")]) for i in range(len(b_intervals))]
    return a, b
