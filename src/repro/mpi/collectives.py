"""Collective algorithms over simulated point-to-point messages.

Implementing the standard algorithms — rather than charging an analytic
collective cost — is what gives SMM noise its real propagation paths: a
frozen node delays exactly the tree edges / exchange rounds that touch
it, later rounds absorb or amplify the delay, and the collective's
completion becomes the max over staggered per-node noise (the mechanism
behind the paper's growth-with-scale results, Tables 1–3).

Algorithms (the classic MPICH choices for these sizes):

============  =========================================== ==============
collective    algorithm                                    rounds
============  =========================================== ==============
barrier       dissemination                                ⌈log₂ p⌉
bcast         binomial tree                                ⌈log₂ p⌉
reduce        binomial tree (leaves→root)                  ⌈log₂ p⌉
allreduce     recursive doubling (p = 2ᵏ), else
              reduce + bcast                               log₂ p
alltoall      pairwise exchange (XOR when p = 2ᵏ)          p − 1
============  =========================================== ==============

All functions are generators taking the calling :class:`Rank`; SPMD code
must invoke the same collectives in the same order on every rank (tags
are derived from a per-rank call counter, as noted in comm.py).

Payload semantics are *real*: ``reduce``/``allreduce`` apply ``op``
(default: ``+``) to the actual values, ``bcast`` returns the root's
value, ``alltoall`` returns the gathered list — so the unit
tests can verify algorithmic correctness, not just timing.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.mpi.comm import Rank

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "alltoall",
]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def barrier(rk: Rank) -> Generator:
    """Dissemination barrier: in round k, send to (rank + 2^k) mod p and
    wait for (rank − 2^k) mod p.  ⌈log₂ p⌉ rounds; no root."""
    p = rk.size
    if p == 1:
        return
    tag = rk._next_coll_tag()
    k = 1
    while k < p:
        dst = (rk.rank + k) % p
        src = (rk.rank - k) % p
        yield from rk.send(dst, 4, None, tag)
        yield from rk.recv(src, tag)
        k <<= 1


def bcast(rk: Rank, value: Any = None, root: int = 0, nbytes: int = 8) -> Generator:
    """Binomial-tree broadcast; every rank returns the root's value."""
    p = rk.size
    if p == 1:
        return value
    tag = rk._next_coll_tag()
    vrank = (rk.rank - root) % p  # virtual rank with root at 0
    # Find the round in which this rank receives (highest set bit of vrank).
    if vrank != 0:
        recv_mask = 1
        while recv_mask * 2 <= vrank:
            recv_mask *= 2
        src = ((vrank - recv_mask) + root) % p
        msg = yield from rk.recv(src, tag)
        value = msg.payload
        mask = recv_mask * 2
    else:
        mask = 1
    while mask < p:
        if vrank + mask < p:
            dst = ((vrank + mask) + root) % p
            yield from rk.send(dst, nbytes, value, tag)
        mask *= 2
    return value


def reduce(
    rk: Rank,
    value: Any,
    root: int = 0,
    nbytes: int = 8,
    op: Optional[Callable[[Any, Any], Any]] = None,
) -> Generator:
    """Binomial-tree reduction; the root returns the combined value,
    other ranks return None."""
    p = rk.size
    if op is None:
        op = lambda a, b: a + b  # noqa: E731
    if p == 1:
        return value
    tag = rk._next_coll_tag()
    vrank = (rk.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vrank & mask:
            dst = ((vrank & ~mask) + root) % p
            yield from rk.send(dst, nbytes, acc, tag)
            break
        partner = vrank | mask
        if partner < p:
            msg = yield from rk.recv(((partner) + root) % p, tag)
            acc = op(acc, msg.payload)
        mask <<= 1
    return acc if rk.rank == root else None


def allreduce(
    rk: Rank,
    value: Any,
    nbytes: int = 8,
    op: Optional[Callable[[Any, Any], Any]] = None,
) -> Generator:
    """Recursive doubling when p is a power of two; reduce+bcast otherwise."""
    p = rk.size
    if op is None:
        op = lambda a, b: a + b  # noqa: E731
    if p == 1:
        return value
    if _is_pow2(p):
        tag = rk._next_coll_tag()
        acc = value
        mask = 1
        while mask < p:
            partner = rk.rank ^ mask
            msg = yield from rk.sendrecv(
                partner, nbytes, acc, src=partner, send_tag=tag, recv_tag=tag
            )
            # Deterministic combine order: lower rank's value first.
            if partner < rk.rank:
                acc = op(msg.payload, acc)
            else:
                acc = op(acc, msg.payload)
            mask <<= 1
        return acc
    acc = yield from reduce(rk, value, 0, nbytes, op)
    acc = yield from bcast(rk, acc, 0, nbytes)
    return acc


def alltoall(
    rk: Rank, per_pair_nbytes: int, values: Optional[List[Any]] = None
) -> Generator:
    """Pairwise-exchange all-to-all.

    ``per_pair_nbytes`` is the block each rank sends to each other rank
    (FT's transpose sends ``total_bytes / p²`` per pair).  With p a power
    of two, round r exchanges with ``rank XOR r`` (perfectly matched
    pairs); otherwise a shifted ring send/recv schedule is used.
    Returns the list of received payloads (index = source rank).
    """
    p = rk.size
    if values is not None and len(values) != p:
        raise ValueError("values must have one entry per rank")
    out: List[Any] = [None] * p
    out[rk.rank] = values[rk.rank] if values is not None else None
    if p == 1:
        return out
    tag = rk._next_coll_tag()
    if _is_pow2(p):
        for r in range(1, p):
            partner = rk.rank ^ r
            payload = values[partner] if values is not None else None
            msg = yield from rk.sendrecv(
                partner, per_pair_nbytes, payload,
                src=partner, send_tag=tag, recv_tag=tag,
            )
            out[partner] = msg.payload
    else:
        for r in range(1, p):
            dst = (rk.rank + r) % p
            src = (rk.rank - r) % p
            payload = values[dst] if values is not None else None
            req = rk.irecv(src, tag)
            yield from rk.send(dst, per_pair_nbytes, payload, tag)
            msg = yield from rk.wait(req)
            out[src] = msg.payload
    return out
