"""DAGs over the qualifying numbers: chains, prime clusters, gap statistics.

Edges always point from smaller to larger integers, so every generated graph
is acyclic by construction; the topological-sort verifier treats any cycle as
an internal bug rather than a user error.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from .core import is_patterned_prime, patterned_sequence, primes_up_to
from .errors import InvariantError

KIND_PATTERNED_PRIME_SMALL = "patterned_prime_small"
KIND_PATTERNED_PRIME_DIGIT1 = "patterned_prime_digit1"
KIND_GAP_PRIME = "gap_prime"
KIND_PATTERNED_COMPOSITE = "patterned_composite"


@dataclass(frozen=True)
class NodeLabel:
    n: int
    kind: str


@dataclass(frozen=True)
class PatternedDag:
    """Vertex-labeled DAG; chain and cluster edges are kept apart so their
    counts can be checked independently."""

    nodes: Tuple[NodeLabel, ...]
    chain_edges: Tuple[Tuple[int, int], ...]
    cluster_edges: Tuple[Tuple[int, int], ...]

    @cached_property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Deduplicated union of both edge kinds, ascending."""
        return tuple(sorted(set(self.chain_edges) | set(self.cluster_edges)))


def partition_primes(limit: int) -> Tuple[List[int], List[int]]:
    """Primes <= limit from one sieve, split into the qualifying ones
    (p <= 9 or digit 1 present) and the gap primes (> 9 and no digit 1)."""
    patterned, gap = [], []
    for p in primes_up_to(limit):
        (patterned if is_patterned_prime(p, assume_prime=True) else gap).append(p)
    return patterned, gap


def patterned_primes(limit: int) -> List[int]:
    """Primes <= limit that qualify (p <= 9 or digit 1 present)."""
    return partition_primes(limit)[0]


def gap_primes(limit: int) -> List[int]:
    """Primes <= limit that do not qualify (> 9 and no digit 1)."""
    return partition_primes(limit)[1]


def build_dag(
    limit: int,
    include_chain: bool = True,
    include_prime_cluster: bool = True,
    include_gap_primes: bool = False,
) -> PatternedDag:
    """DAG over the qualifying numbers <= limit.

    Chain edges join consecutive qualifying numbers; cluster edges join
    consecutive qualifying primes. Gap primes can be added as isolated
    labeled nodes for context; they never carry edges.
    """
    if not isinstance(limit, int) or limit < 2:
        raise ValueError(f"limit must be an integer >= 2, got {limit!r}")
    members = patterned_sequence(limit)
    pp, gp = partition_primes(limit)
    kinds = dict.fromkeys(members, KIND_PATTERNED_COMPOSITE)
    for p in pp:
        kinds[p] = KIND_PATTERNED_PRIME_SMALL if p <= 9 else KIND_PATTERNED_PRIME_DIGIT1
    if include_gap_primes:
        kinds.update(dict.fromkeys(gp, KIND_GAP_PRIME))
    nodes = tuple(NodeLabel(n, kinds[n]) for n in sorted(kinds))
    chain = tuple(zip(members, members[1:])) if include_chain else ()
    cluster = tuple(zip(pp, pp[1:])) if include_prime_cluster else ()
    return PatternedDag(nodes=nodes, chain_edges=chain, cluster_edges=cluster)


def verify_acyclic_and_sort(dag: PatternedDag) -> List[int]:
    """Topological order of the DAG (ascending n, which is always valid).

    Generated graphs can never contain a cycle or a descending edge; hitting
    either here means the construction is broken, so the failure is an
    InvariantError rather than a ValueError.
    """
    ns = [label.n for label in dag.nodes]
    known = set(ns)
    edges = dag.edges
    for u, v in edges:
        if u not in known or v not in known:
            raise InvariantError(f"edge ({u}, {v}) references a missing node")
        if u >= v:
            raise InvariantError(f"edge ({u}, {v}) does not point forward")
    indegree = {n: 0 for n in ns}
    out = {n: [] for n in ns}
    for u, v in edges:
        indegree[v] += 1
        out[u].append(v)
    ready = [n for n in ns if indegree[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for v in out[n]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != len(ns):
        raise InvariantError("cycle detected in a generated DAG")
    return order


def gap_statistics(limit: int) -> List[Tuple[int, int]]:
    """Maximal runs of consecutive non-qualifying integers <= limit.

    Returns (first integer of the run, run length) pairs. Runs are clipped
    at the limit.
    """
    bounds = [0] + patterned_sequence(limit) + [limit + 1]
    return [(a + 1, b - a - 1) for a, b in zip(bounds, bounds[1:]) if b - a > 1]
