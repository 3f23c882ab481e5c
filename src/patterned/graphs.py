"""DAGs over the qualifying numbers: chains, prime clusters, gap statistics.

Edges always point from smaller to larger integers, so ascending n is a
topological order; the verifier checks this and treats a failure as an
internal bug rather than a user error.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .core import is_patterned_prime, patterned_sequence, primes_up_to
from .errors import InvariantError

KIND_PATTERNED_PRIME_SMALL = "patterned_prime_small"
KIND_PATTERNED_PRIME_DIGIT1 = "patterned_prime_digit1"
KIND_GAP_PRIME = "gap_prime"
KIND_PATTERNED_COMPOSITE = "patterned_composite"

# Node kinds by code: PatternedDag.kinds indexes this tuple.
KINDS = (
    KIND_PATTERNED_COMPOSITE,
    KIND_PATTERNED_PRIME_SMALL,
    KIND_PATTERNED_PRIME_DIGIT1,
    KIND_GAP_PRIME,
)


@dataclass(frozen=True, eq=False)
class PatternedDag:
    """Vertex-labeled DAG as sorted arrays; chain and cluster edges are kept
    apart so their counts can be checked independently."""

    nodes: np.ndarray          # int64, ascending
    kinds: np.ndarray          # uint8 per node, indexing KINDS
    chain_edges: np.ndarray    # int64 (m, 2) rows (u, v)
    cluster_edges: np.ndarray  # int64 (m, 2) rows (u, v)

    @cached_property
    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated union of both edge kinds, ascending, and a flag per
        edge marking the cluster edges; an edge of both kinds is a cluster edge."""
        both = np.concatenate((self.chain_edges, self.cluster_edges))
        cluster = np.arange(len(both)) >= len(self.chain_edges)
        order = np.lexsort((both[:, 1], both[:, 0]))  # stable: cluster after chain twin
        both, cluster = both[order], cluster[order]
        last = np.ones(len(both), dtype=bool)  # the last of each run of equal edges
        last[:-1] = (both[1:] != both[:-1]).any(axis=1)
        return both[last], cluster[last]


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


def _path_edges(ns: np.ndarray) -> np.ndarray:
    """Edges joining consecutive entries of an ascending array, as (m, 2)."""
    return np.stack((ns[:-1], ns[1:]), axis=1)


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
    members = np.array(patterned_sequence(limit), dtype=np.int64)
    pp, gp = (np.array(ps, dtype=np.int64) for ps in partition_primes(limit))
    nodes = np.sort(np.concatenate((members, gp))) if include_gap_primes else members
    kinds = np.zeros(len(nodes), dtype=np.uint8)  # KIND_PATTERNED_COMPOSITE
    kinds[np.searchsorted(nodes, pp)] = 1 + (pp > 9)  # KIND_PATTERNED_PRIME_SMALL or _DIGIT1
    if include_gap_primes:
        kinds[np.searchsorted(nodes, gp)] = 3  # KIND_GAP_PRIME
    return PatternedDag(
        nodes=nodes,
        kinds=kinds,
        chain_edges=_path_edges(members if include_chain else members[:0]),
        cluster_edges=_path_edges(pp if include_prime_cluster else pp[:0]),
    )


def verify_acyclic_and_sort(dag: PatternedDag) -> List[int]:
    """Topological order of the DAG: ascending n, once the nodes are checked
    to ascend strictly and every edge to join two nodes and point forward.

    Generated graphs can never fail these checks; a failure means the
    construction is broken, so it is an InvariantError, not a ValueError.
    """
    nodes = dag.nodes
    if np.any(nodes[1:] <= nodes[:-1]):
        raise InvariantError("nodes are not strictly ascending")
    edges, _ = dag.edges
    at = np.minimum(np.searchsorted(nodes, edges), len(nodes) - 1)
    missing = (nodes[at] != edges).any(axis=1) if len(nodes) else np.ones(len(edges), bool)
    bad = missing | (edges[:, 0] >= edges[:, 1])
    if bad.any():
        first = int(np.argmax(bad))
        u, v = edges[first].tolist()
        problem = "references a missing node" if missing[first] else "does not point forward"
        raise InvariantError(f"edge ({u}, {v}) {problem}")
    return nodes.tolist()


def gap_statistics(limit: int) -> List[Tuple[int, int]]:
    """Maximal runs of consecutive non-qualifying integers <= limit.

    Returns (first integer of the run, run length) pairs. Runs are clipped
    at the limit.
    """
    bounds = [0] + patterned_sequence(limit) + [limit + 1]
    return [(a + 1, b - a - 1) for a, b in zip(bounds, bounds[1:]) if b - a > 1]
