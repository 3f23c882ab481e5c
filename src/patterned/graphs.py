"""DAGs over the qualifying numbers: chains and prime clusters.

Edges always point from smaller to larger integers, so ascending n is a
topological order; the verifier checks this and treats a failure as an
internal bug rather than a user error. Commands split the primes with
:func:`split_primes`; :func:`patterned_primes` and :func:`gap_primes` are its
two halves as lists, which the acceptance checks read.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .core import check_int, classify_block, prime_array, scan_members
from .errors import InvariantError

KIND_PATTERNED_PRIME_SMALL = "patterned_prime_small"
KIND_PATTERNED_PRIME_DIGIT1 = "patterned_prime_digit1"
KIND_GAP_PRIME = "gap_prime"
KIND_PATTERNED_COMPOSITE = "patterned_composite"

MAX_DAG_LIMIT = 2_000_000  # checked before the scan: 125 bytes per integer, 258 MB at the cap

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


def split_primes(limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """The primes <= limit from one sieve, ascending as int64, and a flag per
    prime marking the qualifying ones. The block classifier decides: a prime
    qualifies when its match mask is nonzero, which by the prime theorem
    (p <= 9 or digit 1 present) ``is_patterned_prime`` states in closed form."""
    primes = prime_array(limit)
    return primes, classify_block(primes)[1] != 0


def patterned_primes(limit: int) -> List[int]:
    """Primes <= limit that qualify (p <= 9 or digit 1 present)."""
    primes, qualifies = split_primes(limit)
    return primes[qualifies].tolist()


def gap_primes(limit: int) -> List[int]:
    """Primes <= limit that do not qualify (> 9 and no digit 1)."""
    primes, qualifies = split_primes(limit)
    return primes[~qualifies].tolist()


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
    check_int(limit, "limit", 2, MAX_DAG_LIMIT)
    members = scan_members(limit=limit).numbers
    primes, qualifies = split_primes(limit)
    pp, gp = primes[qualifies], primes[~qualifies]
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


def verify_acyclic_and_sort(dag: PatternedDag, sort: bool = True) -> Optional[List[int]]:
    """Topological order of the DAG: ascending n, once the nodes are checked
    to ascend strictly and every edge to join two nodes and point forward.
    With ``sort=False`` only the checks run, and None is returned.

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
    return nodes.tolist() if sort else None

