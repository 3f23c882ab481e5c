"""DAG construction, prime split and topological sorting tests."""

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patterned import graphs
from patterned.core import (
    BLOCK_MAX,
    count_patterned,
    is_patterned_divisor_first,
    is_patterned_prime,
    is_prime,
    patterned_sequence,
    prime_array,
    primes_up_to,
)
from patterned.errors import InvariantError, ResourceLimitError
from patterned.graphs import (
    KIND_GAP_PRIME,
    KIND_PATTERNED_COMPOSITE,
    KIND_PATTERNED_PRIME_DIGIT1,
    KIND_PATTERNED_PRIME_SMALL,
    KINDS,
    PatternedDag,
    build_dag,
    gap_primes,
    patterned_primes,
    split_primes,
    verify_acyclic_and_sort,
)
from patterned.serialize import dag_dot
from test_serialize import assert_same_lines

PATTERNED_PRIMES_100 = [2, 3, 5, 7, 11, 13, 17, 19, 31, 41, 61, 71]
GAP_PRIMES_100 = [23, 29, 37, 43, 47, 53, 59, 67, 73, 79, 83, 89, 97]

# Stands for "not a node": a number that does not qualify and is not a gap
# prime is absent from every DAG.
ABSENT = "unpatterned"


def node_kinds(limit):
    dag = build_dag(limit, include_gap_primes=True)
    return dict(zip(dag.nodes.tolist(), (KINDS[k] for k in dag.kinds.tolist())))


def edge_list(edges):
    return [tuple(edge) for edge in edges.tolist()]


def hand_made_dag(nodes, chain_edges):
    """A DAG built by hand, every node a composite, with no cluster edges."""
    return PatternedDag(
        nodes=np.array(nodes, dtype=np.int64),
        kinds=np.zeros(len(nodes), dtype=np.uint8),
        chain_edges=np.array(chain_edges, dtype=np.int64).reshape(-1, 2),
        cluster_edges=np.empty((0, 2), dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Oracle: the DAG as a general graph, one label object per node, the edge
# union as a set of tuples and a heap-based Kahn topological sort, with the
# DOT writer that went with it.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleLabel:
    n: int
    kind: str


@dataclass(frozen=True)
class OracleDag:
    nodes: Tuple[OracleLabel, ...]
    chain_edges: Tuple[Tuple[int, int], ...]
    cluster_edges: Tuple[Tuple[int, int], ...]

    @cached_property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(set(self.chain_edges) | set(self.cluster_edges)))


def oracle_build_dag(limit, include_chain=True, include_prime_cluster=True,
                     include_gap_primes=False) -> OracleDag:
    members = patterned_sequence(limit)
    pp, gp = patterned_primes(limit), gap_primes(limit)
    kinds = dict.fromkeys(members, KIND_PATTERNED_COMPOSITE)
    for p in pp:
        kinds[p] = KIND_PATTERNED_PRIME_SMALL if p <= 9 else KIND_PATTERNED_PRIME_DIGIT1
    if include_gap_primes:
        kinds.update(dict.fromkeys(gp, KIND_GAP_PRIME))
    nodes = tuple(OracleLabel(n, kinds[n]) for n in sorted(kinds))
    chain = tuple(zip(members, members[1:])) if include_chain else ()
    cluster = tuple(zip(pp, pp[1:])) if include_prime_cluster else ()
    return OracleDag(nodes=nodes, chain_edges=chain, cluster_edges=cluster)


def oracle_sort(dag: OracleDag) -> List[int]:
    ns = [label.n for label in dag.nodes]
    known = set(ns)
    for u, v in dag.edges:
        if u not in known or v not in known:
            raise InvariantError(f"edge ({u}, {v}) references a missing node")
        if u >= v:
            raise InvariantError(f"edge ({u}, {v}) does not point forward")
    indegree = {n: 0 for n in ns}
    out = {n: [] for n in ns}
    for u, v in dag.edges:
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


ORACLE_NODE_ATTRS = {
    KIND_PATTERNED_PRIME_SMALL: 'shape=circle',
    KIND_PATTERNED_PRIME_DIGIT1: 'shape=circle, style=filled, fillcolor=lightblue',
    KIND_GAP_PRIME: 'shape=box, style=dashed',
    KIND_PATTERNED_COMPOSITE: 'shape=ellipse',
}


def oracle_dot(dag: OracleDag) -> str:
    lines = ["digraph patterned {", "  rankdir=LR;"]
    for label in dag.nodes:
        lines.append(f"  {label.n} [{ORACLE_NODE_ATTRS[label.kind]}];")
    cluster = set(dag.cluster_edges)
    for u, v in dag.edges:
        attr = " [color=steelblue]" if (u, v) in cluster else ""
        lines.append(f"  {u} -> {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


FLAG_SETS = list(itertools.product((False, True), repeat=3))


def assert_matches_oracle(limit, flags):
    dag, oracle = build_dag(limit, *flags), oracle_build_dag(limit, *flags)
    assert_same_lines("".join(dag_dot(dag)), oracle_dot(oracle))
    assert verify_acyclic_and_sort(dag) == oracle_sort(oracle)


class TestAgainstOracle:
    @pytest.mark.parametrize("flags", FLAG_SETS)
    @pytest.mark.parametrize(
        "limit", [2, 3, 19, 1023, 1024, 1025, 1026, 5119, 5120, 5121, 15000]
    )
    def test_dot_and_order_match(self, limit, flags):
        assert_matches_oracle(limit, flags)

    @pytest.mark.parametrize("flags", FLAG_SETS)
    @pytest.mark.parametrize("nodes", [BLOCK_MAX - 1, BLOCK_MAX, BLOCK_MAX + 1])
    def test_dot_at_node_block_edges(self, nodes, flags):
        """The DOT is written a block of BLOCK_MAX node lines at a time; the
        limits are the qualifying numbers, with the gap primes if drawn, that
        make the nodes one short of a block, one block and one past it."""
        limit = {False: 18805, True: 18139}[flags[2]] + nodes - BLOCK_MAX
        assert count_patterned(limit) + flags[2] * len(gap_primes(limit)) == nodes
        assert_matches_oracle(limit, flags)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=20000), st.sampled_from(FLAG_SETS))
    def test_dot_and_order_match_any_limit(self, limit, flags):
        assert_matches_oracle(limit, flags)


class TestClassify:
    """Node kinds, which build_dag takes from the sieve and the member list."""

    @pytest.mark.parametrize(
        "n,kind",
        [
            (7, KIND_PATTERNED_PRIME_SMALL),
            (2, KIND_PATTERNED_PRIME_SMALL),
            (11, KIND_PATTERNED_PRIME_DIGIT1),
            (31, KIND_PATTERNED_PRIME_DIGIT1),
            (23, KIND_GAP_PRIME),
            (97, KIND_GAP_PRIME),
            (1, KIND_PATTERNED_COMPOSITE),
            (12, KIND_PATTERNED_COMPOSITE),
            (27, ABSENT),
            (370, ABSENT),
        ],
    )
    def test_kinds(self, n, kind):
        assert node_kinds(400).get(n, ABSENT) == kind

    def test_label_soundness_to_1e5(self):
        primes = set(primes_up_to(100000))
        kinds = node_kinds(100000)
        for n in range(1, 100001):
            kind = kinds.get(n, ABSENT)
            patterned = is_patterned_divisor_first(n)
            assert (n in primes) == is_prime(n)
            if kind == KIND_PATTERNED_PRIME_SMALL:
                assert n in primes and patterned and n <= 9
            elif kind == KIND_PATTERNED_PRIME_DIGIT1:
                assert n in primes and patterned and n > 9 and "1" in str(n)
            elif kind == KIND_GAP_PRIME:
                assert n in primes and not patterned
            elif kind == KIND_PATTERNED_COMPOSITE:
                assert n not in primes and patterned
            else:
                assert kind == ABSENT and n not in primes and not patterned


class TestPrimePartition:
    def test_lists_at_100(self):
        assert patterned_primes(100) == PATTERNED_PRIMES_100
        assert gap_primes(100) == GAP_PRIMES_100

    def test_partition_property_to_1e4(self):
        pp = patterned_primes(10000)
        gp = gap_primes(10000)
        assert not set(pp) & set(gp)
        assert sorted(pp + gp) == primes_up_to(10000)

    def test_split_matches_closed_form_to_1e6(self):
        primes, qualifies = split_primes(10**6)
        assert primes.dtype == np.int64 and len(primes) == 78498
        assert qualifies.tolist() == [is_patterned_prime(p, assume_prime=True)
                                      for p in primes.tolist()]

    def test_split_at_small_limits(self):
        for limit, qualifying in ((1, []), (2, [True]), (3, [True, True]),
                                  (23, [True] * 8 + [False])):
            primes, qualifies = split_primes(limit)
            assert qualifies.tolist() == qualifying and len(primes) == len(qualifying)

    def test_partition_primes_sieves_once(self, monkeypatch):
        sieves = []
        monkeypatch.setattr(graphs, "prime_array", lambda n: sieves.append(n) or prime_array(n))
        assert patterned_primes(100) == PATTERNED_PRIMES_100
        assert sieves == [100]
        assert gap_primes(100) == GAP_PRIMES_100
        assert sieves == [100, 100]
        build_dag(100, include_gap_primes=True)
        assert sieves == [100, 100, 100]


class TestBuildDag:
    def test_cluster_edges_at_19(self):
        cluster = edge_list(build_dag(19).cluster_edges)
        assert (11, 13) in cluster
        assert (13, 17) in cluster
        assert (17, 19) in cluster

    def test_chain_only_at_3(self):
        dag = build_dag(3, include_prime_cluster=False)
        edges, is_cluster = dag.edges
        assert edge_list(edges) == [(1, 2), (2, 3)]
        assert not is_cluster.any()
        assert dag.cluster_edges.shape == (0, 2)

    def test_edge_of_both_kinds_is_a_cluster_edge(self):
        edges, is_cluster = build_dag(19).edges
        flagged = dict(zip(edge_list(edges), is_cluster.tolist()))
        assert flagged[(2, 3)] and flagged[(11, 13)]
        assert not flagged[(1, 2)] and not flagged[(3, 4)]
        assert len(flagged) == len(edges)

    def test_edges_built_once(self):
        dag = build_dag(100)
        assert dag.edges is dag.edges

    def test_cluster_path_visits_the_12_primes(self):
        dag = build_dag(100)
        visited = sorted({n for edge in edge_list(dag.cluster_edges) for n in edge})
        assert visited == PATTERNED_PRIMES_100

    def test_chain_edge_count(self):
        for limit in (10, 100, 1000):
            dag = build_dag(limit)
            assert len(dag.chain_edges) == len(patterned_sequence(limit)) - 1

    def test_nodes_are_the_sequence(self):
        dag = build_dag(50)
        assert dag.nodes.tolist() == patterned_sequence(50)
        assert dag.nodes.dtype == np.int64 and dag.kinds.shape == dag.nodes.shape

    def test_gap_primes_appear_isolated_when_requested(self):
        kinds = node_kinds(30)
        assert {23, 29} <= kinds.keys()
        assert kinds[23] == KIND_GAP_PRIME
        touched = {n for edge in edge_list(build_dag(30, include_gap_primes=True).edges[0])
                   for n in edge}
        assert 23 not in touched and 29 not in touched

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            build_dag(1)

    def test_cap_checked_before_the_scan(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the size cap was checked")

        monkeypatch.setattr(graphs, "scan_members", no_work)
        monkeypatch.setattr(graphs, "prime_array", no_work)
        cap = graphs.MAX_DAG_LIMIT
        for limit in (cap + 1, 10**20):
            with pytest.raises(ResourceLimitError, match=f"^limit must be <= {cap}, got {limit}$"):
                build_dag(limit)


class TestTopologicalSort:
    def test_ascending_order_accepted(self):
        dag = build_dag(100)
        order = verify_acyclic_and_sort(dag)
        assert isinstance(order, list) and order == dag.nodes.tolist()

    def test_descending_edge_rejected(self):
        dag = hand_made_dag([3, 5], [(5, 3)])
        with pytest.raises(InvariantError, match=r"edge \(5, 3\) does not point forward"):
            verify_acyclic_and_sort(dag)

    def test_missing_endpoint_rejected(self):
        for nodes in ([3], []):
            dag = hand_made_dag(nodes, [(3, 5)])
            with pytest.raises(InvariantError, match=r"edge \(3, 5\) references a missing node"):
                verify_acyclic_and_sort(dag)

    @pytest.mark.parametrize("nodes", [[5, 3], [3, 3, 5]])
    def test_unsorted_nodes_rejected(self, nodes):
        with pytest.raises(InvariantError, match="not strictly ascending"):
            verify_acyclic_and_sort(hand_made_dag(nodes, []))

    def test_first_bad_edge_is_named(self):
        dag = hand_made_dag([1, 2, 4], [(4, 2), (1, 3)])
        with pytest.raises(InvariantError, match=r"edge \(1, 3\) references a missing node"):
            verify_acyclic_and_sort(dag)

    def test_checks_alone(self):
        assert verify_acyclic_and_sort(build_dag(100), sort=False) is None
        with pytest.raises(InvariantError, match=r"edge \(5, 3\) does not point forward"):
            verify_acyclic_and_sort(hand_made_dag([3, 5], [(5, 3)]), sort=False)

    def test_large_dag_sorts_completely(self):
        dag = build_dag(1000, include_gap_primes=True)
        assert len(verify_acyclic_and_sort(dag)) == len(dag.nodes)

