"""DAG construction, topological sorting, and gap statistics tests."""

import pytest

from patterned import graphs
from patterned.core import (
    is_patterned_divisor_first,
    is_prime,
    patterned_sequence,
    primes_up_to,
)
from patterned.errors import InvariantError
from patterned.graphs import (
    KIND_GAP_PRIME,
    KIND_PATTERNED_COMPOSITE,
    KIND_PATTERNED_PRIME_DIGIT1,
    KIND_PATTERNED_PRIME_SMALL,
    NodeLabel,
    PatternedDag,
    build_dag,
    gap_primes,
    gap_statistics,
    partition_primes,
    patterned_primes,
    verify_acyclic_and_sort,
)

PATTERNED_PRIMES_100 = [2, 3, 5, 7, 11, 13, 17, 19, 31, 41, 61, 71]
GAP_PRIMES_100 = [23, 29, 37, 43, 47, 53, 59, 67, 73, 79, 83, 89, 97]

# Stands for "not a node": a number that does not qualify and is not a gap
# prime is absent from every DAG.
ABSENT = "unpatterned"


def node_kinds(limit):
    return {lbl.n: lbl.kind for lbl in build_dag(limit, include_gap_primes=True).nodes}


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

    def test_partition_primes_sieves_once(self, monkeypatch):
        sieves = []
        monkeypatch.setattr(graphs, "primes_up_to", lambda n: sieves.append(n) or primes_up_to(n))
        assert partition_primes(100) == (PATTERNED_PRIMES_100, GAP_PRIMES_100)
        assert sieves == [100]
        build_dag(100, include_gap_primes=True)
        assert sieves == [100, 100]


class TestBuildDag:
    def test_cluster_edges_at_19(self):
        dag = build_dag(19)
        assert (11, 13) in dag.cluster_edges
        assert (13, 17) in dag.cluster_edges
        assert (17, 19) in dag.cluster_edges

    def test_chain_only_at_3(self):
        dag = build_dag(3, include_prime_cluster=False)
        assert dag.edges == ((1, 2), (2, 3))
        assert dag.cluster_edges == ()

    def test_edges_built_once(self):
        dag = build_dag(100)
        assert dag.edges is dag.edges

    def test_cluster_path_visits_the_12_primes(self):
        dag = build_dag(100)
        visited = sorted({n for edge in dag.cluster_edges for n in edge})
        assert visited == PATTERNED_PRIMES_100

    def test_chain_edge_count(self):
        for limit in (10, 100, 1000):
            dag = build_dag(limit)
            assert len(dag.chain_edges) == len(patterned_sequence(limit)) - 1

    def test_nodes_are_the_sequence(self):
        dag = build_dag(50)
        assert [lbl.n for lbl in dag.nodes] == patterned_sequence(50)

    def test_gap_primes_appear_isolated_when_requested(self):
        dag = build_dag(30, include_gap_primes=True)
        ns = {lbl.n for lbl in dag.nodes}
        assert {23, 29} <= ns
        kinds = {lbl.n: lbl.kind for lbl in dag.nodes}
        assert kinds[23] == KIND_GAP_PRIME
        touched = {n for edge in dag.edges for n in edge}
        assert 23 not in touched and 29 not in touched

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            build_dag(1)


class TestTopologicalSort:
    def test_ascending_order_accepted(self):
        dag = build_dag(100)
        order = verify_acyclic_and_sort(dag)
        assert order == [lbl.n for lbl in dag.nodes]

    def test_descending_edge_rejected(self):
        dag = PatternedDag(
            nodes=(
                NodeLabel(3, KIND_PATTERNED_PRIME_SMALL),
                NodeLabel(5, KIND_PATTERNED_PRIME_SMALL),
            ),
            chain_edges=((5, 3),),
            cluster_edges=(),
        )
        with pytest.raises(InvariantError):
            verify_acyclic_and_sort(dag)

    def test_missing_endpoint_rejected(self):
        dag = PatternedDag(
            nodes=(NodeLabel(3, KIND_PATTERNED_PRIME_SMALL),),
            chain_edges=((3, 5),),
            cluster_edges=(),
        )
        with pytest.raises(InvariantError):
            verify_acyclic_and_sort(dag)

    def test_large_dag_sorts_completely(self):
        dag = build_dag(1000, include_gap_primes=True)
        assert len(verify_acyclic_and_sort(dag)) == len(dag.nodes)


class TestGapStatistics:
    def test_gaps_to_30(self):
        assert gap_statistics(30) == [(23, 1), (27, 1), (29, 1)]

    def test_no_gaps_below_10(self):
        assert gap_statistics(9) == []

    def test_gap_clipped_at_limit(self):
        assert gap_statistics(23)[-1] == (23, 1)

    def test_runs_are_maximal_and_non_patterned(self):
        from patterned.core import is_patterned

        limit = 500
        for start, length in gap_statistics(limit):
            assert all(not is_patterned(n) for n in range(start, start + length))
            assert start == 1 or is_patterned(start - 1)
            assert start + length > limit or is_patterned(start + length)

    def test_gap_lengths_cover_non_patterned_count(self):
        limit = 1000
        total = sum(length for _, length in gap_statistics(limit))
        assert total == limit - len(patterned_sequence(limit))
