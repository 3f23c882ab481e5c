"""Eigensolver tests: closed forms, residuals, a LAPACK check, failures and caps."""

import numpy as np
import pytest

from patterned import tridiag
from patterned.cli import cli_dispatch
from patterned.errors import ConvergenceError, ResourceLimitError
from patterned.tridiag import SymTridiag, eigh_tridiagonal


def uniform_closed_form(n, diag, off):
    j = np.arange(1, n + 1)
    return np.sort(diag + 2.0 * off * np.cos(j * np.pi / (n + 1)))


class TestSymTridiag:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SymTridiag(diag=np.array([]), offdiag=np.array([]))
        with pytest.raises(ValueError):
            SymTridiag(diag=np.ones(3), offdiag=np.ones(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymTridiag(diag=np.array([1.0, np.nan]), offdiag=np.array([0.0]))


class TestEigh:
    def test_diagonal_matrix_exact(self):
        diag = np.array([3.0, -1.0, 2.0, 0.5])
        tri = SymTridiag(diag=diag, offdiag=np.zeros(3))
        values, vectors = eigh_tridiagonal(tri)
        assert np.array_equal(values, np.sort(diag))
        # eigenvectors are exactly signed basis vectors
        assert np.array_equal(np.abs(vectors), np.eye(4)[:, np.argsort(diag)])

    def test_2x2_closed_form(self):
        a, b = 1.5, 0.25
        tri = SymTridiag(diag=np.array([a, a]), offdiag=np.array([b]))
        values, _ = eigh_tridiagonal(tri)
        assert np.allclose(values, [a - b, a + b], atol=1e-12)

    def test_single_site(self):
        tri = SymTridiag(diag=np.array([4.2]), offdiag=np.zeros(0))
        values, vectors = eigh_tridiagonal(tri)
        assert values[0] == 4.2 and vectors[0, 0] == 1.0

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_uniform_chain_closed_form(self, n):
        tri = SymTridiag(diag=np.ones(n), offdiag=0.7 * np.ones(n - 1))
        values, vectors = eigh_tridiagonal(tri)
        assert np.max(np.abs(values - uniform_closed_form(n, 1.0, 0.7))) < 1e-8
        assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) < 1e-8

    def test_residuals_and_trace(self):
        rng = np.random.default_rng(17)
        for n in (3, 10, 40):
            tri = SymTridiag(diag=rng.normal(size=n), offdiag=rng.normal(size=n - 1))
            values, vectors = eigh_tridiagonal(tri)
            dense = tri.to_dense()
            scale = np.linalg.norm(dense, np.inf)
            for j in range(n):
                residual = np.linalg.norm(dense @ vectors[:, j] - values[j] * vectors[:, j])
                assert residual <= 1e-8 * max(scale, 1e-300)
            assert abs(values.sum() - tri.diag.sum()) <= 1e-8 * max(abs(tri.diag.sum()), 1.0)

    def test_matches_lapack(self):
        rng = np.random.default_rng(23)
        for n in (4, 16, 64):
            tri = SymTridiag(diag=rng.normal(size=n), offdiag=rng.normal(size=n - 1))
            values, _ = eigh_tridiagonal(tri)
            dense = tri.to_dense()
            reference = np.linalg.eigvalsh(dense)
            assert np.max(np.abs(values - reference)) < 1e-10 * max(np.linalg.norm(dense, 1), 1)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(31)
        tri = SymTridiag(diag=rng.normal(size=25), offdiag=rng.normal(size=24))
        values, _ = eigh_tridiagonal(tri)
        assert np.all(np.diff(values) >= 0)

    def test_convergence_failure_reports_matrix(self, monkeypatch, capsys):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        tri = SymTridiag(diag=np.array([1.0, 2.0]), offdiag=np.array([0.5]))
        with pytest.raises(ConvergenceError, match="diag="):
            eigh_tridiagonal(tri)
        assert cli_dispatch(["modes", "--sites", "3"]) == 3
        assert "diag=" in capsys.readouterr().err


class TestSizeCap:
    def test_cap_raises_before_dense_matrix(self, monkeypatch):
        def no_dense(self):
            raise AssertionError("dense matrix built past the cap")

        monkeypatch.setattr(SymTridiag, "to_dense", no_dense)
        n = tridiag.MAX_DENSE_SITES + 1
        tri = SymTridiag(diag=np.ones(n), offdiag=np.zeros(n - 1))
        with pytest.raises(ResourceLimitError, match="sites"):
            eigh_tridiagonal(tri)

    def test_cap_exits_2_naming_sites(self, monkeypatch, capsys):
        monkeypatch.setattr(tridiag, "MAX_DENSE_SITES", 10)
        for command in ("modes", "sweep"):
            assert cli_dispatch([command, "--sites", "11"]) == 2
            assert "sites must be <= 10" in capsys.readouterr().err
        assert cli_dispatch(["modes", "--sites", "10"]) == 0
        capsys.readouterr()
