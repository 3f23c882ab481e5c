"""Walk and oscillator-chain dynamics tests.

The coined-walk oracle builds the full 2N x 2N step matrix explicitly
(coin-rotation block diagonal followed by the shift permutation) and compares
matrix-vector products against the vectorized implementation.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patterned import core, dynamics
from patterned.core import patterned_sequence, scan_members, site_energies, turn_sequence
from patterned.curves import trace
from patterned.dynamics import (
    BOUNDARY_ABSORBING,
    MAX_WALK_CELLS,
    CoinSpec,
    OscillatorChain,
    WalkState,
    adiabatic_sweep,
    build_single_excitation_hamiltonian,
    deterministic_walk,
    eigensystem,
    localized_state,
    participation_ratios,
    patterned_chain,
    run_walk,
    unitary_walk_step,
)
from patterned.errors import InvariantError, ResourceLimitError
from patterned.tridiag import SymTridiag, eigh_tridiagonal


def step_matrix(n, theta_by_site):
    """Explicit 2N x 2N one-step unitary; basis index = 2*site + coin."""
    dim = 2 * n
    coin = np.zeros((dim, dim))
    for site, theta in enumerate(theta_by_site):
        c, s = np.cos(theta), np.sin(theta)
        coin[2 * site : 2 * site + 2, 2 * site : 2 * site + 2] = [[c, -s], [s, c]]
    shift = np.zeros((dim, dim))
    for site in range(n):
        src_l = 2 * site
        src_r = 2 * site + 1
        shift[2 * (site - 1) if site > 0 else 1, src_l] = 1.0
        shift[2 * (site + 1) + 1 if site < n - 1 else dim - 2, src_r] = 1.0
    return shift @ coin


class TestDeterministicWalk:
    def test_single_step(self):
        w = deterministic_walk(1)
        assert w.vertices == ((0, 0), (1, 0))
        assert w.turns == ("L",)

    def test_matches_trace_k12(self):
        w = deterministic_walk(12)
        c = trace(turn_sequence(12))
        assert w.vertices == c.vertices
        assert w.headings == c.headings

    def test_matches_trace_all_k_to_100(self):
        full = deterministic_walk(100)
        for k in range(1, 101):
            c = trace(turn_sequence(k))
            assert full.vertices[: k + 1] == c.vertices

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            deterministic_walk(0)


class TestWalkState:
    def test_localized(self):
        state = localized_state(5, 3, "R")
        assert state.amplitudes[2, 1] == 1.0
        assert state.norm() == 1.0

    def test_site_bounds(self):
        with pytest.raises(ValueError):
            localized_state(5, 0)
        with pytest.raises(ValueError):
            localized_state(5, 6)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            WalkState(amplitudes=np.zeros(4))


class TestUnitaryStep:
    def test_identity_coin_pure_shift(self):
        state = localized_state(5, 3, "R")
        out = unitary_walk_step(state, CoinSpec(0.0, 0.0), turn_sequence(5))
        assert out.amplitudes[3, 1] == pytest.approx(1.0)
        assert out.step_count == 1

    def test_reflecting_wall_flips_coin_in_place(self):
        state = localized_state(4, 1, "L")
        out = unitary_walk_step(state, CoinSpec(0.0, 0.0), turn_sequence(4))
        assert out.amplitudes[0, 1] == pytest.approx(1.0)
        state = localized_state(4, 4, "R")
        out = unitary_walk_step(state, CoinSpec(0.0, 0.0), turn_sequence(4))
        assert out.amplitudes[3, 0] == pytest.approx(1.0)

    def test_coin_angle_selected_by_turn_label(self):
        # site 2 carries label R; theta_R = pi/2 turns the L coin into R,
        # which then reflects at the upper wall back onto coin L
        state = localized_state(2, 2, "L")
        out = unitary_walk_step(state, CoinSpec(0.0, np.pi / 2), ["L", "R"])
        assert out.amplitudes[1, 0] == pytest.approx(1.0)

    def test_norm_preserved_random_states(self):
        rng = np.random.default_rng(3)
        turns = turn_sequence(8)
        coins = CoinSpec(0.3, -1.1)
        for _ in range(10):
            raw = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
            raw /= np.linalg.norm(raw)
            state = WalkState(amplitudes=raw)
            out = unitary_walk_step(state, coins, turns)
            assert abs(out.norm() - 1.0) < 1e-12

    def test_matrix_oracle_3_sites_2_steps(self):
        n = 3
        coins = CoinSpec(np.pi / 4, np.pi / 4)
        turns = turn_sequence(n)
        theta = [np.pi / 4] * n
        u = step_matrix(n, theta)
        assert np.allclose(u @ u.T, np.eye(2 * n), atol=1e-14)  # unitary
        for coin in ("L", "R"):
            state = localized_state(n, 2, coin)
            vec = state.amplitudes.flatten()
            expected = u @ (u @ vec)
            walked = unitary_walk_step(
                unitary_walk_step(state, coins, turns), coins, turns
            )
            assert np.allclose(walked.amplitudes.flatten(), expected, atol=1e-12)

    def test_matrix_oracle_mixed_angles(self):
        n = 6
        coins = CoinSpec(0.7, -0.2)
        turns = turn_sequence(n)
        theta = [0.7 if t == "L" else -0.2 for t in turns]
        u = step_matrix(n, theta)
        state = localized_state(n, 4, "L")
        vec = state.amplitudes.flatten()
        for _ in range(5):
            vec = u @ vec
            state = unitary_walk_step(state, coins, turns)
        assert np.allclose(state.amplitudes.flatten(), vec, atol=1e-12)

    def test_rejects_turn_length_mismatch(self):
        with pytest.raises(ValueError):
            unitary_walk_step(localized_state(4, 1), CoinSpec(), ["L"])

    def test_rejects_unnormalized_input(self):
        state = WalkState(amplitudes=np.full((3, 2), 0.5 + 0j))
        with pytest.raises(ValueError):
            unitary_walk_step(state, CoinSpec(), turn_sequence(3))

    def test_rejects_nan_state(self):
        amp = np.zeros((3, 2), dtype=complex)
        amp[0, 0] = np.nan
        with pytest.raises(ValueError, match="norm"):
            unitary_walk_step(WalkState(amplitudes=amp), CoinSpec(), turn_sequence(3))

    def test_absorbing_boundary_decays(self):
        state = localized_state(3, 1, "L")
        out = unitary_walk_step(
            state, CoinSpec(0.0, 0.0), turn_sequence(3), boundary=BOUNDARY_ABSORBING
        )
        assert out.norm() == pytest.approx(0.0)
        # and the decayed state is accepted as further input
        again = unitary_walk_step(
            out, CoinSpec(0.0, 0.0), turn_sequence(3), boundary=BOUNDARY_ABSORBING
        )
        assert again.norm() == pytest.approx(0.0)

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError):
            unitary_walk_step(localized_state(3, 1), CoinSpec(), turn_sequence(3),
                              boundary="periodic")


class TestRunWalk:
    def test_zero_steps_initial_distribution(self):
        series = run_walk(5, 0, initial_site=3)
        assert series.shape == (1, 5)
        assert series[0, 2] == 1.0

    def test_distribution_sums_to_one(self):
        series = run_walk(10, 50)
        assert np.max(np.abs(series.sum(axis=1) - 1.0)) < 1e-12

    def test_norm_drift_69_sites(self):
        series = run_walk(69, 200)
        assert np.max(np.abs(series.sum(axis=1) - 1.0)) < 1e-10

    def test_norm_drift_256_sites_1000_steps(self):
        series = run_walk(256, 1000, initial_site=128)
        assert np.max(np.abs(series.sum(axis=1) - 1.0)) < 1e-10

    def test_rejects_tiny_chain(self):
        with pytest.raises(ValueError):
            run_walk(1, 5)

    @pytest.mark.parametrize("coins, name", [
        (CoinSpec(theta_L=float("nan")), "theta_l"),
        (CoinSpec(theta_R=float("inf")), "theta_r"),
        (CoinSpec(theta_L=float("-inf")), "theta_l"),
    ])
    def test_rejects_non_finite_coin_angles(self, coins, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            run_walk(5, 1, coins=coins)

    def test_steps_times_sites_capped_before_allocation(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the cap must be checked before any work")

        monkeypatch.setattr(dynamics, "scan_members", no_work)
        monkeypatch.setattr(dynamics.np, "empty", no_work)
        with pytest.raises(ResourceLimitError, match="steps must keep"):
            run_walk(100, 10**12)
        with pytest.raises(ResourceLimitError):
            run_walk(1000, MAX_WALK_CELLS // 1000)

    def test_largest_walk_under_the_cap_is_accepted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "scan_members", lambda k: calls.append(k) or 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_walk(1000, MAX_WALK_CELLS // 1000 - 1)
        assert calls == [1000]


class TestWalkEntries:
    """``run_walk`` steps real amplitudes, and must give the bits of the complex
    ``unitary_walk_step``; both check at entry."""

    @pytest.mark.parametrize("boundary", ["reflecting", BOUNDARY_ABSORBING])
    @pytest.mark.parametrize("coins", [CoinSpec(), CoinSpec(0.3, -1.1)])
    @pytest.mark.parametrize("n, site, coin", [(7, 4, "L"), (12, 6, "R")])
    def test_run_walk_equals_repeated_steps(self, boundary, coins, n, site, coin):
        steps = 40
        series = run_walk(n, steps, coins=coins, initial_site=site, initial_coin=coin,
                          boundary=boundary)
        state, turns = localized_state(n, site, coin), turn_sequence(n)
        rows = [state.position_distribution()]
        for _ in range(steps):
            state = unitary_walk_step(state, coins, turns, boundary=boundary)
            rows.append(state.position_distribution())
        assert series.tobytes() == np.array(rows).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 119).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.integers(0, 150), st.sampled_from("LR"),
           st.lists(st.one_of(st.floats(-7, 7), st.sampled_from([0.0, math.pi / 2])),
                    min_size=2, max_size=2),
           st.sampled_from(["reflecting", BOUNDARY_ABSORBING]))
    def test_run_walk_bits_of_the_complex_step(self, sites, steps, coin, thetas, boundary):
        (n, site), coins = sites, CoinSpec(*thetas)
        series = run_walk(n, steps, coins=coins, initial_site=site, initial_coin=coin,
                          boundary=boundary)
        state, turns = localized_state(n, site, coin), turn_sequence(n)
        assert series[0].tobytes() == state.position_distribution().tobytes()
        for row in series[1:]:
            state = unitary_walk_step(state, coins, turns, boundary=boundary)
            assert row.tobytes() == state.position_distribution().tobytes()

    @pytest.mark.parametrize("steps", [0, 1])
    def test_unknown_boundary_named_before_any_work(self, monkeypatch, steps):
        monkeypatch.setattr(dynamics, "scan_members", lambda k: 1 / 0)
        with pytest.raises(ValueError, match="^boundary must be 'reflecting' or 'absorbing', "
                                             "got 'periodic'$"):
            run_walk(3, steps, boundary="periodic")

    def test_initial_site_and_coin_named(self):
        with pytest.raises(ValueError, match=r"^initial_site must be in 1\.\.5, got 9$"):
            run_walk(5, 1, initial_site=9)
        with pytest.raises(ValueError, match="^initial_coin must be 'L' or 'R', got 'X'$"):
            run_walk(5, 1, initial_coin="X")

    def test_norm_drift_raises_invariant_error(self, monkeypatch):
        real = dynamics._step_real

        def drifting(a_l, a_r, *rest):  # every step scales the amplitudes by 1.001
            real(a_l, a_r, *rest)
            a_l *= 1.001
            a_r *= 1.001

        monkeypatch.setattr(dynamics, "_step_real", drifting)
        with pytest.raises(InvariantError, match="walk norm drifted from 1 by 1.000e-03"):
            run_walk(5, 1)
        # an absorbing walk loses norm by design, so it is not checked
        assert run_walk(5, 3, boundary=BOUNDARY_ABSORBING).shape == (4, 5)


class TestEnergyLandscape:
    """The diagonal Hamiltonian of the sequence: the site energies of a scan."""

    def test_zero_weights(self):
        assert site_energies(scan_members(limit=50), alpha=0.0, beta=0.0) == [0.0] * len(
            patterned_sequence(50)
        )

    def test_limit_12_match_counts(self):
        assert site_energies(scan_members(limit=12), alpha=1.0, beta=0.0) == [1.0] * 11 + [2.0]

    def test_diagonal_spectrum_is_energy_multiset(self):
        energies = site_energies(scan_members(limit=40))  # default weights, all >= 1
        tri = SymTridiag(diag=np.array(energies), offdiag=np.zeros(len(energies) - 1))
        spectrum = eigensystem(tri)
        assert np.allclose(spectrum.eigenvalues, np.sort(energies), atol=1e-12)


class TestOscillatorChain:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            OscillatorChain(omegas=(1.0, 1.0), g_L=1, g_R=1, turns=(), s=0.0)

    def test_validates_positive_omega(self):
        with pytest.raises(ValueError):
            OscillatorChain(omegas=(1.0, 0.0), g_L=1, g_R=1, turns=("L",), s=0.0)

    def test_validates_s_range(self):
        with pytest.raises(ValueError):
            OscillatorChain(omegas=(1.0, 1.0), g_L=1, g_R=1, turns=("L",), s=1.5)

    def test_labels_and_parity_arrays_are_one_word(self):
        big = np.array([128, 0], dtype=np.uint8)
        big.flags.writeable = False
        for turns in (np.frombuffer(b"LR", np.uint8), big):  # read as labels
            with pytest.raises(ValueError, match="^turn labels must be 'L' or 'R'$"):
                OscillatorChain(omegas=(1.0,) * 3, g_L=1, g_R=1, turns=turns, s=0.0)
        labels = turn_sequence(2)
        parity = np.array([label == "L" for label in labels], dtype=np.uint8)  # writable
        chains = [OscillatorChain(omegas=(1.0,) * 3, g_L=1, g_R=1, turns=turns, s=0.0) for turns
                  in (tuple(labels), iter(labels), parity, scan_members(k=3).turns[:-1])]
        parity ^= 1  # a parity array is copied
        for chain in chains:
            assert chain == chains[0] and core.turn_labels(chain.turns) == labels
            with pytest.raises(ValueError):
                chain.turns[0] = 0

    def test_patterned_chain_energy_omegas(self):
        chain = patterned_chain(12, g_L=1.0, g_R=0.5, alpha=1.0, beta=0.0)
        assert chain.omegas == tuple([1.0] * 11 + [2.0])
        assert core.turn_labels(chain.turns) == turn_sequence(11)

    def test_patterned_chain_one_profile_per_site(self, monkeypatch):
        sites = patterned_sequence(100)[:40]
        labels = tuple(turn_sequence(39))
        classified = []
        real = core.classify_block
        monkeypatch.setattr(
            core, "classify_block", lambda a: classified.extend(a.tolist()) or real(a)
        )
        chain = patterned_chain(40, g_L=1.0, g_R=0.5)
        assert classified == list(range(1, len(classified) + 1))
        assert set(sites) <= set(classified)
        assert tuple(core.turn_labels(chain.turns)) == labels

    def test_patterned_chain_constant_omegas(self):
        chain = patterned_chain(5, g_L=1.0, g_R=1.0, omega_mode="constant", omega=2.5)
        assert chain.omegas == (2.5,) * 5

    @pytest.mark.parametrize("kwargs, message", [
        ({"g_L": float("nan")}, "g_l must be finite, got nan"),
        ({"g_R": float("inf")}, "g_r must be finite, got inf"),
        ({"omega_mode": "constant", "omega": -1.0}, "omega must be finite and > 0, got -1.0"),
        ({"omega_mode": "constant", "omega": float("nan")}, "omega must be finite and > 0"),
    ])
    def test_rejects_bad_couplings_and_omega_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            patterned_chain(5, **{"g_L": 1.0, "g_R": 1.0, **kwargs})

    def test_omega_unused_in_energy_mode(self):
        assert patterned_chain(5, 1.0, 1.0, omega=-1.0) == patterned_chain(5, 1.0, 1.0)

    def test_rejects_unknown_omega_mode(self):
        with pytest.raises(ValueError):
            patterned_chain(5, 1.0, 1.0, omega_mode="linear")


class TestHamiltonian:
    def test_s0_is_diagonal(self):
        chain = patterned_chain(8, g_L=1.0, g_R=0.5, s=0.0)
        tri = build_single_excitation_hamiltonian(chain)
        assert np.array_equal(tri.diag, np.array(chain.omegas))
        assert np.array_equal(tri.offdiag, np.zeros(7))

    def test_s1_is_pure_coupling(self):
        chain = patterned_chain(8, g_L=1.0, g_R=0.5, s=1.0)
        tri = build_single_excitation_hamiltonian(chain)
        assert np.array_equal(tri.diag, np.zeros(8))
        expected = np.array([1.0 if t == "L" else 0.5 for t in core.turn_labels(chain.turns)])
        assert np.array_equal(tri.offdiag, expected)

    def test_equal_couplings_collapse_turn_dependence(self):
        omegas = (1.0, 2.0, 3.0, 4.0)
        a = OscillatorChain(omegas=omegas, g_L=1.0, g_R=1.0, turns=("L", "R", "L"), s=0.6)
        b = OscillatorChain(omegas=omegas, g_L=1.0, g_R=1.0, turns=("R", "L", "R"), s=0.6)
        ha = build_single_excitation_hamiltonian(a)
        hb = build_single_excitation_hamiltonian(b)
        assert np.array_equal(ha.diag, hb.diag)
        assert np.array_equal(ha.offdiag, hb.offdiag)

    def test_s1_spectrum_independent_of_omegas(self):
        turns = ("L", "R", "L", "R")
        a = OscillatorChain(omegas=(1.0,) * 5, g_L=0.8, g_R=0.3, turns=turns, s=1.0)
        b = OscillatorChain(omegas=(9.0, 1.0, 5.0, 2.0, 7.0), g_L=0.8, g_R=0.3,
                            turns=turns, s=1.0)
        va = eigensystem(build_single_excitation_hamiltonian(a)).eigenvalues
        vb = eigensystem(build_single_excitation_hamiltonian(b)).eigenvalues
        assert np.allclose(va, vb, atol=1e-12)


class TestParticipationRatio:
    def test_basis_vector(self):
        assert participation_ratios(np.array([[0.0], [1.0], [0.0]])) == pytest.approx([1.0])

    def test_uniform_vector(self):
        n = 16
        assert participation_ratios(np.full((n, 1), 1 / np.sqrt(n))) == pytest.approx([n])

    def test_two_site_example(self):
        v = np.array([[np.sqrt(0.8)], [np.sqrt(0.2)]])
        assert participation_ratios(v) == pytest.approx([1 / 0.68], abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            participation_ratios(np.array([[1.0], [1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            participation_ratios(np.array([[np.nan], [1.0]]))
        with pytest.raises(ValueError):
            participation_ratios(np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_columns_bit_identical_to_one_at_a_time(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 60, 301):
            matrix = SymTridiag(diag=rng.normal(size=n), offdiag=rng.normal(size=n - 1))
            _, vectors = eigh_tridiagonal(matrix)
            one_at_a_time = [1.0 / np.sum(np.square(vectors[:, j] * vectors[:, j]))
                             for j in range(n)]
            assert participation_ratios(vectors).tolist() == one_at_a_time
            assert [participation_ratios(vectors[:, [j]])[0] for j in range(n)] == one_at_a_time

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_within_4_ulps_of_the_fourth_powers(self, n, m, seed):
        vectors = np.random.default_rng(seed).normal(size=(n, m))
        vectors /= np.linalg.norm(vectors, axis=0)
        for j, ratio in enumerate(participation_ratios(vectors).tolist()):
            exact = 1.0 / np.sum(vectors[:, j] ** 4)
            assert abs(ratio - exact) <= 4 * np.spacing(exact)


class TestSpectrumBound:
    """Every eigenvalue of H(s) lies within the Gershgorin radius
    max(max omega, 2 max |g|); a chain is refused where that passes the bound."""

    @pytest.mark.parametrize("kwargs, source", [
        ({"g_L": -1e308, "omega_mode": "constant"}, "g_l"),
        ({"g_L": 1e308, "g_R": 1e308}, "g_l"),
        ({"g_R": math.nextafter(2.0**499, math.inf)}, "g_r"),
        ({"omega_mode": "constant", "omega": 1e200}, "omega"),
        ({"alpha": 1e300}, "alpha 1e+300 and beta 0.5"),
        ({"alpha": 1.0, "beta": 2.0**501}, f"alpha 1.0 and beta {2.0**501}"),
    ])
    def test_radius_past_the_bound_names_its_source(self, monkeypatch, kwargs, source):
        def no_solve(matrix):
            raise AssertionError("an eigensolve ran before the radius was checked")

        monkeypatch.setattr(dynamics, "eigh_tridiagonal", no_solve)
        with pytest.raises(ValueError, match=rf"^{re.escape(source)} must keep the spectrum's "
                                             r"Gershgorin radius .* within 2\*\*500, got "):
            patterned_chain(30, **{"g_L": 1.0, "g_R": 1.0, **kwargs})

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_radius_at_the_bound_gives_a_finite_spectrum(self, s):
        half = 2.0**499
        assert 2 * half == dynamics.SPECTRUM_BOUND
        chain = patterned_chain(40, g_L=half, g_R=-half, s=s, omega_mode="constant", omega=2 * half)
        values = eigensystem(build_single_excitation_hamiltonian(chain)).eigenvalues
        assert np.all(np.abs(values) <= dynamics.SPECTRUM_BOUND)
        points = adiabatic_sweep(chain, [0.0, 0.5, 1.0])
        assert all(map(math.isfinite, (v for p in points for v in dataclasses.astuple(p))))


class TestSweep:
    def test_ground_energy_at_s0(self):
        chain = patterned_chain(20, g_L=1.0, g_R=0.5)
        point = adiabatic_sweep(chain, [0.0])[0]
        assert point.ground_energy == pytest.approx(min(chain.omegas), abs=1e-10)

    def test_uniform_gap_matches_closed_form(self):
        n, omega, g = 12, 1.0, 0.7
        chain = OscillatorChain(
            omegas=(omega,) * n, g_L=g, g_R=g, turns=tuple(turn_sequence(n - 1)), s=0.0
        )
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        points = adiabatic_sweep(chain, grid)
        j = np.arange(1, n + 1)
        for point in points:
            closed = np.sort((1 - point.s) * omega + 2 * point.s * g * np.cos(j * np.pi / (n + 1)))
            assert point.ground_energy == pytest.approx(closed[0], abs=1e-8)
            assert point.spectral_gap == pytest.approx(closed[1] - closed[0], abs=1e-8)

    def test_output_length_and_fields(self):
        chain = patterned_chain(6, g_L=1.0, g_R=0.5)
        grid = [0.0, 0.5, 1.0]
        points = adiabatic_sweep(chain, grid)
        assert [p.s for p in points] == grid
        assert all(p.spectral_gap >= 0 for p in points)
        assert all(1.0 - 1e-9 <= p.ground_participation_ratio <= 6 + 1e-9 for p in points)

    def test_rejects_out_of_range_s(self):
        chain = patterned_chain(4, g_L=1.0, g_R=1.0)
        with pytest.raises(ValueError):
            adiabatic_sweep(chain, [0.0, 1.2])

    def test_rejects_single_site_chain(self):
        chain = patterned_chain(1, g_L=1.0, g_R=1.0)
        with pytest.raises(ValueError):
            adiabatic_sweep(chain, [0.5])

    def test_every_s_checked_before_any_eigensolve(self, monkeypatch):
        def no_solve(matrix):
            raise AssertionError("an eigensolve ran before the grid was checked")

        monkeypatch.setattr(dynamics, "eigh_tridiagonal", no_solve)
        chain = patterned_chain(4, g_L=1.0, g_R=1.0)
        for grid, shown in (([0.0, 1.2], "1.2"), ([0.5, 0.25, math.nan], "nan")):
            with pytest.raises(ValueError, match=rf"^s grid values must lie in \[0, 1\], "
                                                 rf"got {shown}$"):
                adiabatic_sweep(chain, grid)

    def test_points_equal_the_hamiltonian_at_each_s_bit_for_bit(self):
        rng = np.random.default_rng(20)
        chains = [patterned_chain(2, g_L=1.0, g_R=0.5),
                  patterned_chain(40, g_L=-0.3, g_R=2.5, alpha=0.7, beta=1.9),
                  patterned_chain(17, g_L=0.0, g_R=1e-3, omega_mode="constant", omega=3.0)]
        for n in rng.integers(2, 60, size=6):
            chains.append(OscillatorChain(
                omegas=tuple(rng.uniform(0.1, 5.0, size=n)), g_L=float(rng.normal()),
                g_R=float(rng.normal()), turns=tuple(rng.choice(["L", "R"], size=n - 1)),
                s=float(rng.random())))
        for chain in chains:
            grid = [0.0, 1.0, 0.5, *rng.random(5).tolist()]
            for point, s in zip(adiabatic_sweep(chain, grid), grid, strict=True):
                spectrum = eigensystem(
                    build_single_excitation_hamiltonian(dataclasses.replace(chain, s=s)))
                values, ratios = spectrum.eigenvalues, spectrum.participation_ratios
                expected = (s, values[0], values[1] - values[0], ratios[0])
                assert [float(v).hex() for v in dataclasses.astuple(point)] == [
                    float(v).hex() for v in expected]

    def test_builds_no_chain_or_hamiltonian_per_point(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a chain or Hamiltonian was built for a point")

        chain = patterned_chain(5, g_L=1.0, g_R=0.5)
        monkeypatch.setattr(dynamics, "build_single_excitation_hamiltonian", no_build)
        monkeypatch.setattr(OscillatorChain, "__post_init__", no_build)
        assert [p.s for p in adiabatic_sweep(chain, [0.0, 0.5, 1.0])] == [0.0, 0.5, 1.0]

    def test_every_point_checks_its_eigenvector_norms(self, monkeypatch):
        solves = []

        def off_norm_at_second_solve(matrix):
            values, vectors = eigh_tridiagonal(matrix)
            solves.append(matrix.n)
            return values, vectors * (1.0 if len(solves) == 1 else 1.01)

        monkeypatch.setattr(dynamics, "eigh_tridiagonal", off_norm_at_second_solve)
        with pytest.raises(ValueError, match="vector norm"):
            adiabatic_sweep(patterned_chain(5, g_L=1.0, g_R=0.5), [0.0, 0.5, 1.0])
        assert len(solves) == 2
