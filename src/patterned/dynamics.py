"""Walks and single-excitation chain dynamics on the qualifying sequence.

Two walks are provided. The literal turn-operator walk is deterministic: it
rewrites (node, coin) to (next node, turn label), ignoring the incoming coin,
and its geometric trajectory must reproduce the traced curve. The coined walk
is a proper unitary: a per-site coin rotation whose angle is selected by the
site's turn label, followed by a coin-conditioned shift with reflecting ends.
Both walk entries check their input once and step bare arrays through one
kernel; ``run_walk`` checks the norm once, after the last step.

Oscillator physics is computed entirely in the single-excitation sector,
where the interpolated chain Hamiltonian is a real symmetric tridiagonal
matrix: diagonal (1-s)*omega_n, off-diagonal s*g(turn_n). Its eigensystem
comes from LAPACK through :func:`tridiag.eigh_tridiagonal`.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .core import (
    TURN_LEFT,
    TURN_RIGHT,
    scan_members,
    site_energies,
    turn_sequence,
)
from .errors import ConvergenceError, InvariantError, ResourceLimitError
from .tridiag import SymTridiag, eigh_tridiagonal

NORM_TOL = 1e-8

# Largest walk: (steps + 1) x sites probabilities, 1 GB like MAX_DENSE_SITES.
MAX_WALK_CELLS = 125_000_000

BOUNDARY_REFLECTING = "reflecting"
BOUNDARY_ABSORBING = "absorbing"


@dataclass(frozen=True)
class CoinSpec:
    """Coin rotation angles, one per turn label (any angle is unitary)."""

    theta_L: float = math.pi / 4
    theta_R: float = -math.pi / 4


@dataclass(frozen=True)
class WalkState:
    """Complex amplitudes over (site 1..N, coin L/R), stored as an (N, 2) array."""

    amplitudes: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 2 or amp.shape[1] != 2 or amp.shape[0] < 1:
            raise ValueError(f"amplitudes must have shape (N, 2), got {amp.shape}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_positions(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def position_distribution(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


def localized_state(n_positions: int, site: int, coin: str = TURN_LEFT) -> WalkState:
    """Unit amplitude on one (site, coin) basis state; sites are numbered 1..N."""
    if n_positions < 1:
        raise ValueError(f"need at least one position, got {n_positions}")
    if not 1 <= site <= n_positions:
        raise ValueError(f"site must be in 1..{n_positions}, got {site}")
    if coin not in (TURN_LEFT, TURN_RIGHT):
        raise ValueError(f"coin must be 'L' or 'R', got {coin!r}")
    amp = np.zeros((n_positions, 2), dtype=complex)
    amp[site - 1, 0 if coin == TURN_LEFT else 1] = 1.0
    return WalkState(amplitudes=amp, step_count=0)


# ---------------------------------------------------------------------------
# literal turn-operator walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicWalk:
    """Trajectory of the literal node-to-node rewrite."""

    vertices: Tuple[Tuple[int, int], ...]
    headings: Tuple[str, ...]
    turns: Tuple[str, ...]
    final_coin: str


_HEADING_OF_UNIT = {(1, 0): "E", (0, 1): "N", (-1, 0): "W", (0, -1): "S"}


def deterministic_walk(
    k: int,
    start: Tuple[int, int] = (0, 0),
    start_coin: str = TURN_LEFT,
) -> DeterministicWalk:
    """Run the rewrite over the first k qualifying numbers.

    The rewrite's output coin is the site's turn label, so ``start_coin``
    provably never influences the trajectory. Implemented with complex
    arithmetic (heading as a unit in the Gaussian integers), deliberately
    sharing nothing with the turtle tracer it is checked against.
    """
    if start_coin not in (TURN_LEFT, TURN_RIGHT):
        raise ValueError(f"start_coin must be 'L' or 'R', got {start_coin!r}")
    position = complex(start[0], start[1])
    heading = 1 + 0j  # east
    vertices = [(start[0], start[1])]
    headings: List[str] = []
    turns = turn_sequence(k)
    for coin in turns:
        headings.append(_HEADING_OF_UNIT[(int(heading.real), int(heading.imag))])
        position += heading
        vertices.append((int(position.real), int(position.imag)))
        heading *= 1j if coin == TURN_LEFT else -1j
    return DeterministicWalk(
        vertices=tuple(vertices),
        headings=tuple(headings),
        turns=tuple(turns),
        final_coin=turns[-1],
    )


# ---------------------------------------------------------------------------
# coined unitary walk
# ---------------------------------------------------------------------------

def _coin_cos_sin(coins: CoinSpec, turns: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    theta = np.array([coins.theta_L if t == TURN_LEFT else coins.theta_R for t in turns])
    return np.cos(theta), np.sin(theta)


def _step_amplitudes(amp, cos_t, sin_t, reflecting: bool) -> np.ndarray:
    a_l, a_r = amp[:, 0], amp[:, 1]
    rot_l = cos_t * a_l - sin_t * a_r
    rot_r = sin_t * a_l + cos_t * a_r
    out = np.zeros_like(amp)
    out[:-1, 0] = rot_l[1:]
    out[1:, 1] = rot_r[:-1]
    if reflecting:
        out[0, 1] += rot_l[0]
        out[-1, 0] += rot_r[-1]
    return out


def unitary_walk_step(
    state: WalkState,
    coins: CoinSpec,
    turns: Sequence[str],
    boundary: str = BOUNDARY_REFLECTING,
) -> WalkState:
    """One step: per-site coin rotation, then the coin-conditioned shift.

    Coin L moves a site down, coin R up. At a reflecting wall the amplitude
    stays put with its coin (move direction) reversed, which keeps the shift
    a permutation and the whole step exactly unitary. The absorbing variant
    instead drops amplitude that would leave the chain, so the norm decays
    and is not validated.
    """
    if boundary not in (BOUNDARY_REFLECTING, BOUNDARY_ABSORBING):
        raise ValueError(f"unknown boundary {boundary!r}")
    n = state.n_positions
    if len(turns) != n:
        raise ValueError(f"need one turn label per position ({n}), got {len(turns)}")
    if boundary == BOUNDARY_REFLECTING and not abs(state.norm() - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm {state.norm():.3e} is not 1 within {NORM_TOL:.0e}")
    cos_t, sin_t = _coin_cos_sin(coins, turns)
    out = _step_amplitudes(state.amplitudes, cos_t, sin_t, boundary == BOUNDARY_REFLECTING)
    return WalkState(amplitudes=out, step_count=state.step_count + 1)


def run_walk(
    n_positions: int,
    steps: int,
    coins: CoinSpec = CoinSpec(),
    initial_site: int = 1,
    initial_coin: str = TURN_RIGHT,
    boundary: str = BOUNDARY_REFLECTING,
) -> np.ndarray:
    """Repeated coined-walk steps on the chain of the first N qualifying numbers.

    Returns the position probability distribution per step as an array of
    shape (steps + 1, N); row 0 is the initial distribution. The arguments are
    checked before any work, the steps are not; on the reflecting boundary a row
    norm further than NORM_TOL from 1 then raises ``InvariantError``.
    """
    if n_positions < 2:
        raise ValueError(f"sites must be >= 2 for a walk, got {n_positions}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if (steps + 1) * n_positions > MAX_WALK_CELLS:
        raise ResourceLimitError(
            f"steps must keep (steps + 1) * sites <= {MAX_WALK_CELLS}, got {steps} "
            f"steps on {n_positions} sites"
        )
    for name, theta in (("theta_l", coins.theta_L), ("theta_r", coins.theta_R)):
        if not math.isfinite(theta):
            raise ValueError(f"{name} must be finite, got {theta}")
    if boundary not in (BOUNDARY_REFLECTING, BOUNDARY_ABSORBING):
        raise ValueError(f"boundary must be 'reflecting' or 'absorbing', got {boundary!r}")
    if not 1 <= initial_site <= n_positions:
        raise ValueError(f"initial_site must be in 1..{n_positions}, got {initial_site}")
    if initial_coin not in (TURN_LEFT, TURN_RIGHT):
        raise ValueError(f"initial_coin must be 'L' or 'R', got {initial_coin!r}")
    turns = turn_sequence(n_positions)
    cos_t, sin_t = _coin_cos_sin(coins, turns)
    reflecting = boundary == BOUNDARY_REFLECTING
    amp = localized_state(n_positions, initial_site, initial_coin).amplitudes
    series = np.empty((steps + 1, n_positions))
    series[0] = np.sum(np.abs(amp) ** 2, axis=1)
    for i in range(1, steps + 1):
        amp = _step_amplitudes(amp, cos_t, sin_t, reflecting)
        series[i] = np.sum(np.abs(amp) ** 2, axis=1)
    drift = np.max(np.abs(np.sqrt(series.sum(axis=1)) - 1.0)) if reflecting else 0.0
    if not drift <= NORM_TOL:
        raise InvariantError(f"walk norm drifted from 1 by {drift:.3e}, over {NORM_TOL:.0e}")
    return series


# ---------------------------------------------------------------------------
# site energies and the single-excitation chain
# ---------------------------------------------------------------------------

def energy_landscape(limit: int, alpha: float = 1.0, beta: float = 0.5) -> List[float]:
    """Site energies along the qualifying numbers <= limit.

    This is the diagonal Hamiltonian of the sequence: each entry is the
    site energy with the previous site's turn as the repeat-penalty context.
    """
    return site_energies(scan_members(limit=limit), alpha, beta)[0]


@dataclass(frozen=True)
class OscillatorChain:
    """Chain parameters: site frequencies, turn-selected couplings, mix s."""

    omegas: Tuple[float, ...]
    g_L: float
    g_R: float
    turns: Tuple[str, ...]  # one label per adjacent pair
    s: float

    def __post_init__(self):
        if len(self.omegas) < 1:
            raise ValueError("chain needs at least one site")
        if any(not (w > 0) for w in self.omegas):
            raise ValueError("site frequencies must be positive")
        if len(self.turns) != len(self.omegas) - 1:
            raise ValueError(
                f"need one turn per adjacent pair: {len(self.omegas) - 1}, "
                f"got {len(self.turns)}"
            )
        if any(t not in (TURN_LEFT, TURN_RIGHT) for t in self.turns):
            raise ValueError("turn labels must be 'L' or 'R'")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must be in [0, 1], got {self.s}")

    @property
    def n_sites(self) -> int:
        return len(self.omegas)


OMEGA_FROM_ENERGY = "energy"
OMEGA_CONSTANT = "constant"


def patterned_chain(
    n_sites: int,
    g_L: float,
    g_R: float,
    s: float = 0.0,
    omega_mode: str = OMEGA_FROM_ENERGY,
    omega: float = 1.0,
    alpha: float = 1.0,
    beta: float = 0.5,
) -> OscillatorChain:
    """Chain over the first N qualifying numbers.

    Site frequencies default to the site energies (tying the diagonal and
    chain pictures together); ``omega_mode='constant'`` uses a flat omega.
    """
    if n_sites < 1:
        raise ValueError(f"sites must be >= 1, got {n_sites}")
    if omega_mode not in (OMEGA_FROM_ENERGY, OMEGA_CONSTANT):
        raise ValueError(f"omega_mode must be 'energy' or 'constant', got {omega_mode!r}")
    for name, value in (("g_l", g_L), ("g_r", g_R)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if omega_mode == OMEGA_CONSTANT and not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and > 0, got {omega}")
    members = scan_members(k=n_sites)
    if omega_mode == OMEGA_FROM_ENERGY:
        omegas = tuple(site_energies(members, alpha, beta)[0])
        if min(omegas) <= 0:
            raise ValueError(f"alpha {alpha} and beta {beta} give a site energy of "
                             f"{min(omegas)}; site energies must be positive")
    else:
        omegas = (float(omega),) * n_sites
    turns = tuple(members.turns[:-1])
    return OscillatorChain(omegas=omegas, g_L=g_L, g_R=g_R, turns=turns, s=s)


def build_single_excitation_hamiltonian(chain: OscillatorChain) -> SymTridiag:
    """H(s) = (1-s) H0 + s H_int restricted to the one-excitation sector.

    Number-conserving hopping between neighbors acts on this sector as the
    tridiagonal matrix with diagonal (1-s)*omega_n and off-diagonal
    s*g(turn_n) between sites n and n+1.
    """
    diag = (1.0 - chain.s) * np.asarray(chain.omegas, dtype=float)
    g = {TURN_LEFT: chain.g_L, TURN_RIGHT: chain.g_R}
    offdiag = chain.s * np.array([g[t] for t in chain.turns], dtype=float)
    return SymTridiag(diag=diag, offdiag=offdiag)


@dataclass(frozen=True)
class Spectrum:
    """Eigensystem with per-mode localization, eigenvalues ascending.

    Within a (near-)degenerate eigenspace the vectors are whatever basis the
    solver returns, so their participation ratios depend on the solver."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray              # column j pairs with eigenvalue j
    participation_ratios: np.ndarray


def participation_ratios(vectors: np.ndarray) -> np.ndarray:
    """Inverse participation ratio 1 / sum(v_i^4) of every unit column.

    1 means fully localized on one site, N fully extended. Each column is
    summed as a contiguous row of the transpose, as it would be on its own.
    """
    v = np.asarray(vectors, dtype=float)
    norm_sq = np.ascontiguousarray((v * v).T).sum(axis=1)
    bad = ~(np.abs(norm_sq - 1.0) <= NORM_TOL)
    if bad.any():
        raise ValueError(f"vector norm^2 is {norm_sq[bad][0]:.6f}, expected 1")
    return 1.0 / np.ascontiguousarray((v**4).T).sum(axis=1)


def participation_ratio(vector: np.ndarray) -> float:
    """Inverse participation ratio of one unit vector."""
    return float(participation_ratios(np.asarray(vector, dtype=float)[:, None])[0])


def eigensystem(matrix: SymTridiag) -> Spectrum:
    """Full eigendecomposition of a symmetric tridiagonal matrix."""
    values, vectors = eigh_tridiagonal(matrix)
    ratios = participation_ratios(vectors)
    return Spectrum(eigenvalues=values, eigenvectors=vectors, participation_ratios=ratios)


@dataclass(frozen=True)
class SweepPoint:
    s: float
    ground_energy: float
    spectral_gap: float
    ground_participation_ratio: float


def adiabatic_sweep(chain: OscillatorChain, s_grid: Sequence[float]) -> List[SweepPoint]:
    """Spectra of H(s) over a grid of s values (the chain's own s is ignored)."""
    if chain.n_sites < 2:
        raise ValueError(f"sites must be >= 2 for a spectral gap, got {chain.n_sites}")
    points = []
    for s in s_grid:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s grid values must lie in [0, 1], got {s}")
        matrix = build_single_excitation_hamiltonian(replace(chain, s=float(s)))
        try:
            spectrum = eigensystem(matrix)
        except ConvergenceError as exc:
            raise ConvergenceError(f"eigensolve failed at s={s}: {exc}") from exc
        points.append(
            SweepPoint(
                s=float(s),
                ground_energy=float(spectrum.eigenvalues[0]),
                spectral_gap=float(spectrum.eigenvalues[1] - spectrum.eigenvalues[0]),
                ground_participation_ratio=float(spectrum.participation_ratios[0]),
            )
        )
    return points
