"""Walks and single-excitation chain dynamics on the qualifying sequence.

Two walks are provided. The literal turn-operator walk is deterministic: it
rewrites (node, coin) to (next node, turn label), ignoring the incoming coin,
and its geometric trajectory must reproduce the traced curve. The coined walk
is a proper unitary: a per-site coin rotation whose angle is selected by the
site's turn parity, followed by a coin-conditioned shift with reflecting ends.
Both walk entries check their input once. Real coins on a real start keep
every amplitude real, so ``run_walk`` steps two float64 arrays in place, with
the products and sums of the complex kernel of ``unitary_walk_step`` in the
same order, and gives the same bits; it checks the norm once, after the last
step. No command calls the oracles :func:`deterministic_walk` and the complex
kernel (:class:`WalkState`, :func:`localized_state`, :func:`unitary_walk_step`).

Oscillator physics is computed entirely in the single-excitation sector,
where the interpolated chain Hamiltonian is a real symmetric tridiagonal
matrix: diagonal (1-s)*omega_n, off-diagonal s*g(turn_n). Its eigensystem
comes from LAPACK through :func:`tridiag.eigh_tridiagonal`.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import (
    TURN_LEFT,
    TURN_RIGHT,
    scan_members,
    site_energies,
    turn_parity,
    turn_sequence,
)
from .errors import ConvergenceError, InvariantError, ResourceLimitError
from .tridiag import SymTridiag, eigh_tridiagonal

NORM_TOL = 1e-8

# Bound on the Gershgorin radius max(max omega, 2 max |g|), which holds every eigenvalue of
# H(s), s in [0, 1] (Golub & Van Loan, 7.2.1): with it, LAPACK's scaled squares stay finite.
SPECTRUM_BOUND = 2.0**500

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


_HEADING_OF_UNIT = {(1, 0): "E", (0, 1): "N", (-1, 0): "W", (0, -1): "S"}


def deterministic_walk(k: int) -> DeterministicWalk:
    """Run the rewrite over the first k qualifying numbers, from (0, 0) heading east.

    The rewrite's output coin is the site's turn label, so the incoming coin
    never influences the trajectory. Implemented with complex arithmetic
    (heading as a unit in the Gaussian integers), deliberately sharing
    nothing with the turtle tracer it is checked against.
    """
    position = 0j
    heading = 1 + 0j  # east
    vertices = [(0, 0)]
    headings: List[str] = []
    turns = turn_sequence(k)
    for left in turn_parity(turns).tolist():
        headings.append(_HEADING_OF_UNIT[(int(heading.real), int(heading.imag))])
        position += heading
        vertices.append((int(position.real), int(position.imag)))
        heading *= 1j if left else -1j
    return DeterministicWalk(vertices=tuple(vertices), headings=tuple(headings), turns=tuple(turns))


# ---------------------------------------------------------------------------
# coined unitary walk
# ---------------------------------------------------------------------------

def _coin_cos_sin(coins: CoinSpec, parity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    theta = np.where(parity, coins.theta_L, coins.theta_R)
    return np.cos(theta), np.sin(theta)


def _step_real(a_l, a_r, cos_t, sin_t, reflecting: bool, rot_l, rot_r) -> None:
    """The step of ``unitary_walk_step`` on real amplitudes, in place: the same products
    and sums in the same order, into the work arrays rot_l and rot_r."""
    np.multiply(cos_t, a_l, out=rot_l)
    np.multiply(sin_t, a_r, out=rot_r)
    rot_l -= rot_r  # cos_t * a_l - sin_t * a_r
    np.multiply(sin_t, a_l, out=rot_r)
    np.multiply(cos_t, a_r, out=a_l)
    rot_r += a_l  # sin_t * a_l + cos_t * a_r
    a_l[:-1] = rot_l[1:]
    a_r[1:] = rot_r[:-1]
    a_l[-1], a_r[0] = (rot_r[-1], rot_l[0]) if reflecting else (0.0, 0.0)


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
    cos_t, sin_t = _coin_cos_sin(coins, turn_parity(turns))
    a_l, a_r = state.amplitudes[:, 0], state.amplitudes[:, 1]
    rot_l = cos_t * a_l - sin_t * a_r
    rot_r = sin_t * a_l + cos_t * a_r
    out = np.zeros_like(state.amplitudes)
    out[:-1, 0] = rot_l[1:]
    out[1:, 1] = rot_r[:-1]
    if boundary == BOUNDARY_REFLECTING:
        out[0, 1] += rot_l[0]
        out[-1, 0] += rot_r[-1]
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
    cos_t, sin_t = _coin_cos_sin(coins, scan_members(k=n_positions).turns)
    reflecting = boundary == BOUNDARY_REFLECTING
    a_l, a_r, rot_l, rot_r = np.zeros((4, n_positions))
    (a_l if initial_coin == TURN_LEFT else a_r)[initial_site - 1] = 1.0
    series = np.empty((steps + 1, n_positions))
    for i in range(steps + 1):
        if i:
            _step_real(a_l, a_r, cos_t, sin_t, reflecting, rot_l, rot_r)
        row = series[i]
        np.multiply(a_l, a_l, out=row)
        np.multiply(a_r, a_r, out=rot_l)  # rot_l is free until the next step
        row += rot_l
    drift = np.max(np.abs(np.sqrt(series.sum(axis=1)) - 1.0)) if reflecting else 0.0
    if not drift <= NORM_TOL:
        raise InvariantError(f"walk norm drifted from 1 by {drift:.3e}, over {NORM_TOL:.0e}")
    return series


# ---------------------------------------------------------------------------
# site energies and the single-excitation chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OscillatorChain:
    """Chain parameters: site frequencies, turn-selected couplings, mix s. ``turns``,
    one per adjacent pair, is given as labels or ``core``'s parity and held as the
    read-only parity. Two chains are equal when all five are."""

    omegas: Tuple[float, ...]
    g_L: float
    g_R: float
    turns: np.ndarray
    s: float

    def __post_init__(self):
        if len(self.omegas) < 1:
            raise ValueError("chain needs at least one site")
        if any(not (w > 0) for w in self.omegas):
            raise ValueError("site frequencies must be positive")
        try:
            turns = vars(self)["turns"] = turn_parity(self.turns)
        except ValueError:
            raise ValueError("turn labels must be 'L' or 'R'") from None
        if len(turns) != len(self.omegas) - 1:
            raise ValueError(
                f"need one turn per adjacent pair: {len(self.omegas) - 1}, "
                f"got {len(turns)}"
            )
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must be in [0, 1], got {self.s}")

    def __eq__(self, other):
        return isinstance(other, OscillatorChain) and np.array_equal(self.turns, other.turns) and (
            self.omegas, self.g_L, self.g_R, self.s) == (
                other.omegas, other.g_L, other.g_R, other.s)

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
    A Gershgorin radius past SPECTRUM_BOUND raises, naming what set it.
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
        omegas = site_energies(members, alpha, beta)
        bad = min(omegas) if min(omegas) <= 0 else max(omegas)
        if not 0 < bad < math.inf:
            raise ValueError(f"alpha {alpha} and beta {beta} give a site energy of {bad}; "
                             f"site energies must be {'positive' if bad <= 0 else 'finite'}")
        set_by = f"alpha {alpha} and beta {beta}"
    else:
        omegas, set_by = [float(omega)] * n_sites, "omega"
    radii = {"g_l": 2 * abs(g_L), "g_r": 2 * abs(g_R), set_by: max(omegas)}
    source = max(radii, key=radii.get)
    if radii[source] > SPECTRUM_BOUND:
        raise ValueError(f"{source} must keep the spectrum's Gershgorin radius "
                         f"max(max omega, 2 max |g|) within 2**500, got {float(radii[source])!r}")
    return OscillatorChain(omegas=tuple(omegas), g_L=g_L, g_R=g_R, turns=members.turns[:-1], s=s)


def _hamiltonian_at(chain: OscillatorChain):
    """H(s) of the chain for any s, from bands built once (the chain's s unused)."""
    omegas = np.asarray(chain.omegas, dtype=float)
    couplings = np.where(chain.turns, float(chain.g_L), float(chain.g_R))
    return lambda s: SymTridiag(diag=(1.0 - s) * omegas, offdiag=s * couplings)


def build_single_excitation_hamiltonian(chain: OscillatorChain) -> SymTridiag:
    """H(s) = (1-s) H0 + s H_int restricted to the one-excitation sector.

    Number-conserving hopping between neighbors acts on this sector as the
    tridiagonal matrix with diagonal (1-s)*omega_n and off-diagonal
    s*g(turn_n) between sites n and n+1.
    """
    return _hamiltonian_at(chain)(chain.s)


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
    squares = np.ascontiguousarray((v * v).T)
    norm_sq = squares.sum(axis=1)
    bad = ~(np.abs(norm_sq - 1.0) <= NORM_TOL)
    if bad.any():
        raise ValueError(f"vector norm^2 is {norm_sq[bad][0]:.6f}, expected 1")
    return 1.0 / (squares * squares).sum(axis=1)


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
    """Spectra of H(s) over a grid of s values (the chain's own s is ignored).

    Every s is checked before the first eigensolve; the bands are built once.
    """
    if chain.n_sites < 2:
        raise ValueError(f"sites must be >= 2 for a spectral gap, got {chain.n_sites}")
    grid = list(s_grid)
    for s in grid:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s grid values must lie in [0, 1], got {s}")
    hamiltonian = _hamiltonian_at(chain)
    points = []
    for s in map(float, grid):
        try:
            spectrum = eigensystem(hamiltonian(s))
        except ConvergenceError as exc:
            raise ConvergenceError(f"eigensolve failed at s={s}: {exc}") from exc
        points.append(
            SweepPoint(
                s=s,
                ground_energy=float(spectrum.eigenvalues[0]),
                spectral_gap=float(spectrum.eigenvalues[1] - spectrum.eigenvalues[0]),
                ground_participation_ratio=float(spectrum.participation_ratios[0]),
            )
        )
    return points
