"""Command-line interface.

Subcommands cover sequence generation, counting with claim reconciliation,
prime partitioning, turn words, curve/dragon/tessellation SVGs, DAG export,
and the walk/spectrum/sweep simulations. Every command accepts ``--config``
pointing at a JSON file with the same keys as the flags; explicit flags win.

Exit status: 0 on success, 2 on validation, I/O or out-of-memory errors,
3 on numerical failures and failed internal consistency checks.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import typing
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import core, curves, dynamics, graphs, serialize, tridiag
from .errors import ConvergenceError, InvariantError, ResourceLimitError

# Claimed values for the first hundred integers, reported alongside computed
# results and never fed into any computation.
CLAIMED_COUNT_100 = 72
CLAIMED_DENSITY_100 = 0.72

# Caps on flags that size a command, checked before it scans or allocates:
# about 1 GB at 260 bytes per sweep s_grid point (core.MAX_MEMBERS, at 150
# per walk site, caps turns --k and the sites and --limit of a chain); curve
# --k and dragon --max-edges stop at DEFAULT_EDGE_CAP segments, 160 bytes
# each. dag needs about 125 bytes per integer, as its DOT is written a block
# at a time (258 MB at its cap), and primes 3.1 (406 MB for JSON, 326 MB for
# CSV), so both caps are below 1 GB. gen streams its rows and has no cap.
MAX_DAG_LIMIT = 2_000_000
MAX_PRIMES_LIMIT = 130_000_000
MAX_S_GRID_POINTS = 4_000_000


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (flags layered over the config file)."""

    limit: Optional[int] = None
    k: Optional[int] = None
    sites: Optional[int] = None
    steps: int = 100
    alpha: float = 1.0
    beta: float = 0.5
    theta_l: float = math.pi / 4
    theta_r: float = -math.pi / 4
    g_l: float = 1.0
    g_r: float = 1.0
    omega_mode: str = dynamics.OMEGA_FROM_ENERGY
    omega: float = 1.0
    s: float = 0.5
    s_grid: str = "0:1:11"
    initial_site: int = 1
    initial_coin: str = core.TURN_RIGHT
    boundary: str = dynamics.BOUNDARY_REFLECTING
    generations: int = 4
    word: Optional[str] = None
    max_len: int = 12
    placements: Optional[object] = None  # JSON string or parsed list
    unit: float = 1.0
    max_edges: int = curves.DEFAULT_EDGE_CAP
    chain: bool = True
    cluster: bool = True
    gap_primes: bool = False
    all_words: bool = False
    format: Optional[str] = None
    out: Optional[str] = None


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _config_value(name: str, value):
    """A config file value checked against its RunConfig field type.

    An int is accepted for a float field and converted, as the flag would be;
    a bool is accepted only for a bool field.
    """
    kinds = typing.get_args(_CONFIG_FIELDS[name]) or (_CONFIG_FIELDS[name],)
    if object in kinds or (value is None and type(None) in kinds):
        return value
    kind = kinds[0]
    if isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(
        f"config key {name!r} must be {kind.__name__}, got {json.dumps(value)}"
    )


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - _CONFIG_FIELDS.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
        elif name in file_cfg:
            merged[name] = _config_value(name, file_cfg[name])
    return RunConfig(**merged)


@contextmanager
def _out_stream(path: Optional[str]):
    """Stdout, or a new file beside ``path`` that replaces it once the command
    has written everything: a failure leaves any earlier file as it was. A
    symlink is followed and kept; a FIFO, device or other file that is not
    regular is written directly, as it cannot be replaced."""
    if path is None:
        yield sys.stdout
        return
    direct = os.path.exists(path) and not os.path.isfile(path)
    target = path if direct else os.path.realpath(path)
    tmp = target if direct else f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "w" if direct else "x", encoding="utf-8", newline="\n") as fh:
            yield fh
        if not direct:
            os.replace(tmp, target)
    except BaseException as exc:
        if not direct:
            with suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the requested path
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _require(cfg: RunConfig, name: str, cap: Optional[int] = None):
    value = getattr(cfg, name)
    if value is None:
        raise ValueError(f"{name} is required for this command")
    if cap is not None and value > cap:
        raise ResourceLimitError(f"{name} must be <= {cap}, got {value}")
    return value


def _format(cfg: RunConfig, default: str) -> str:
    fmt = cfg.format or default
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    return fmt


def _seed_turns(cfg: RunConfig):
    """The seed turn word: --word as upper-case text, or the first k members' parity."""
    if cfg.word is not None:
        if len(cfg.word) > curves.DEFAULT_EDGE_CAP:
            raise ResourceLimitError(f"word must be <= {curves.DEFAULT_EDGE_CAP} letters, "
                                     f"got {len(cfg.word)}")
        letters = cfg.word.upper()
        if not letters or letters.strip(core.TURN_LEFT + core.TURN_RIGHT):
            raise ValueError(f"word must be a non-empty string over L/R, got {cfg.word!r}")
        return letters
    return core.scan_members(k=_require(cfg, "k", curves.DEFAULT_EDGE_CAP)).turns


def _parse_motions(value) -> List[curves.RigidMotion]:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"placements must be valid JSON: {exc}") from None
    if not isinstance(value, list) or not value:
        raise ValueError("placements must be a non-empty JSON list of motions")
    motions = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ValueError(f"placements[{i}] must be an object")
        unknown = set(entry) - {"rotation", "reflect", "translation"}
        if unknown:
            raise ValueError(f"placements[{i}] has unknown keys: {sorted(unknown)}")
        translation = entry.get("translation", [0, 0])
        if not isinstance(translation, list) or list(map(type, translation)) != [int, int]:
            raise ValueError(f"placements[{i}] translation must be two integers, "
                             f"got {json.dumps(translation)}")
        if any(abs(c) > curves.COORD_BOUND for c in translation):
            raise ValueError(f"placements[{i}] translation must be within +-2**62, "
                             f"got {json.dumps(translation)}")
        rotation = entry.get("rotation", 0)
        if type(rotation) is not int or rotation not in (0, 90, 180, 270):
            raise ValueError(f"placements[{i}] rotation must be one of 0/90/180/270, "
                             f"got {json.dumps(rotation)}")
        reflect = entry.get("reflect", False)
        if not isinstance(reflect, bool):
            raise ValueError(f"placements[{i}] reflect must be true or false, "
                             f"got {json.dumps(reflect)}")
        motions.append(curves.RigidMotion(rotation, reflect, tuple(translation)))
    return motions


def _parse_s_grid(grid: str) -> List[float]:
    """Either comma-separated values or 'start:stop:count' (inclusive). Each value
    given must lie in [0, 1], so every point of a range does too."""
    if ":" in grid:
        *given, count = grid.split(":")
        try:
            start, stop = map(float, given)
            count = int(count)
        except ValueError:
            raise ValueError(f"s_grid range must be start:stop:count, got {grid!r}") from None
        if count < 2:
            raise ValueError("s_grid range needs at least 2 points")
    else:
        given = [v for v in grid.split(",") if v.strip() != ""]
        count = grid.count(",") + 1  # the points, counted before any is parsed
    if count > MAX_S_GRID_POINTS:
        raise ResourceLimitError(f"s_grid must be <= {MAX_S_GRID_POINTS} points, got {count}")
    try:
        values = [float(v) for v in given]
    except ValueError as exc:
        raise ValueError(f"bad s_grid value in {grid!r}") from exc
    if not values:
        raise ValueError(f"s_grid must hold at least one value, got {grid!r}")
    for text, value in zip(given, values):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"s_grid values must lie in [0, 1], got {text.strip()}")
    return [float(v) for v in np.linspace(start, stop, count)] if ":" in grid else values


def _chain_sites(cfg: RunConfig, low: int, cap: int) -> int:
    """The chain's sites, given or counted from limit. A count outside
    low..cap is reported against limit, the flag that was given."""
    if cfg.sites is not None:
        return _require(cfg, "sites", cap)
    if cfg.limit is None:
        raise ValueError("either sites or limit is required for this command")
    limit = _require(cfg, "limit", core.MAX_MEMBERS)
    n = core.count_patterned(limit)
    if n < low:
        raise ValueError(f"limit must give >= {low} chain sites, got {limit}, which gives {n}")
    if n > cap:
        raise ResourceLimitError(f"limit must give <= {cap} chain sites, got {limit}, "
                                 f"which gives {n}")
    return n


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(cfg: RunConfig) -> int:
    limit = _require(cfg, "limit")
    blocks = core.profile_blocks(limit)
    fmt = _format(cfg, "csv")
    with _out_stream(cfg.out) as stream:
        if fmt == "csv":
            rows = serialize.profile_csv_rows(blocks)
            serialize.write_csv(stream, serialize.PROFILE_CSV_HEADER, rows)
        else:
            stream.writelines(serialize.profile_json(limit, blocks))
    return 0


def _cmd_count(cfg: RunConfig) -> int:
    limit = _require(cfg, "limit")
    report = core.count_and_density(limit)
    payload = {**dataclasses.asdict(report), "claim": None}
    if limit == 100:
        claim = {
            "count": CLAIMED_COUNT_100,
            "density": CLAIMED_DENSITY_100,
            "matches_computed": report.count == CLAIMED_COUNT_100,
        }
        if report.count != CLAIMED_COUNT_100:
            claim["discrepancy"] = report.count - CLAIMED_COUNT_100
            claim["note"] = (
                "the claimed enumeration double-counts entries such as 21, 48, "
                "81, 91 and admits non-qualifying numbers such as 54, 56, 87"
            )
        payload["claim"] = claim
    with _out_stream(cfg.out) as stream:
        serialize.write_json(stream, payload)
    return 0


def _cmd_primes(cfg: RunConfig) -> int:
    limit = _require(cfg, "limit", MAX_PRIMES_LIMIT)
    primes, qualifies = graphs.split_primes(limit)
    fmt = _format(cfg, "csv")
    with _out_stream(cfg.out) as stream:
        if fmt == "csv":
            rows = serialize.prime_csv_rows(primes, qualifies)
            serialize.write_csv(stream, ("p", "group"), rows)
        else:
            serialize.write_json(stream, {"limit": limit, "patterned": primes[qualifies].tolist(),
                                          "gap": primes[~qualifies].tolist()})
    return 0


def _cmd_turns(cfg: RunConfig) -> int:
    members = core.scan_members(k=_require(cfg, "k"))
    fmt = _format(cfg, "csv")
    with _out_stream(cfg.out) as stream:
        if fmt == "csv":
            serialize.write_csv(stream, ("index", "n", "turn"), serialize.turn_csv_rows(members))
        else:
            stream.writelines(serialize.turn_json(members))
    return 0


def _emit_svg(cfg: RunConfig, svg: str, stats: dict) -> None:
    if cfg.out is None:
        sys.stdout.write(svg)
    else:
        with _out_stream(cfg.out) as stream:
            stream.write(svg)
        serialize.write_json(sys.stdout, stats)


def _cmd_curve(cfg: RunConfig) -> int:
    curve = curves.trace(_seed_turns(cfg))
    svg = serialize.curve_svg(curve, unit=cfg.unit)
    _emit_svg(cfg, svg, dataclasses.asdict(curves.curve_stats(curve)))
    return 0


def _cmd_seahorse_scan(cfg: RunConfig) -> int:
    fmt = _format(cfg, "csv")
    header = ("word", "length")
    if cfg.all_words:
        header += ("max_run_ok", "single_region_ok", "reflection_ok", "is_seahorse")
        scan = (
            (w, (r.max_turn_run_ok, r.single_region_ok, r.reflection_ok, r.is_seahorse))
            for w, r in curves.scan_turn_words(cfg.max_len)
        )
        text = serialize.BOOL_TEXT
        rows = ("%s,%d,%s,%s,%s,%s\n" % (w, len(w), *[text[f] for f in fs]) for w, fs in scan)
    else:
        words = curves.seahorse_words(cfg.max_len)
        rows = ("%s,%d\n" % (w, len(w)) for w in words)
    with _out_stream(cfg.out) as stream:
        if fmt == "csv":
            serialize.write_csv(stream, header, rows)
        elif cfg.all_words:
            listing = [{"word": w, **dict(zip(header[2:], fs))} for w, fs in scan]
            serialize.write_json(stream, {"max_len": cfg.max_len, "words": listing})
        else:
            serialize.write_json(stream, {"max_len": cfg.max_len, "seahorses": words})
    return 0


def _cmd_dragon(cfg: RunConfig) -> int:
    if cfg.max_edges < 1:
        raise ValueError(f"max_edges must be >= 1, got {cfg.max_edges}")
    _require(cfg, "max_edges", curves.DEFAULT_EDGE_CAP)
    seed = curves.trace(_seed_turns(cfg))
    grown = curves.iterate_dragon(seed, cfg.generations, max_edges=cfg.max_edges)
    stats = dataclasses.asdict(curves.curve_stats(grown))
    stats["generations"] = cfg.generations
    stats["seed_segments"] = seed.segment_count
    _emit_svg(cfg, serialize.curve_svg(grown, unit=cfg.unit), stats)
    return 0


def _cmd_tessellate(cfg: RunConfig) -> int:
    if cfg.placements is None:
        raise ValueError("placements is required for tessellate")
    motions = _parse_motions(cfg.placements)
    base = curves.trace(_seed_turns(cfg))
    tess = curves.tessellate(base, motions)
    stats = {
        "tiles": len(tess.tiles),
        "unique_edge_count": tess.unique_edge_count,
        "overlap_count": tess.overlap_count,
        "bounded_region_count": tess.bounded_region_count,
    }
    _emit_svg(cfg, serialize.tessellation_svg(tess, unit=cfg.unit), stats)
    return 0


def _cmd_dag(cfg: RunConfig) -> int:
    limit = _require(cfg, "limit", MAX_DAG_LIMIT)
    dag = graphs.build_dag(
        limit,
        include_chain=cfg.chain,
        include_prime_cluster=cfg.cluster,
        include_gap_primes=cfg.gap_primes,
    )
    graphs.verify_acyclic_and_sort(dag)
    with _out_stream(cfg.out) as stream:
        stream.writelines(serialize.dag_dot(dag))
    return 0


def _cmd_walk(cfg: RunConfig) -> int:
    n = _chain_sites(cfg, 2, core.MAX_MEMBERS)
    coins = dynamics.CoinSpec(theta_L=cfg.theta_l, theta_R=cfg.theta_r)
    series = dynamics.run_walk(
        n, cfg.steps, coins=coins, initial_site=cfg.initial_site,
        initial_coin=cfg.initial_coin, boundary=cfg.boundary,
    )
    header = ("step",) + tuple(f"site_{i}" for i in range(1, n + 1))
    with _out_stream(cfg.out) as stream:
        serialize.write_csv(stream, header, serialize.real_csv_rows(series))
    return 0


def _build_chain(cfg: RunConfig, low: int) -> dynamics.OscillatorChain:
    return dynamics.patterned_chain(
        _chain_sites(cfg, low, tridiag.MAX_DENSE_SITES),
        g_L=cfg.g_l,
        g_R=cfg.g_r,
        s=cfg.s,
        omega_mode=cfg.omega_mode,
        omega=cfg.omega,
        alpha=cfg.alpha,
        beta=cfg.beta,
    )


def _cmd_modes(cfg: RunConfig) -> int:
    chain = _build_chain(cfg, 1)
    spectrum = dynamics.eigensystem(dynamics.build_single_excitation_hamiltonian(chain))
    values, ratios = spectrum.eigenvalues.tolist(), spectrum.participation_ratios.tolist()
    line = f"%d,{serialize.REAL},{serialize.REAL}\n"
    rows = map(line.__mod__, zip(range(1, len(values) + 1), values, ratios))
    with _out_stream(cfg.out) as stream:
        serialize.write_csv(stream, ("index", "eigenvalue", "participation_ratio"), rows)
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    chain = _build_chain(cfg, 2)
    points = dynamics.adiabatic_sweep(chain, _parse_s_grid(cfg.s_grid))
    header = tuple(f.name for f in dataclasses.fields(dynamics.SweepPoint))
    line = ",".join([serialize.REAL] * len(header)) + "\n"
    rows = (line % dataclasses.astuple(point) for point in points)
    with _out_stream(cfg.out) as stream:
        serialize.write_csv(stream, header, rows)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "primes": _cmd_primes,
    "turns": _cmd_turns,
    "curve": _cmd_curve,
    "seahorse-scan": _cmd_seahorse_scan,
    "dragon": _cmd_dragon,
    "tessellate": _cmd_tessellate,
    "dag": _cmd_dag,
    "walk": _cmd_walk,
    "modes": _cmd_modes,
    "sweep": _cmd_sweep,
}


# What each subcommand's parser takes for a negative number, and so reads as a
# value wherever it reads -1 as one: argparse's default takes -1 and -.5, but not
# -1e308, -inf or the s grid -1:0:3.
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patterned",
        description="Digit-divisor numbers: sequences, curves, DAGs, dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *specs):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output path (default: stdout)")
        for spec in specs:
            spec(p)
        p.set_defaults(func=_COMMANDS[name])
        return p

    def limit(p):
        p.add_argument("--limit", type=int, help="upper bound of the integer range")

    def k_arg(p):
        p.add_argument("--k", type=int, help="number of sequence members to use")

    def fmt(p):
        p.add_argument("--format", choices=("csv", "json"))

    def word(p):
        p.add_argument("--word", help="explicit L/R turn word (overrides --k)")

    def unit(p):
        p.add_argument("--unit", type=float, help="SVG pixels per lattice unit")

    def chain_params(p):
        p.add_argument("--sites", type=int, help="number of chain sites")
        p.add_argument("--limit", type=int,
                       help="size the chain by the qualifying numbers <= limit")
        p.add_argument("--g-l", type=float, help="coupling for L-turn links")
        p.add_argument("--g-r", type=float, help="coupling for R-turn links")
        p.add_argument("--omega-mode", choices=("energy", "constant"))
        p.add_argument("--omega", type=float, help="site frequency in constant mode")
        p.add_argument("--alpha", type=float, help="match-count energy weight")
        p.add_argument("--beta", type=float, help="repeat-turn energy weight")

    add("gen", "profiles of the qualifying numbers", limit, fmt)
    add("count", "count, density, and claim reconciliation", limit)
    add("primes", "qualifying vs gap primes", limit, fmt)
    add("turns", "turn word of the sequence", k_arg, fmt)
    add("curve", "trace the turn word into an SVG curve", k_arg, word, unit)

    scan = add("seahorse-scan", "exhaustive seahorse scan of short turn words", fmt)
    scan.add_argument("--max-len", type=int, help="longest word length to scan")
    scan.add_argument("--all-words", action="store_const", const=True,
                      help="list every word with its condition flags")

    dragon = add("dragon", "iterated curve doubling as SVG", k_arg, word, unit)
    dragon.add_argument("--generations", type=int)
    dragon.add_argument("--max-edges", type=int, help="resource cap on curve size")

    tess = add("tessellate", "rigid-motion copies of a curve as SVG", k_arg, word, unit)
    tess.add_argument(
        "--placements",
        help='JSON list like [{"rotation":90,"reflect":false,"translation":[0,0]}]',
    )

    dag = add("dag", "DOT export of the number DAG", limit)
    dag.add_argument("--chain", action=argparse.BooleanOptionalAction,
                     help="include consecutive-number edges")
    dag.add_argument("--cluster", action=argparse.BooleanOptionalAction,
                     help="include consecutive-prime edges")
    dag.add_argument("--gap-primes", action="store_const", const=True,
                     help="add gap primes as isolated nodes")

    walk = add("walk", "coined-walk position distributions", chain_params)
    walk.add_argument("--steps", type=int)
    walk.add_argument("--theta-l", type=float, help="coin angle for L-turn sites")
    walk.add_argument("--theta-r", type=float, help="coin angle for R-turn sites")
    walk.add_argument("--initial-site", type=int, help="start site, 1-based")
    walk.add_argument("--initial-coin", choices=("L", "R"))
    walk.add_argument("--boundary", choices=("reflecting", "absorbing"))

    modes = add("modes", "chain eigenmodes as CSV", chain_params)
    modes.add_argument("--s", type=float, help="interpolation parameter in [0,1]")

    sweep = add("sweep", "spectral series over an s grid", chain_params)
    sweep.add_argument("--s-grid", help="comma list or start:stop:count")

    return parser


def cli_dispatch(argv) -> int:
    """Parse argv, run one subcommand, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles --help and bad flags
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
