"""Command-line front end.

Subcommands: ``synth`` (seeded synthetic observation tables), ``ipca``
(chunked warm-started PCA), ``ewmpca`` (per-observation moving PCA),
``estimate-alpha`` (ML decay fit), ``compare`` (classical PCA vs moving PCA
component cross-statistics).  Data travels as CSV observation tables
(:mod:`streampca.tableio`); every run also writes a JSON sidecar with the
keys ``command, params, alpha, eigenvalues, iterations, diagnostics`` so a
result can be reproduced from its outputs alone.  Diagnostics go to stderr,
data only to files; identical command lines on identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import date
from pathlib import Path

import numpy as np

from . import synth
from .ewmpca import EwmPCA
from .ewmstats import _check_burn_in, default_alpha_grid, estimate_alpha
from .ipca import IteratedPCA
from .linalg import cross_statistics
from .refine import RecoveryError
from .tableio import (
    ObservationTable,
    format_float,
    read_table,
    write_labeled_matrix,
    write_sidecar,
    write_table,
)

__all__ = ["main"]

_BY_PREFIX = {"year": 4, "month": 7, "day": 10}

# Most decays that a --grid spec may ask for, checked before the grid is built;
# the default grid has 500.
MAX_GRID_POINTS = 10**5

# A new component whose dot with the previous component it matches best (largest
# |dot|) is below this counts as a sign flip (a flip is near -1).
SIGN_FLIP_THRESHOLD = -0.5


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _pc_names(p: int, prefix: str = "PC") -> list[str]:
    return [f"{prefix}{j + 1}" for j in range(p)]


def _sidecar_path(output: str) -> Path:
    return Path(output).with_suffix(".json")


# ---------------------------------------------------------------------------
# chunking

def parse_chunk_spec(spec: str) -> tuple[str, object]:
    if spec.startswith("chunk="):
        try:
            size = int(spec[len("chunk="):])
        except ValueError:
            raise ValueError(f"bad chunk size in {spec!r}") from None
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        return "chunk", size
    if spec.startswith("by="):
        unit = spec[len("by="):]
        if unit not in _BY_PREFIX:
            raise ValueError(
                f"unknown chunking unit {unit!r}: expected one of {sorted(_BY_PREFIX)}"
            )
        return "by", unit
    raise ValueError(f"unrecognized chunk spec {spec!r}: use 'chunk=N' or 'by=year|month|day'")


def chunk_bounds(table: ObservationTable, spec: str) -> list[tuple[int, int]]:
    """Half-open row ranges [lo, hi) covering the table in order; under 'chunk=N'
    a 1-row remainder (no sample covariance) joins the chunk before it, and under
    'by=' a key that sorts before the previous chunk's is refused, naming its line:
    ISO-8601 prefixes sort in time order."""
    kind, value = parse_chunk_spec(spec)
    n = table.n_rows
    if kind == "chunk":
        starts = list(range(0, n, value))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        return list(zip(starts, starts[1:] + [n]))
    if table.timestamps is None:
        raise ValueError(f"chunk spec 'by={value}' needs a timestamp column in the input")
    heads = [ts[:10] for ts in table.timestamps]
    for head in dict.fromkeys(heads):  # each distinct date once, first seen first
        try:
            date.fromisoformat(head)
        except ValueError:
            i = heads.index(head)
            raise ValueError(
                f"line {table.line_of(i)}: timestamp {table.timestamps[i]!r} "
                "is not ISO-8601 (YYYY-MM-DD...)"
            ) from None
    width = _BY_PREFIX[value]
    keys = [ts[:width] for ts in table.timestamps]
    starts = [i for i in range(n) if i == 0 or keys[i] != keys[i - 1]]
    for prev, i in zip(starts, starts[1:]):
        if keys[i] < keys[prev]:
            raise ValueError(
                f"line {table.line_of(i)}: timestamp {table.timestamps[i]!r} sorts before "
                f"the previous chunk's {keys[prev]!r}; by={value} needs rows in time order"
            )
    return list(zip(starts, starts[1:] + [n]))


# ---------------------------------------------------------------------------
# commands

def _pick(args, *names: str) -> dict:
    """Sidecar params: the parsed values of the named flags, in that order."""
    return {name: getattr(args, name) for name in names}


def _write_sidecar(
    path, command, params, alpha=None, eigenvalues=None, iterations=None, diagnostics=None
) -> None:
    """The one writer of the sidecar keys, in their documented order."""
    payload = {"command": command, "params": params, "alpha": alpha}
    payload.update(eigenvalues=eigenvalues, iterations=iterations, diagnostics=diagnostics)
    write_sidecar(path, payload)


def _read_observations(path) -> ObservationTable:
    """The table every command but ``synth`` reads, refused if it holds no
    observation row."""
    table = read_table(path)
    if table.n_rows == 0:
        raise ValueError(f"{path}: no observation rows")
    return table


def cmd_synth(args) -> None:
    if args.kind == "stationary-gaussian":
        data = synth.stationary_gaussian(args.rows, args.cols, seed=args.seed)
        extra = {}
    elif args.kind == "regime-switch":
        points = _parse_int_list(args.switch_points, "switch-points")
        if not points:
            raise ValueError("regime-switch needs --switch-points")
        seeds = _parse_int_list(args.regime_seeds, "regime-seeds") if args.regime_seeds else None
        data = synth.regime_switch(
            args.rows, args.cols, points, seed=args.seed, regime_seeds=seeds
        )
        extra = {"switch_points": points, "regime_seeds": seeds}
    else:  # volatility-cluster
        data = synth.volatility_cluster(
            args.rows, args.cols, persistence=args.persistence, seed=args.seed
        )
        extra = {"persistence": args.persistence}
    write_table(args.output, ObservationTable(_pc_names(args.cols, prefix="x"), data))
    params = {**_pick(args, "kind", "rows", "cols", "seed"), **extra}
    _write_sidecar(_sidecar_path(args.output), "synth", params)
    _info(f"synth: wrote {args.rows} x {args.cols} table to {args.output}")


def cmd_ipca(args) -> None:
    table = _read_observations(args.input)
    bounds = chunk_bounds(table, args.chunk_spec)
    model = IteratedPCA()
    pieces: list[np.ndarray] = []
    eigenvalues: list[list[float]] = []
    iterations: list[int | None] = []
    continuity: list[list[float]] = []
    fallback: list[int] = []
    flips = 0
    previous = None
    for k, (lo, hi) in enumerate(bounds):
        chunk = table.data[lo:hi]
        try:
            model.fit(chunk)
        except (ValueError, OverflowError, FloatingPointError, RecoveryError) as err:
            raise type(err)(f"chunk {k} (rows {lo + 1}-{hi}): {err}") from err
        diag = model.last_fit_diagnostics_
        if diag is not None and diag.fallback:
            fallback.append(k)
        if previous is not None:
            continuity.append(np.einsum("ij,ij->j", previous, model.components_).tolist())
            # a rotation may reorder components: match each by its largest |dot|
            dots = previous.T @ model.components_
            matched = dots[abs(dots).argmax(axis=0), range(dots.shape[1])]
            flips += int((matched < SIGN_FLIP_THRESHOLD).sum())
        previous = model.components_
        eigenvalues.append(model.explained_variance_.tolist())
        iterations.append(None if diag is None else diag.iterations)
        pieces.append(model.transform(chunk))
    series = np.vstack(pieces)
    write_table(args.output, ObservationTable(_pc_names(series.shape[1]), series, table.timestamps))
    _write_sidecar(
        _sidecar_path(args.output),
        "ipca",
        _pick(args, "input", "chunk_spec"),
        eigenvalues=eigenvalues,
        iterations=iterations,
        diagnostics={
            "chunk_bounds": [[lo, hi] for lo, hi in bounds],
            "sign_continuity": continuity,
            "fallback_chunks": fallback,
        },
    )
    _info(
        f"ipca: {len(bounds)} chunk(s), {flips} sign discontinuities, "
        f"wrote {args.output}"
    )


def _fit_alpha(args, data: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, int]:
    """ML decay over --grid (default grid) with --burn-in: (grid, argmax, curve,
    the burn-in the fit used, 10 x p when --burn-in is left out)."""
    grid = parse_grid_spec(args.grid) if args.grid else default_alpha_grid()
    alpha, curve = estimate_alpha(data, grid=grid, burn_in=args.burn_in)
    return grid, alpha, curve, _check_burn_in(args.burn_in, *data.shape)


def _run_ewm(args, data: np.ndarray) -> tuple[float, dict | None, EwmPCA, np.ndarray]:
    """Resolve --alpha ('ml' fits it on the whole table first), then run EwmPCA pure
    online from the identity over every row: (alpha, ML record or None, model, series)."""
    if args.alpha == "ml":
        grid, alpha, curve, burn_in = _fit_alpha(args, data)
        ml = {
            "argmax": alpha,
            "grid": grid.tolist(),
            "loglik": curve.tolist(),
            "burn_in": burn_in,
        }
    else:
        try:
            alpha = float(args.alpha)
        except ValueError:
            raise ValueError(
                f"--alpha must be a number in (0, 1) or 'ml', got {args.alpha!r}"
            ) from None
        ml = None
    model = EwmPCA(alpha)
    return alpha, ml, model, model.add_all(data)


# sidecar params of the two commands that run EwmPCA
_EWM_PARAMS = ("input", "alpha", "grid", "burn_in")


def cmd_ewmpca(args) -> None:
    table = _read_observations(args.input)
    alpha, ml, model, series = _run_ewm(args, table.data)
    write_table(args.output, ObservationTable(_pc_names(series.shape[1]), series, table.timestamps))
    final = model.eigenvalues()
    _write_sidecar(
        _sidecar_path(args.output),
        "ewmpca",
        _pick(args, *_EWM_PARAMS),
        alpha=alpha,
        eigenvalues=None if final is None else final.tolist(),
        iterations={
            "observations": int(model.observation_count),
            **model.iteration_summary(),
        },
        diagnostics={"ml": ml},
    )
    _info(f"ewmpca: alpha={alpha}, {series.shape[0]} rows, wrote {args.output}")


def parse_grid_spec(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be 'start:stop:step', got {spec!r}")
    start, stop, step = (float(s) for s in parts)
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"grid spec {spec!r} has a non-finite start, stop or step")
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    count = np.floor((stop - start) / step + 1e-9) + 1  # inf for a tiny enough step
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"grid spec {spec!r} asks for {count:.3g} decays; at most {MAX_GRID_POINTS} "
            "are scored (use a larger step)"
        )
    count = int(count)
    if count < 1:
        raise ValueError(f"grid spec {spec!r} produces no points")
    return start + step * np.arange(count)


def cmd_estimate_alpha(args) -> None:
    table = _read_observations(args.input)
    grid, alpha, curve, burn_in = _fit_alpha(args, table.data)
    write_table(args.output, ObservationTable(["alpha", "loglik"], np.column_stack([grid, curve])))
    _write_sidecar(
        _sidecar_path(args.output),
        "estimate-alpha",
        _pick(args, "input", "grid", "burn_in"),
        alpha=alpha,
        diagnostics={"grid_size": int(grid.shape[0]), "burn_in": burn_in},
    )
    print(format_float(alpha))
    _info(f"estimate-alpha: wrote likelihood curve to {args.output}")


def cmd_compare(args) -> None:
    table = _read_observations(args.input)
    alpha, ml, model, z_moving = _run_ewm(args, table.data)
    pca = IteratedPCA()
    z_classic = pca.fit_transform(table.data)
    cov, corr = cross_statistics(z_classic, z_moving)
    p = cov.shape[0]
    rows = _pc_names(p)
    cols = _pc_names(p, prefix="EWMPC")
    prefix = args.output_prefix
    write_labeled_matrix(f"{prefix}crosscovariance.csv", cov, rows, cols, corner="component")
    write_labeled_matrix(f"{prefix}crosscorrelation.csv", corr, rows, cols, corner="component")
    off = corr[~np.eye(p, dtype=bool)]
    diagnostics = {
        "max_abs_offdiag_crosscorr": float(np.max(np.abs(off))) if off.size else None
    }
    if ml is not None:
        diagnostics["ml"] = ml
    _write_sidecar(
        f"{prefix}run.json",
        "compare",
        _pick(args, *_EWM_PARAMS),
        alpha=alpha,
        eigenvalues=pca.explained_variance_.tolist(),
        iterations=model.iteration_summary(),
        diagnostics=diagnostics,
    )
    _info(f"compare: wrote {prefix}crosscovariance.csv and {prefix}crosscorrelation.csv")


# ---------------------------------------------------------------------------
# parser

def _parse_int_list(text: str | None, name: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--{name} must be a comma-separated list of integers") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It names the command
    (``command``) but holds no command function: ``main`` looks that up by
    name, so it always runs the module's current ``cmd_*`` binding."""
    parser = argparse.ArgumentParser(
        prog="streampca",
        description="Streaming PCA toolkit: chunked warm-started PCA and "
        "exponentially weighted moving PCA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, each declared once
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input", help="CSV observation table")
    likelihood = argparse.ArgumentParser(add_help=False)
    likelihood.add_argument(
        "--grid", help="decay grid 'start:stop:step' of the ML fit (default 0.5:0.999:0.001)"
    )
    likelihood.add_argument(
        "--burn-in",
        type=int,
        help="likelihood terms before this observation count are dropped "
        "(default 10 x p)",
    )
    decay = argparse.ArgumentParser(add_help=False)
    decay.add_argument(
        "--alpha",
        required=True,
        help="decay in (0, 1), or 'ml' to fit it by maximum likelihood on the "
        "whole table before the run (a look-ahead; for a causal run, fit it on a "
        "training prefix with estimate-alpha and pass the number)",
    )

    p = sub.add_parser("synth", help="write a seeded synthetic observation table")
    p.add_argument(
        "--kind",
        required=True,
        choices=["stationary-gaussian", "regime-switch", "volatility-cluster"],
        help="generator family",
    )
    p.add_argument("--rows", type=int, required=True, help="number of observations")
    p.add_argument("--cols", type=int, required=True, help="number of features")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument(
        "--switch-points",
        help="regime-switch: comma-separated row indices where regimes change",
    )
    p.add_argument(
        "--regime-seeds",
        help="regime-switch: comma-separated covariance seeds, one per regime",
    )
    p.add_argument(
        "--persistence",
        type=float,
        default=0.97,
        help="volatility-cluster: AR(1) log-volatility persistence (default 0.97)",
    )
    p.add_argument("--output", required=True, help="CSV path to write")

    p = sub.add_parser(
        "ipca",
        parents=[source],
        help="chunked warm-started PCA over an observation table",
    )
    p.add_argument(
        "--chunk-spec",
        required=True,
        help="'chunk=N' for fixed row counts (a 1-row remainder joins the "
        "last full chunk) or 'by=year|month|day' (needs a timestamp column)",
    )
    p.add_argument("--output", required=True, help="component series CSV to write")

    p = sub.add_parser(
        "ewmpca",
        parents=[source, decay, likelihood],
        help="exponentially weighted moving PCA",
    )
    p.add_argument("--output", required=True, help="component series CSV to write")

    p = sub.add_parser(
        "estimate-alpha", parents=[source, likelihood], help="grid-search ML fit of the decay"
    )
    p.add_argument("--output", required=True, help="CSV path for the likelihood curve")

    p = sub.add_parser(
        "compare",
        parents=[source, decay, likelihood],
        help="cross-covariance/correlation between classical PCA and moving PCA components",
    )
    p.add_argument(
        "--output-prefix",
        required=True,
        help="prefix for crosscovariance.csv / crosscorrelation.csv / run.json",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        run(args)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
