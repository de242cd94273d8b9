"""The three benchmark workloads: seeded inputs, set-up and timed pieces.

A workload is set up once per process and then runs whole rounds.  A round
runs every piece of the workload once, and every round does the same
operations on the same inputs, so the share of failed operations does not
depend on how many rounds fit into a run.  ``run_piece`` times only the calls
into ``streampca``; it checks their outputs afterwards, untimed.

ewm-online   one ``EwmPCA.add`` per row of a fixed 2800-row stream, replayed
             from the same warmed-up model each round.  The stream is cut
             into 100 pieces of 28 rows; each piece restarts from a copy of
             the model as the previous piece left it, so a replayed piece
             computes exactly what the continuous stream computes.  An
             operation is one ``add`` call.
ipca-csv     ``streampca ipca --chunk-spec by=day`` on a timestamped CSV.
             One piece, one command; an operation is one command.
alpha-grid   ``streampca estimate-alpha --grid ...`` on a CSV drawn from a
             GARCH-type covariance process.  One piece, one command; an
             operation is one command.
"""

from __future__ import annotations

import contextlib
import copy
import io
import time
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import checks
from streampca import cli, ewmpca

clock = time.perf_counter

# ewm-online replays one stream whatever the seed: its rows that stall at a
# false fixed point of the refinement are failed operations, and how many
# there are depends on the data.  A fixed stream keeps that number the same
# in every run.  This seed was fixed before the failures were counted.
EWM_STREAM_SEED = 2108
EWM_P = 9
EWM_ALPHA = 0.97
EWM_WARMUP_ROWS = 100
EWM_ROWS = 2800
EWM_PIECES = 100

IPCA_DAYS = 5
IPCA_ROWS_PER_DAY = 390
IPCA_P = 12

ALPHA_ROWS = 200
ALPHA_P = 9
ALPHA_GRID = "0.905:0.995:0.005"
# Scalar-BEKK covariance process S_t = (1 - a - b) Sigma + a x_t x_t^T + b S_{t-1}.
# Its persistence a + b = 0.98 is where the EWM likelihood peaks, inside the grid.
BEKK_A = 0.04
BEKK_B = 0.94


@dataclass
class Piece:
    """One timed piece: wall time of the calls into the program, operations
    attempted and failed, rows whose output passed its check, failed
    operations other than the known false-fixed-point fault, and on
    ewm-online the time of every ``add`` call."""

    wall_s: float
    attempted: int
    failed: int
    rows_ok: int
    wrong: int
    latencies_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def geometric_gaussian(rng: np.random.Generator, n: int, p: int, ratio: float = 3.0) -> np.ndarray:
    """n iid rows with covariance Q diag(ratio^(p-1), ..., ratio, 1) Q^T, Q random."""
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    q = q * np.sign(np.diag(r))
    sd = np.sqrt(ratio ** np.arange(p - 1, -1, -1.0))
    return (rng.standard_normal((n, p)) * sd) @ q.T


def bekk_series(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Rows of a scalar-BEKK process, whose covariance decays like an EWM."""
    sigma = np.cov(geometric_gaussian(rng, 50 * p, p, ratio=2.0), rowvar=False)
    cov = sigma.copy()
    out = np.empty((n, p))
    z = rng.standard_normal((n, p))
    for t in range(n):
        out[t] = np.linalg.cholesky(cov) @ z[t]
        cov = (1.0 - BEKK_A - BEKK_B) * sigma + BEKK_A * np.outer(out[t], out[t]) + BEKK_B * cov
    return out


def trading_minutes(days: int, per_day: int) -> list[str]:
    """ISO timestamps of ``per_day`` minutes from 09:30 on consecutive weekdays."""
    stamps = []
    day = date(2021, 1, 4)
    for _ in range(days):
        while day.weekday() >= 5:
            day += timedelta(days=1)
        for m in range(per_day):
            hour, minute = divmod(9 * 60 + 30 + m, 60)
            stamps.append(f"{day.isoformat()}T{hour:02d}:{minute:02d}:00")
        day += timedelta(days=1)
    return stamps


def write_csv(path: Path, data: np.ndarray, stamps: list[str] | None = None) -> None:
    names = [f"x{j + 1}" for j in range(data.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(["timestamp", *names] if stamps else names) + "\n")
        for i, row in enumerate(data):
            cells = [format(v, ".17g") for v in row]
            fh.write(",".join([stamps[i], *cells] if stamps else cells) + "\n")


class EwmOnline:
    name = "ewm-online"
    n_pieces = EWM_PIECES

    def __init__(self, seed: int, workdir: Path):
        self.x = geometric_gaussian(np.random.default_rng(EWM_STREAM_SEED), EWM_WARMUP_ROWS + EWM_ROWS, EWM_P)
        head = self.x[:EWM_WARMUP_ROWS]
        # Called through the modules so that traced runs see the wrapped names.
        model = ewmpca.EwmPCA(EWM_ALPHA, initial_basis=ewmpca.seed_initial_basis(head))
        for row in head:
            model.add(row)
        # starts[k] is the model as it enters piece k; piece k - 1 fills it in.
        self.starts = {0: model}
        self.reference = None

    def run_piece(self, k: int) -> Piece:
        size = EWM_ROWS // EWM_PIECES
        lo = EWM_WARMUP_ROWS + k * size
        rows = self.x[lo : lo + size]
        model = copy.deepcopy(self.starts[k])
        lat = [0.0] * size
        outputs = []
        start = clock()
        for i in range(size):
            t0 = clock()
            z = model.add(rows[i])
            lat[i] = clock() - t0
            outputs.append((z, model.basis))
        wall = clock() - start
        self.starts.setdefault(k + 1, model)
        if self.reference is None:
            self.reference = checks.ewm_moments(self.x, EWM_ALPHA)
        means, covs = self.reference
        failed = wrong = 0
        for i, (z, basis) in enumerate(outputs):
            stalled, broken = checks.ewm_row_faults(rows[i], means[lo + i], covs[lo + i], basis, z)
            failed += stalled or broken
            wrong += broken
        problems = [f"{wrong} rows not orthonormal or not (x - m) V"] if wrong else []
        return Piece(wall, size, failed, size - failed, wrong, lat, problems)


class CliWorkload:
    """One CLI command on a seeded CSV input, run once untimed in set-up."""

    name = ""
    n_pieces = 1

    def __init__(self, seed: int, workdir: Path):
        self.input = workdir / "input.csv"
        self.output = workdir / "out.csv"
        self.make_input(np.random.default_rng(seed))
        code, _, stdout, stderr = self.run_command()
        if code != 0:
            raise RuntimeError(f"{self.name}: untimed first command failed: {stderr.strip()}")

    def run_command(self) -> tuple[int, float, str, str]:
        """Run the command in-process; exit code, wall time, stdout, stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            code = cli.main(self.argv())
            wall = clock() - t0
        return code, wall, out.getvalue(), err.getvalue()

    def run_piece(self, k: int) -> Piece:
        code, wall, stdout, stderr = self.run_command()
        if code:
            problems = [f"exit code {code}: {stderr.strip()}"]
        else:
            try:
                problems = self.check(stdout)
            except (OSError, ValueError, KeyError, IndexError) as err:
                problems = [f"unreadable output: {err!r}"]
        bad = int(bool(problems))
        return Piece(wall, 1, bad, 0 if bad else self.n_rows, bad, problems=problems)


class IpcaCsv(CliWorkload):
    name = "ipca-csv"

    def make_input(self, rng):
        self.n_rows = IPCA_DAYS * IPCA_ROWS_PER_DAY
        self.data = geometric_gaussian(rng, self.n_rows, IPCA_P)
        self.stamps = trading_minutes(IPCA_DAYS, IPCA_ROWS_PER_DAY)
        self.bounds = [(d * IPCA_ROWS_PER_DAY, (d + 1) * IPCA_ROWS_PER_DAY) for d in range(IPCA_DAYS)]
        write_csv(self.input, self.data, self.stamps)

    def argv(self):
        return ["ipca", str(self.input), "--chunk-spec", "by=day", "--output", str(self.output)]

    def check(self, stdout):
        stamps, scores = checks.read_scores_csv(self.output)
        sidecar = checks.read_json(self.output.with_suffix(".json"))
        return checks.ipca_problems(self.data, self.stamps, self.bounds, stamps, scores, sidecar)


class AlphaGrid(CliWorkload):
    name = "alpha-grid"

    def make_input(self, rng):
        self.n_rows = ALPHA_ROWS
        self.data = bekk_series(rng, ALPHA_ROWS, ALPHA_P)
        start, stop, step = (float(s) for s in ALPHA_GRID.split(":"))
        self.grid = start + step * np.arange(round((stop - start) / step) + 1)
        self.expected = None
        write_csv(self.input, self.data)

    def argv(self):
        return ["estimate-alpha", str(self.input), "--grid", ALPHA_GRID, "--output", str(self.output)]

    def check(self, stdout):
        if self.expected is None:
            self.expected = checks.loglik_grid(self.data, self.grid, 10 * ALPHA_P)
        alphas, curve = checks.read_curve_csv(self.output)
        sidecar = checks.read_json(self.output.with_suffix(".json"))
        printed = float(stdout)
        return checks.alpha_problems(self.grid, self.expected, alphas, curve, printed, sidecar)


WORKLOADS = {w.name: w for w in (EwmOnline, IpcaCsv, AlphaGrid)}
