"""Nonstationarity experiment: moving covariance vs the global picture.

Generates regime-switching data, tracks the exponentially weighted moving
covariance along the stream, and reports how far it drifts from the
whole-sample covariance (the global estimate an ordinary PCA would use).
Then writes the data as ``regime_switch.csv`` and runs ``streampca compare``
on it: EWMPCA against classical PCA, their component cross-covariance and
cross-correlation matrices and the ``run.json`` sidecar.

Usage: python scripts/nonstationarity_experiment.py --rows 3000 --cols 4 \
           --switch-points 1000,2000 --alpha 0.97 --output-dir OUT
"""

import argparse
import json
import os
import sys

import numpy as np

from streampca import cli
from streampca.ewmstats import ewm_init, ewm_update
from streampca.linalg import frobenius_norm, sample_covariance
from streampca.synth import regime_switch
from streampca.tableio import ObservationTable, write_table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=3000)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--switch-points", default="1000,2000")
    parser.add_argument("--alpha", type=float, default=0.97)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale-step", type=float, default=2.0)
    parser.add_argument("--output-dir", default="nonstationarity_out")
    args = parser.parse_args()

    points = [int(s) for s in args.switch_points.split(",") if s]
    x = regime_switch(
        args.rows, args.cols, points, seed=args.seed, scale_step=args.scale_step
    )
    _, q_global = sample_covariance(x)

    # distance of the moving covariance from the global covariance, per step
    state = ewm_init(x[0], args.alpha)
    distances = np.empty(args.rows)
    distances[0] = 1.0
    for t in range(1, args.rows):
        state = ewm_update(state, x[t])
        distances[t] = frobenius_norm(state.cov - q_global) / frobenius_norm(q_global)
    print(
        f"||S_t - Q||_F / ||Q||_F: final {distances[-1]:.3f}, "
        f"max {distances.max():.3f}, min after warm-up "
        f"{distances[100:].min():.3f}"
    )

    os.makedirs(args.output_dir, exist_ok=True)
    write_table(
        os.path.join(args.output_dir, "covariance_distance.csv"),
        ObservationTable(["distance"], distances[:, None]),
    )
    # the table's 17 significant digits read back as the same doubles
    table = os.path.join(args.output_dir, "regime_switch.csv")
    write_table(table, ObservationTable([f"x{j + 1}" for j in range(args.cols)], x))
    prefix = os.path.join(args.output_dir, "")
    code = cli.main(["compare", table, "--alpha", repr(args.alpha), "--output-prefix", prefix])
    if code:
        return code
    with open(f"{prefix}run.json") as fh:
        off = json.load(fh)["diagnostics"]["max_abs_offdiag_crosscorr"]
    print(f"classical-vs-EWMPCA crosscorrelation: max |offdiag| {off:.3f}")
    print(f"wrote plot-ready CSVs to {args.output_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
