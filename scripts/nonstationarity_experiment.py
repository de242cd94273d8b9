"""Nonstationarity experiment: moving covariance vs the global picture.

Generates regime-switching data, tracks the exponentially weighted moving
covariance along the stream, and reports how far it drifts from the
whole-sample covariance (the global estimate an ordinary PCA would use).
Then runs EWMPCA against classical PCA on the same data and writes their
component cross-covariance and cross-correlation matrices.

Usage: python scripts/nonstationarity_experiment.py --rows 3000 --cols 4 \
           --switch-points 1000,2000 --alpha 0.97 --output-dir OUT
"""

import argparse
import os

import numpy as np

from streampca.ewmpca import EwmPCA
from streampca.ewmstats import ewm_init, ewm_update
from streampca.ipca import IteratedPCA
from streampca.linalg import (
    cross_correlation,
    cross_covariance,
    frobenius_norm,
    sample_covariance,
)
from streampca.synth import regime_switch
from streampca.tableio import ObservationTable, write_labeled_matrix, write_table


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

    z_classic = IteratedPCA().fit_transform(x)
    z_moving = EwmPCA(args.alpha).add_all(x)  # pure online, from the identity
    corr = cross_correlation(z_classic, z_moving)
    off = np.abs(corr[~np.eye(args.cols, dtype=bool)])
    print(f"classical-vs-EWMPCA crosscorrelation: max |offdiag| {off.max():.3f}")

    os.makedirs(args.output_dir, exist_ok=True)
    write_table(
        os.path.join(args.output_dir, "covariance_distance.csv"),
        ObservationTable(["distance"], distances[:, None]),
    )
    rows = [f"PC{j + 1}" for j in range(args.cols)]
    cols = [f"EWMPC{j + 1}" for j in range(args.cols)]
    write_labeled_matrix(
        os.path.join(args.output_dir, "crosscovariance.csv"),
        cross_covariance(z_classic, z_moving), rows, cols, corner="component",
    )
    write_labeled_matrix(
        os.path.join(args.output_dir, "crosscorrelation.csv"),
        corr, rows, cols, corner="component",
    )
    print(f"wrote plot-ready CSVs to {args.output_dir}/")


if __name__ == "__main__":
    main()
