"""Iterative refinement of approximate eigenbases of real symmetric matrices.

Given symmetric A and an approximate eigenvector matrix Xhat (columns), each
step forms

    R = I - Xhat^T Xhat          (orthonormality residual)
    S = Xhat^T A Xhat            (symmetrized; near-diagonal near the true basis)
    lambda_i = s_ii / (1 - r_ii)

and a correction E whose (i, j) entry uses the eigengap formula
(s_ij + lambda_j r_ij) / (lambda_j - lambda_i) whenever the gap
|lambda_i - lambda_j| clears the safety threshold

    delta = 2 (||S - D|| + ||A|| ||R||),        D = diag(lambda),

falling back to r_ij / 2 for clustered pairs (the diagonal always falls back:
its gap is zero).  The next iterate is Xhat + Xhat @ E.  Started close enough
to the true basis, the iteration converges monotonically and quadratically;
see T. Ogita and K. Aishima, "Iterative refinement for symmetric eigenvalue
decomposition", Japan J. Indust. Appl. Math. 35 (2018).  So
``refine_to_convergence`` refuses a start with ||R|| > MAX_DRIFT, read from
the R of its first iterate before S is formed.

All norms are Frobenius, a cheap upper bound on the spectral norm used in
the original analysis.  Overestimating delta only routes more pairs to the
conservative r_ij/2 branch, and in the stopping test Frobenius is the
stricter criterion.  Each iterate's R, S - D and lambda are formed once and
serve, in turn, the start gate, delta, the stop certificate and the returned
eigenvalues.  ``refine_to_convergence`` sorts the columns by descending
eigenvalue, so a warm refit keeps the component order of a first fit.

When delta exceeds every gap, an orthonormal Xhat gets E = 0: a false fixed
point.  So a stop is certified, and a failed one rotates Xhat by the Jacobi
eigenbasis of the whole S; for small p this stands in for the clustered-block
step of Ogita and Aishima, JJIAM 36 (2019).  Each entry works on the gate's
copy 2^-e A and scales its eigenvalues back by 2^e; the stop rules are relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import checked_max, checked_norm, frobenius_norm, jacobi_eigh

__all__ = [
    "CERT_RTOL",
    "MAX_DRIFT",
    "RecoveryError",
    "RefineDiagnostics",
    "TOL",
    "estimate_eigenvalues",
    "refine_step",
    "refine_to_convergence",
]

# A pass stops once a step norm ||X' - X|| falls below TOL.  Every stop is
# then certified, so TOL sets what a call costs, not what it returns: a
# tighter TOL takes more steps, a looser one stops short of the certificate
# and takes the Jacobi rotation, or fails.
TOL = 1e-6

# A start is refused when ||I - Xhat^T Xhat|| exceeds this bound.  ||R||_2 < 1
# is sufficient for the r_ij/2 branch, the Newton-Schulz step Xhat (I + R/2),
# to converge: it maps each eigenvalue r of R to r^2 (3 + r) / 4.
MAX_DRIFT = 1.0

# Step cap of each pass, before and after the one Jacobi rotation, so a call
# takes at most 2 x MAX_ITER steps.  Step norms that stay bounded without
# contracting would otherwise never stop; a stop at the cap passes the same
# certificate as a tolerance stop and is reported as ``truncated=True``.
MAX_ITER = 100

# A stop is certified when ||S - D|| <= CERT_RTOL ||A||.
CERT_RTOL = 1e-10


class RecoveryError(RuntimeError):
    """Refinement failed again after its one Jacobi rotation of S."""


@dataclass(frozen=True)
class RefineDiagnostics:
    """Per-call convergence record.

    ``step_norm_history`` holds the norm of every update in order;
    ``truncated`` means a pass stopped at its MAX_ITER step cap, certified
    but perhaps short of TOL, ``fallback`` that S's Jacobi
    eigenbasis rotated the basis.  ``eigenvalues`` holds the estimates of the
    returned basis, in its column order.
    """

    iterations: int
    step_norm_history: tuple[float, ...]
    truncated: bool
    fallback: bool
    eigenvalues: np.ndarray = field(compare=False)


def _check_pair(a, xhat) -> tuple[np.ndarray, np.ndarray, int, float]:
    """(2^-e A, Xhat, e, ||2^-e A||), Xhat in float64 F order, the layout of every
    returned basis, once the shapes and the one refusal of the numerical core,
    :func:`streampca.linalg.checked_max`, pass Xhat, then A, which
    :func:`streampca.linalg.checked_norm` also scales; Xhat is not scaled."""
    a = np.asarray(a, dtype=np.float64)
    xhat = np.asfortranarray(xhat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"A must be square and non-empty, got shape {a.shape}")
    if xhat.shape != a.shape:
        raise ValueError(
            f"eigenvector matrix shape {xhat.shape} does not match A shape {a.shape}"
        )
    checked_max(xhat, "Xhat", "refinement")
    a, e, norm_a = checked_norm(a, "A", "refinement")
    return a, xhat, e, norm_a


def _residual(x: np.ndarray) -> np.ndarray:
    """R = I - X^T X, formed as 0 - X^T X with 1 added to its diagonal in place,
    which is bit for bit the same: 0 - g is exact (+0 for g = 0) and
    (-g) + 1 = 1 - g."""
    r = np.subtract(0.0, np.dot(x.T, x))
    # r is a fresh C-contiguous array, so this strided slice of its ravel()
    # view is a writable view of its diagonal.
    r.ravel()[:: len(x) + 1] += 1.0
    return r


def _check_start(x: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """(R, ||R||) of a square float64 start ``x``; or a ValueError, with no numpy
    warning, when ||R|| exceeds MAX_DRIFT or X^T X overflows (inf or NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _residual(x)
        drift = frobenius_norm(r)
    if not drift <= MAX_DRIFT:
        raise ValueError(f"{name} is not near-orthonormal (||I - X^T X||_F = {drift:.3e}"
                         f" > {MAX_DRIFT:g})")
    return r, drift


def _rayleigh(a: np.ndarray, xhat: np.ndarray, r: np.ndarray):
    """Unchecked core of :func:`estimate_eigenvalues`: (lambda, S - D) for float64
    arrays of matching square shape and Xhat's R from :func:`_residual`.  S - D is
    S with lambda subtracted from its diagonal in place.  The computed
    Xhat^T (A Xhat) is symmetric only to rounding, and the wide-pair formula would
    divide that asymmetry by gaps near its size, so S is symmetrized first."""
    s = np.dot(xhat.T, np.dot(a, xhat))
    s = (s + s.T) * 0.5
    denom = 1.0 - r.diagonal()
    if abs(denom).min() < 1e-14:
        raise ValueError(
            "degenerate approximate eigenvector: column "
            f"{int(np.argmax(abs(denom) < 1e-14))} has near-zero norm"
        )
    s_diag = s.ravel()[:: len(s) + 1]  # a view: s is fresh and C-contiguous
    lam = s_diag / denom
    s_diag -= lam
    return lam, s


def estimate_eigenvalues(a, xhat) -> np.ndarray:
    """Eigenvalue estimates lambda_i = s_ii / (1 - r_ii) for a precomputed basis.

    Raises ValueError when A or Xhat has a non-finite entry, OverflowError
    when ||A|| overflows float64, and ValueError when some |1 - r_ii| < 1e-14,
    i.e. a column of Xhat has near-zero norm and the quotient is meaningless.
    """
    a, xhat, e, _ = _check_pair(a, xhat)
    return np.ldexp(_rayleigh(a, xhat, _residual(xhat))[0], e)


def _step(a: np.ndarray, xhat: np.ndarray, r: np.ndarray, norm_a: float,
          norm_r: float) -> np.ndarray:
    """One unchecked refinement step, Xhat + Xhat @ E, from Xhat's R and the
    norms ``norm_a`` = ||A|| and ``norm_r`` = ||R|| that the caller took."""
    lam, s_minus_d = _rayleigh(a, xhat, r)
    delta = 2.0 * (frobenius_norm(s_minus_d) + norm_a * norm_r)
    if not math.isfinite(delta):
        raise ArithmeticError(f"non-finite refinement threshold delta={delta}; input blew up")
    gap = lam - lam[:, None]
    wide = abs(gap) > delta
    # Dividing only where the gap is wide keeps gap == 0 out of the division;
    # the diagonal, where S - D differs from S, is never wide.
    e = 0.5 * r
    np.divide(s_minus_d + lam * r, gap, out=e, where=wide)
    return xhat + np.dot(xhat, e)


def refine_step(a, xhat) -> np.ndarray:
    """One refinement step: returns Xhat + Xhat @ E.

    Exactly orthonormal true eigenvectors are a fixed point (R = 0 and S
    diagonal make every entry of E vanish).  Raises ValueError when A or Xhat
    has a non-finite entry, and OverflowError when ||A|| overflows float64.
    """
    a, xhat, _, norm_a = _check_pair(a, xhat)
    r = _residual(xhat)
    return _step(a, xhat, r, norm_a, frobenius_norm(r))


def refine_to_convergence(a, xhat) -> tuple[np.ndarray, RefineDiagnostics]:
    """Repeat refinement steps until the update norm drops below TOL.

    Stops when ||X' - X|| < TOL, or once a pass has run MAX_ITER steps
    (diagnostics then carry ``truncated=True``).  Either stop must pass the
    certificate ||S - D|| <= CERT_RTOL ||A||, so every returned basis is an
    eigenbasis of A to that residual.  The freshly stepped matrix is
    returned, never the pre-step iterate, with its columns sorted by
    descending eigenvalue estimate; the sorted estimates come back as
    ``diagnostics.eigenvalues``.  TOL, MAX_ITER and CERT_RTOL are module
    constants: no caller sets them.

    Once per call, a failed certificate rotates the iterate by the Jacobi
    eigenbasis of S (``diagnostics.fallback``); a second pass of at most
    MAX_ITER steps follows, and a second failure raises RecoveryError.
    Before the first step, raises OverflowError when ||A|| or ||Xhat||
    overflows float64, and ValueError when A or Xhat has a non-finite entry
    or when ||I - Xhat^T Xhat||_F > MAX_DRIFT: the iteration converges only
    from a start near an orthonormal basis.
    """
    a, x, e, norm_a = _check_pair(a, xhat)
    r, norm_r = _check_start(x, "Xhat")
    steps: list[float] = []
    first, fallback = 0, False  # first: index of the current pass's first step
    while True:
        new_x = _step(a, x, r, norm_a, norm_r)
        steps.append(frobenius_norm(new_x - x))
        truncated = len(steps) - first == MAX_ITER
        x, r = new_x, _residual(new_x)
        if truncated or steps[-1] < TOL:
            lam, s_minus_d = _rayleigh(a, x, r)
            off = frobenius_norm(s_minus_d)
            if off <= CERT_RTOL * norm_a:
                break
            if fallback:
                raise RecoveryError(f"uncertified stop{' at the step cap' if truncated else ''}: "
                                    f"||S - D|| = {math.ldexp(off, e):.3e} > {CERT_RTOL:.0e} x "
                                    "||A||, after a Jacobi rotation of S")
            fallback, first = True, len(steps)
            # W's columns are positive at their largest entries: X W keeps signs
            x = np.dot(x, jacobi_eigh(np.dot(x.T, np.dot(a, x))).vectors)
            r = _residual(x)
        norm_r = frobenius_norm(r)
    order = (-lam).argsort(kind="stable")
    return x[:, order], RefineDiagnostics(
        iterations=len(steps), step_norm_history=tuple(steps), truncated=truncated,
        fallback=fallback, eigenvalues=np.ldexp(lam[order], e))
