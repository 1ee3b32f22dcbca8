"""Hyperparameter estimation from an observed partition.

The log-likelihood of (alpha, theta) given a partition is the log
partition law, a function of the block-size multiset alone. It is
maximized in unconstrained coordinates (logit(alpha), log(theta+1)),
whose logistic maps are plain ``math`` functions that cannot overflow, by
a single damped Newton search on the analytic gradient and Hessian,
started from the best point of a coarse 5x5 grid, whose 25 likelihood
values come from one vectorised closed-form evaluation; the end of that
search is diagnosed as converged, near the boundary, or stalled. The
solver takes one callback that returns the value, gradient and Hessian
together, so each point it visits costs one kernel pass.

The reparametrization phi = n(1-alpha)/(n+1+theta) is the posterior
quantity the plug-in likelihood ratio divides into n; the observed
information at the optimum, the analytic Hessian mapped to (phi, theta)
coordinates by the chain rule, supplies the Gaussian overlay used to
judge whether the plug-in is defensible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .partitions import IntegerPartition, _are_integers
from .pitman import PdParams, _loglik_derivs, _loglik_terms, _loglik_value

__all__ = [
    "MleFit",
    "SurfaceGrid",
    "LoglikSurface",
    "SymmetryReport",
    "fit_mle",
    "phi_of",
    "theta_alpha_of",
    "loglik_surface",
    "symmetry_diagnostic",
]

_BOUNDARY_MARGIN = 1e-4
_GRAD_TOL = 1e-6
_THETA_DIVERGENCE = 1e8
_PENALTY = 1e12


def phi_of(params: PdParams, n: int) -> float:
    """phi = n (1 - alpha) / (n + 1 + theta) for a database of size n."""
    if not _are_integers((n,)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return n * (1.0 - params.alpha) / (n + 1.0 + params.theta)


def theta_alpha_of(phi: float, theta: float, n: int) -> PdParams:
    """Invert the reparametrization at fixed n; errors if alpha leaves (0, 1)."""
    if not _are_integers((n,)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    alpha = 1.0 - phi * (n + 1.0 + theta) / n
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"(phi={phi}, theta={theta}) maps to alpha={alpha} outside (0, 1)")
    return PdParams(alpha=alpha, theta=theta)


def _phi_theta_hessian(n, alpha, theta, grad, hess) -> np.ndarray:
    """The log-likelihood's Hessian in (phi, theta) from its gradient
    ``grad`` and Hessian ``hess`` in (alpha, theta) at (alpha, theta).

    alpha = 1 - phi (n + 1 + theta) / n is linear in phi and theta
    separately, so besides J' H J only the mixed partial of alpha, -1/n,
    contributes, weighted by dl/dalpha.
    """
    phi = n * (1.0 - alpha) / (n + 1.0 + theta)
    jac = np.array([[-(n + 1.0 + theta) / n, -phi / n], [0.0, 1.0]])
    h = jac.T @ hess @ jac
    h[0, 1] = h[1, 0] = 0.5 * (h[0, 1] + h[1, 0]) - grad[0] / n
    return h


def _logit(p: float) -> float:
    """log(p / (1 - p)), within a few ulp of the larger of its two logs."""
    return math.log(p) - math.log1p(-p)


def _expit(z: float) -> float:
    """1 / (1 + exp(-z)); exp(z) itself where exp(-z) would overflow."""
    return math.exp(z) if z < -700.0 else 1.0 / (1.0 + math.exp(-z))


def _to_z(alpha: float, theta: float) -> np.ndarray:
    return np.array([_logit(alpha), math.log1p(theta)])


def _from_z(z) -> tuple[float, float]:
    try:
        theta = math.expm1(z[1])
    except OverflowError:  # log(theta + 1) beyond ~709.78: outside the domain
        theta = math.inf
    return _expit(float(z[0])), theta


def _make_objective(terms) -> Callable:
    """Negative log-likelihood with its gradient and Hessian in
    z = (logit alpha, log(theta + 1)), from one kernel pass per point;
    ``terms`` is the partition's ``_loglik_terms``."""

    def objective(z):
        alpha, theta = _from_z(z)
        alpha = min(max(alpha, 1e-12), 1.0 - 1e-12)
        if theta <= -alpha:
            # steer back toward the valid wedge theta > -alpha
            return _PENALTY * (1.0 + abs(z[1])), np.array([0.0, -_PENALTY]), np.zeros((2, 2))
        val, (ga, gt), ((h_aa, h_at), (_, h_tt)) = _loglik_derivs(*terms, alpha, theta)
        if not math.isfinite(val):
            return _PENALTY, np.zeros(2), np.zeros((2, 2))
        # chain rule to (logit alpha, log(theta+1))
        grad = np.array([ga * alpha * (1.0 - alpha), gt * (theta + 1.0)])
        s = alpha * (1.0 - alpha)  # dalpha/dz0; d2alpha/dz0^2 = s (1 - 2 alpha)
        c = theta + 1.0  # dtheta/dz1 = d2theta/dz1^2
        mixed = -s * c * h_at
        hess = np.array(
            [[-s * s * h_aa - ga * s * (1.0 - 2.0 * alpha), mixed], [mixed, -c * c * h_tt - gt * c]]
        )
        return -val, -grad, hess

    return objective


@dataclass(frozen=True)
class MleFit:
    """Fitted hyperparameters with convergence metadata.

    ``hessian`` holds the second derivatives of the log-likelihood at the
    optimum in (phi, theta) coordinates; the Gaussian approximation has
    covariance inv(-hessian) (observed information standing in for the
    Fisher information). ``n`` is the size of the fitted partition.
    ``grad_norm`` is the gradient norm at the optimum in the search
    coordinates and ``iterations`` the steps of the one Newton search (0
    for a degenerate partition, which is not searched).
    """

    n: int
    alpha_hat: Optional[float]
    theta_hat: Optional[float]
    loglik_at_max: Optional[float]
    phi_hat: Optional[float]
    hessian: Optional[tuple[tuple[float, float], tuple[float, float]]]
    converged: bool
    iterations: int
    diagnosis: Optional[str] = None
    warnings: tuple[str, ...] = ()
    grad_norm: Optional[float] = None

    def params(self) -> PdParams:
        if self.alpha_hat is None or self.theta_hat is None:
            raise ValueError(f"fit did not produce estimates: {self.diagnosis}")
        return PdParams(alpha=self.alpha_hat, theta=self.theta_hat)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha_hat": self.alpha_hat,
            "theta_hat": self.theta_hat,
            "phi_hat": self.phi_hat,
            "loglik": self.loglik_at_max,
            "hessian": [list(row) for row in self.hessian] if self.hessian else None,
            "converged": self.converged,
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "diagnosis": self.diagnosis,
            "warnings": list(self.warnings),
        }


def _degenerate_fit(part: IntegerPartition, diagnosis: str, warnings: tuple[str, ...]) -> MleFit:
    return MleFit(
        n=part.n,
        alpha_hat=None,
        theta_hat=None,
        loglik_at_max=None,
        phi_hat=None,
        hessian=None,
        converged=False,
        iterations=0,
        diagnosis=diagnosis,
        warnings=warnings,
    )


_START_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
_START_THETAS = (0.0, 1.0, 10.0, 100.0, 1000.0)


def _best_start(terms) -> np.ndarray:
    """The start grid point with the highest likelihood (the first of
    equals), in search coordinates, from the partition's ``_loglik_terms``."""
    alphas, thetas = np.meshgrid(_START_ALPHAS, _START_THETAS, indexing="ij")
    values = _loglik_value(*terms, alphas, thetas)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    return _to_z(_START_ALPHAS[i], _START_THETAS[j])


_NEWTON_MAX_ITER = 200


def _saddle_free_step(g, h) -> np.ndarray:
    """H^-1 g for a symmetric 2x2 H with every eigenvalue replaced by its
    absolute value, floored at the gradient's component along its
    eigenvector; 0 along an eigenvector where both are 0.

    One Jacobi rotation (Golub & Van Loan, Matrix Computations, 8.5.2)
    diagonalises H: with tau = (h11 - h00) / (2 h01) and
    t = sign(tau) / (|tau| + sqrt(1 + tau^2)), the rotation's columns
    (c, -s) and (s, c), c = 1/sqrt(1 + t^2), s = t c, are eigenvectors
    with eigenvalues h00 - t h01 and h11 + t h01.
    """
    h00, h01, h11 = float(h[0, 0]), float(h[0, 1]), float(h[1, 1])
    g0, g1 = float(g[0]), float(g[1])
    t = 0.0
    if h01 != 0.0:
        tau = (h11 - h00) / (2.0 * h01)
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    step0 = step1 = 0.0
    for lam, v0, v1 in ((h00 - t * h01, c, -s), (h11 + t * h01, s, c)):
        vg = v0 * g0 + v1 * g1
        scale = max(abs(lam), abs(vg))
        if scale > 0.0:
            step0 += vg / scale * v0
            step1 += vg / scale * v1
    return np.array([step0, step1])


def _newton(objective, z0):
    """Minimize a smooth function of two variables by damped Newton steps
    on |H|.

    ``objective(z)`` returns (f, gradient, Hessian) from one evaluation,
    and each point is evaluated once: the accepted point's Hessian sets
    the next step. Each step solves against H with every eigenvalue
    replaced by its absolute value ("saddle-free" Newton), floored at the
    gradient's component along its eigenvector (``_saddle_free_step``):
    the plain Newton step near a minimum, a descent direction at any
    curvature, and a unit step along each direction where the slope
    exceeds the curvature. The step is
    halved until f strictly decreases or, where f sits at its rounding
    noise near a minimum, until f holds within that noise while the
    gradient norm falls. The search stops when the gradient norm falls
    below 1e-10, when a step moves z by less than 1e-10 and f by less
    than 1e-12, or when no step is accepted. Returns (z, f(z), gradient,
    iterations, stopped), where ``stopped`` is False when the iteration
    cap ended the search.
    """
    z = np.asarray(z0, dtype=float)
    f, g, h = objective(z)
    for it in range(_NEWTON_MAX_ITER):
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-10:
            return z, f, g, it, True
        step = _saddle_free_step(g, h)
        noise = 1e-12 * (1.0 + abs(f))
        t = 1.0
        while True:
            z_new = z - t * step
            f_new, g_new, h_new = objective(z_new)
            if f_new < f or (f_new <= f + noise and np.linalg.norm(g_new) < gnorm):
                break
            t *= 0.5
            if t < 1e-10:
                return z, f, g, it, True
        moved = float(np.max(np.abs(z_new - z)))
        drop = float(f - f_new)
        z, f, g, h = z_new, f_new, g_new, h_new
        if moved < 1e-10 and drop < 1e-12:
            return z, f, g, it + 1, True
    return z, f, g, _NEWTON_MAX_ITER, False


def _fit_from(terms, objective, z0, warnings) -> MleFit:
    """Newton search from the start z0; its end point is diagnosed.
    ``terms`` is the partition's ``_loglik_terms``, whose first entry is n."""
    n = terms[0]
    z, fz, grad, iterations, stable = _newton(objective, z0)

    alpha_hat, theta_hat = _from_z(z)
    loglik = -float(fz)
    grad_norm = float(np.linalg.norm(grad))

    diagnosis = None
    interior = True
    if theta_hat > _THETA_DIVERGENCE:
        interior = False
        diagnosis = "theta diverged: no interior optimum"
    elif alpha_hat < _BOUNDARY_MARGIN or alpha_hat > 1.0 - _BOUNDARY_MARGIN:
        interior = False
        diagnosis = f"alpha_hat={alpha_hat:.6g} within {_BOUNDARY_MARGIN} of the boundary"
    elif theta_hat + alpha_hat < _BOUNDARY_MARGIN:
        interior = False
        diagnosis = f"theta_hat={theta_hat:.6g} within {_BOUNDARY_MARGIN} of -alpha"

    converged = bool(interior and stable and grad_norm < _GRAD_TOL)
    if not converged and diagnosis is None:
        diagnosis = f"gradient norm {grad_norm:.3g} at termination (tolerance {_GRAD_TOL})"

    params = PdParams(alpha=alpha_hat, theta=theta_hat) if interior else None
    hessian_pt = None
    phi_hat = None
    if params is not None:
        phi_hat = phi_of(params, n)
        if converged:
            _, g, h = _loglik_derivs(*terms, alpha_hat, theta_hat)
            h = _phi_theta_hessian(n, alpha_hat, theta_hat, g, h)
            hessian_pt = tuple(tuple(float(v) for v in row) for row in h)

    return MleFit(
        n=n,
        alpha_hat=alpha_hat,
        theta_hat=theta_hat,
        loglik_at_max=loglik,
        phi_hat=phi_hat,
        hessian=hessian_pt,
        converged=converged,
        iterations=iterations,
        diagnosis=diagnosis,
        warnings=warnings,
        grad_norm=grad_norm,
    )


def fit_mle(
    part: IntegerPartition,
    *,
    small_n_threshold: int = 500,
) -> MleFit:
    """Maximize the partition log-likelihood over the open (alpha, theta) domain.

    Degenerate partitions are reported rather than fitted: with no
    repeated type the likelihood climbs forever toward alpha -> 1 /
    theta -> inf, and a single-block sample pushes the other way. A
    converged fit requires an interior optimum with gradient norm below
    1e-6 in the search coordinates; near-boundary optima are flagged, not
    clamped. One search runs, from the start grid point with the highest
    likelihood; a search that stalls inside the domain is reported with a
    gradient-norm diagnosis. Fits on partitions smaller than
    ``small_n_threshold`` carry a warning that the Gaussian shape of the
    likelihood is not established at that scale.
    """
    warnings: tuple[str, ...] = ()
    if part.n < small_n_threshold:
        warnings += (
            f"n={part.n} is below {small_n_threshold}; the Gaussian plug-in "
            "approximation is not validated at this scale",
        )
    if part.n < 2:
        return _degenerate_fit(part, "fewer than two observations", warnings)
    if part.k == 1:
        return _degenerate_fit(
            part,
            "single-block sample: likelihood increases toward the alpha -> 0 boundary",
            warnings,
        )
    if part.k == part.n:
        return _degenerate_fit(
            part,
            "no coincidences observed: likelihood diverges toward theta -> inf "
            "(equivalently alpha -> 1)",
            warnings,
        )

    terms = _loglik_terms(part)
    return _fit_from(terms, _make_objective(terms), _best_start(terms), warnings)


@dataclass(frozen=True)
class SurfaceGrid:
    """Surface sampling plan: odd point counts keep the mode on the grid."""

    n_phi: int = 41
    n_theta: int = 41
    half_width_sd: float = 3.0

    def __post_init__(self) -> None:
        sizes = (self.n_phi, self.n_theta)
        if not _are_integers(sizes) or any(s < 3 or s % 2 == 0 for s in sizes):
            raise ValueError(f"grid sizes must be odd integers >= 3, got {sizes}")
        if not (math.isfinite(self.half_width_sd) and self.half_width_sd > 0):
            raise ValueError(f"half_width_sd must be finite and positive, got {self.half_width_sd}")


@dataclass(frozen=True, eq=False)
class LoglikSurface:
    """Relative log-likelihood on a (phi, theta) grid centered at the mode.

    ``rel_loglik`` has its maximum at 0 by construction; ``gauss_overlay``
    is the quadratic 0.5 * d' H d sharing the mode. Points that map
    outside the parameter domain are flagged invalid, never dropped.
    """

    phi: np.ndarray
    theta: np.ndarray
    rel_loglik: np.ndarray
    gauss_overlay: np.ndarray
    valid: np.ndarray
    mode: tuple[float, float]
    hessian: np.ndarray
    covariance: np.ndarray
    metadata: dict = field(default_factory=dict)


def loglik_surface(
    part: IntegerPartition,
    fit: MleFit,
    grid: SurfaceGrid = SurfaceGrid(),
) -> LoglikSurface:
    """Evaluate the relative log-likelihood around a converged fit."""
    if not fit.converged or fit.hessian is None:
        raise ValueError("surface requires a converged fit with an information matrix")
    if part.n != fit.n:
        raise ValueError(f"fit was made on n={fit.n}, partition has n={part.n}")
    hess = np.asarray(fit.hessian, dtype=float)
    cov = np.linalg.inv(-hess)
    sd_phi, sd_theta = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])

    phi0, theta0 = fit.phi_hat, fit.theta_hat
    w = grid.half_width_sd
    phis = phi0 + sd_phi * np.linspace(-w, w, grid.n_phi)
    thetas = theta0 + sd_theta * np.linspace(-w, w, grid.n_theta)

    # one closed-form evaluation over every grid point inside the domain
    terms = _loglik_terms(part)
    n = terms[0]
    alphas = 1.0 - phis[:, None] * (n + 1.0 + thetas) / n
    theta_grid = np.broadcast_to(thetas, alphas.shape)
    inside = (alphas > 0.0) & (alphas < 1.0) & (theta_grid > -alphas)
    values = np.full(alphas.shape, np.nan)
    values[inside] = _loglik_value(*terms, alphas[inside], theta_grid[inside])
    valid = np.isfinite(values)
    if not valid.any():
        raise ValueError("no grid point lies inside the parameter domain")
    values -= np.nanmax(values)
    d_phi = (phis - phi0)[:, None]
    d_theta = (thetas - theta0)[None, :]
    overlay = 0.5 * (
        hess[0, 0] * d_phi**2 + (hess[0, 1] + hess[1, 0]) * d_phi * d_theta + hess[1, 1] * d_theta**2
    )
    return LoglikSurface(
        phi=phis,
        theta=thetas,
        rel_loglik=values,
        gauss_overlay=overlay,
        valid=valid,
        mode=(phi0, theta0),
        hessian=hess,
        covariance=cov,
        metadata={
            "information": "observed information at the optimum (analytic second "
            "derivatives) standing in for Fisher information",
        },
    )


@dataclass(frozen=True)
class SymmetryReport:
    """Worst relative mismatch between the surface at +d and -d offsets."""

    score: float
    worst_offset: Optional[tuple[float, float]]
    pairs_checked: int


def symmetry_diagnostic(surface: LoglikSurface) -> SymmetryReport:
    """Score the mode symmetry of a surface; diagnostic only, no pass/fail.

    Re-centers so the value at the mode is 0 (constant shifts cancel),
    then reports max over offsets d of |l(m+d) - l(m-d)| / |l(m+d)|.
    """
    ni, nj = surface.rel_loglik.shape
    if ni % 2 == 0 or nj % 2 == 0:
        raise ValueError("the symmetry check needs odd grid sizes")
    ci, cj = ni // 2, nj // 2
    l = surface.rel_loglik - surface.rel_loglik[ci, cj]
    # flipping both axes puts l(m - d) where l(m + d) sits
    mirror = l[::-1, ::-1]
    ref = np.abs(l)
    mask = surface.valid & surface.valid[::-1, ::-1] & ~(ref < 1e-12)
    mask[ci, cj] = False
    pairs = int(mask.sum())
    s = np.zeros(l.shape)
    s[mask] = np.abs(l[mask] - mirror[mask]) / ref[mask]
    score = float(s.max())
    worst = None
    if score > 0.0:
        wi, wj = np.unravel_index(np.argmax(s), s.shape)  # first row-major maximum
        worst = (
            float(surface.phi[wi] - surface.mode[0]),
            float(surface.theta[wj] - surface.mode[1]),
        )
    return SymmetryReport(score=score, worst_offset=worst, pairs_checked=pairs)
