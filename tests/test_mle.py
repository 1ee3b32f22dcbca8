import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import expit, gammaln, logit

from raretype import mle
from raretype.mle import (
    _NEWTON_MAX_ITER,
    _PENALTY,
    _START_ALPHAS,
    _START_THETAS,
    LoglikSurface,
    SurfaceGrid,
    _best_start,
    _expit,
    _fit_from,
    _logit,
    _make_objective,
    _newton,
    _phi_theta_hessian,
    _saddle_free_step,
    _to_z,
    fit_mle,
    loglik_surface,
    phi_of,
    symmetry_diagnostic,
    theta_alpha_of,
)
from raretype.partitions import IntegerPartition, to_integer_partition
from raretype.pitman import PdParams, _loglik_derivs, _loglik_terms, crp_sample, eppf_log
from raretype.workbench import dutch_fixture


@pytest.fixture(scope="module")
def dutch_fit():
    return fit_mle(dutch_fixture())


class TestPhi:
    def test_reference_values(self):
        # direct arithmetic: phi = n (1 - alpha) / (n + 1 + theta)
        phi = phi_of(PdParams(0.51, 216.0), 18925)
        assert phi == pytest.approx(18925 * 0.49 / 19142, abs=1e-12)
        assert round(phi, 4) == 0.4844

    def test_alpha_near_one_sends_phi_to_zero(self):
        assert phi_of(PdParams(1 - 1e-9, 5.0), 100) == pytest.approx(0.0, abs=1e-9)

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.0, 500.0),
        st.integers(1, 10**6),
    )
    def test_round_trip(self, alpha, theta, n):
        phi = phi_of(PdParams(alpha, theta), n)
        back = theta_alpha_of(phi, theta, n)
        assert back.alpha == pytest.approx(alpha, abs=1e-12)
        assert phi_of(back, n) == pytest.approx(phi, abs=1e-12)

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, np.float64(3.0)], ids=repr)
    def test_non_integer_n_is_rejected(self, n):
        # True counted as a database of one, and 2.5 gave a phi of 0.278
        with pytest.raises(ValueError, match="n must be an integer"):
            phi_of(PdParams(0.5, 1.0), n)
        with pytest.raises(ValueError, match="n must be an integer"):
            theta_alpha_of(0.2, 1.0, n)

    def test_numpy_integer_n(self):
        params = PdParams(0.5, 1.0)
        assert phi_of(params, np.int64(10)) == phi_of(params, 10)
        assert theta_alpha_of(0.2, 1.0, np.int32(10)) == theta_alpha_of(0.2, 1.0, 10)

    def test_inverse_domain_error(self):
        with pytest.raises(ValueError):
            theta_alpha_of(2.0, 0.0, 10)  # alpha would go negative
        with pytest.raises(ValueError):
            theta_alpha_of(-0.1, 0.0, 10)


class TestLogistic:
    def test_expit_saturates_like_scipy(self):
        # math.exp(800) overflows; the helper never calls it
        for z in (-800.0, 800.0, -745.5, -30.0, 0.0, 30.0):
            assert _expit(z) == expit(z)

    @given(st.floats(1e-300, 1.0, exclude_max=True))
    def test_logit_matches_scipy(self, p):
        # a difference of two negative logs: its rounding is a few ulp of the larger
        scale = max(-math.log(p), -math.log1p(-p))
        assert abs(_logit(p) - logit(p)) <= 4.0 * math.ulp(scale)


class TestFit:
    def test_dutch_fixture(self, dutch_fit):
        assert dutch_fit.converged
        assert 0.59 <= dutch_fit.alpha_hat <= 0.65
        assert 17.0 <= dutch_fit.theta_hat <= 27.0
        assert dutch_fit.hessian is not None
        assert dutch_fit.phi_hat == pytest.approx(
            phi_of(dutch_fit.params(), dutch_fit.n), abs=1e-12
        )
        # n = 2085 is small enough to carry the small-database warning
        assert any("Gaussian" in w for w in dutch_fit.warnings) is False or dutch_fit.n < 500

    def test_single_pair_degenerate(self):
        fit = fit_mle(IntegerPartition((2,), (1,)))
        assert not fit.converged
        assert "single-block" in fit.diagnosis

    def test_all_singletons_degenerate(self):
        fit = fit_mle(IntegerPartition((1,), (40,)))
        assert not fit.converged
        assert "no coincidences" in fit.diagnosis

    def test_one_observation_degenerate(self):
        fit = fit_mle(IntegerPartition((1,), (1,)))
        assert not fit.converged

    def test_small_n_warning_threshold(self):
        pi = IntegerPartition((1, 2), (5, 3))
        assert any("not validated" in w for w in fit_mle(pi).warnings)
        assert fit_mle(pi, small_n_threshold=5).warnings == ()

    def test_maximum_dominates_random_probes(self, dutch_fit):
        pi = dutch_fixture()
        rng = np.random.default_rng(7)
        for _ in range(100):
            alpha = rng.uniform(0.01, 0.99)
            theta = rng.uniform(-alpha + 0.01, 500.0)
            assert eppf_log(pi, PdParams(alpha, theta)) <= dutch_fit.loglik + 1e-9

    def test_doubled_database_smoke(self):
        pi = dutch_fixture()
        doubled = IntegerPartition(pi.a, tuple(2 * x for x in pi.r))
        fit = fit_mle(doubled)
        assert fit.converged
        assert math.isfinite(fit.loglik)

    def test_recovery_quick(self):
        # seed-averaged recovery of the generating discount at modest n
        hats = []
        for seed in range(3):
            plan = crp_sample(4000, PdParams(0.5, 50.0), seed=seed)
            fit = fit_mle(to_integer_partition(plan.to_set_partition()))
            assert fit.converged
            hats.append(fit.alpha_hat)
        assert abs(np.mean(hats) - 0.5) < 0.06

    def test_overflowing_step_is_out_of_domain(self):
        # a quasi-Newton search from the (0.1, 10) start once stepped to
        # log(theta + 1) > 709.78, where expm1 overflows; the fit must still
        # end in the boundary diagnosis (the guard itself is tested below)
        fit = fit_mle(IntegerPartition(a=(1, 2), r=(120, 10)))
        assert not fit.converged
        assert fit.alpha_hat < 1e-4
        assert "of the boundary" in fit.diagnosis

    @given(
        st.integers(5, 400),
        st.floats(0.05, 0.95),
        st.floats(0.0, 200.0),
        st.integers(0, 2**32 - 1),
    )
    def test_single_start_matches_grid_search(self, n, alpha, theta, seed):
        plan = crp_sample(n, PdParams(alpha, theta), seed=seed)
        part = IntegerPartition.from_block_sizes(plan.table_counts)
        assume(1 < part.k < part.n)
        fit = fit_mle(part)
        # the reference: the best of one search from each of the 25 grid points
        wide = max(
            (
                _fit_from(_loglik_terms(part), _to_z(a0, t0), fit.warnings)
                for a0 in _START_ALPHAS
                for t0 in _START_THETAS
            ),
            key=lambda grid_fit: grid_fit.loglik,
        )
        assert fit.converged == wide.converged
        assert _diagnosis_kind(fit.diagnosis) == _diagnosis_kind(wide.diagnosis)
        # a fit that did not converge has no unique optimum to compare
        if fit.converged:
            assert fit.alpha_hat == pytest.approx(wide.alpha_hat, rel=0, abs=1e-9)
            assert fit.theta_hat == pytest.approx(wide.theta_hat, rel=1e-9, abs=1e-9)

    def test_single_search_does_not_stall(self):
        # fit_mle runs one search; over seeded draws spanning n in 5..20000
        # (log-uniform), alpha in 0.005..0.995 and theta in 1e-3..5e3
        # (log-uniform), a fifth with theta just above -alpha, every search
        # must end converged or at the boundary, never stalled inside
        rng = np.random.default_rng(20260)
        stalled = []
        searched = 0  # 231 of the 300 partitions are neither one block nor all singletons
        for seed in range(300):
            n = int(round(10 ** rng.uniform(math.log10(5), math.log10(20_000))))
            alpha = rng.uniform(0.005, 0.995)
            if seed % 5 == 0:
                theta = -alpha + 10 ** rng.uniform(-3, 0)
            else:
                theta = 10 ** rng.uniform(-3, math.log10(5e3))
            plan = crp_sample(n, PdParams(alpha, theta), seed=seed)
            fit = fit_mle(IntegerPartition.from_block_sizes(plan.table_counts))
            searched += fit.iterations > 0
            if fit.diagnosis and fit.diagnosis.startswith("gradient norm"):
                stalled.append((n, alpha, theta, seed, fit.diagnosis))
        assert searched >= 200
        assert not stalled

    @given(
        st.integers(5, 20000),
        st.floats(0.02, 0.98),
        st.floats(-0.01, 3000.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_start_scan_matches_pointwise_rule(self, n, alpha, theta, seed):
        # the vectorised scan picks the start the per-point objective picks
        plan = crp_sample(n, PdParams(alpha, theta), seed=seed)
        part = IntegerPartition.from_block_sizes(plan.table_counts)
        assume(1 < part.k < part.n)
        objective = _make_objective(_loglik_terms(part))
        grid = [_to_z(a0, t0) for a0 in _START_ALPHAS for t0 in _START_THETAS]
        start = min(grid, key=lambda z: objective(z)[0])
        assert np.array_equal(_best_start(_loglik_terms(part)), start)

    def test_params_accessor_raises_on_degenerate(self):
        fit = fit_mle(IntegerPartition((1,), (3,)))
        with pytest.raises(ValueError):
            fit.params()

    def test_to_dict_round_trips_json(self, dutch_fit):
        import json

        payload = json.dumps(dutch_fit.to_dict())
        back = json.loads(payload)
        assert back["converged"] is True
        assert back["alpha_hat"] == dutch_fit.alpha_hat
        assert "starts" not in back
        assert 0.0 <= back["grad_norm"] < 1e-6
        # the payload's keys in order; a degenerate fit's values are the defaults
        keys = "n alpha_hat theta_hat phi_hat loglik hessian converged iterations grad_norm diagnosis warnings"
        degenerate = json.loads(json.dumps(fit_mle(IntegerPartition((1,), (3,))).to_dict()))
        assert list(back) == list(degenerate) == keys.split()
        assert degenerate == {
            **dict.fromkeys(keys.split()),
            "n": 3,
            "converged": False,
            "iterations": 0,
            "diagnosis": degenerate["diagnosis"],
            "warnings": [degenerate["warnings"][0]],
        }
        assert degenerate["diagnosis"].startswith("no coincidences")


@pytest.fixture(scope="module")
def crp_18925():
    plan = crp_sample(18925, PdParams(0.51, 216.0), seed=0)
    return IntegerPartition.from_block_sizes(plan.table_counts)


class TestNewton:
    @pytest.mark.parametrize("which", ["dutch", "crp_18925"])
    def test_every_grid_start_reaches_the_fit(self, which, crp_18925):
        # Newton on H shifted to be positive definite stalls from (0.1, 1) on
        # the Dutch fixture and runs off to alpha -> 0 from (0.9, 1000) on the
        # draw; each start alone must reach the one interior optimum
        pi = dutch_fixture() if which == "dutch" else crp_18925
        fit = fit_mle(pi)
        for a0 in _START_ALPHAS:
            for t0 in _START_THETAS:
                alone = _fit_from(_loglik_terms(pi), _to_z(a0, t0), fit.warnings)
                assert alone.converged, (a0, t0, alone.diagnosis)
                assert alone.alpha_hat == pytest.approx(fit.alpha_hat, rel=0, abs=1e-9)

    def test_boundary_searches_stop_before_the_cap(self):
        # the likelihood peaks at alpha -> 0, where f flattens to its float
        # floor; every search must still stop on its own
        part = IntegerPartition(a=(1, 2), r=(120, 10))
        objective = _make_objective(_loglik_terms(part))
        for a0 in _START_ALPHAS:
            for t0 in _START_THETAS:
                *_, iterations, stopped = _newton(objective, _to_z(a0, t0))
                assert stopped and iterations < _NEWTON_MAX_ITER, (a0, t0)

    @pytest.mark.parametrize("which", ["dutch", "crp_18925", "boundary"])
    def test_each_point_takes_one_kernel_pass(self, which, crp_18925, monkeypatch):
        # the search evaluates no z twice, and each evaluation runs the
        # kernel once; a converged fit adds one pass for its information
        pi = {
            "dutch": dutch_fixture(),
            "crp_18925": crp_18925,
            "boundary": IntegerPartition(a=(1, 2), r=(120, 10)),
        }[which]
        kernel, newton = mle._loglik_derivs, mle._newton
        passes, points = [], []

        def counted_kernel(*args):
            passes.append(args[-2:])
            return kernel(*args)

        def counted_newton(objective, z0):
            def counted(z):
                points.append(tuple(np.asarray(z).tolist()))
                return objective(z)

            return newton(counted, z0)

        monkeypatch.setattr(mle, "_loglik_derivs", counted_kernel)
        monkeypatch.setattr(mle, "_newton", counted_newton)
        fit = fit_mle(pi)
        assert fit.iterations > 0
        assert len(set(points)) == len(points)
        if which != "boundary":
            assert fit.converged and len(passes) == len(points) + 1

    def test_overflowing_theta_returns_the_penalty(self):
        # log(theta + 1) = 800 overflows expm1: theta = inf is outside the
        # domain; so is theta = -0.7 <= -alpha, inside the search box
        objective = _make_objective(_loglik_terms(dutch_fixture()))
        for z in (np.array([0.0, 800.0]), _to_z(0.5, -0.7)):
            f, g, h = objective(z)
            assert f == _PENALTY
            assert not g.any() and not h.any()

    def test_newton_step_near_a_minimum(self):
        # where the gradient is small against the curvature, one plain
        # Newton step solves a quadratic
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, -4.0])
        z_min = np.linalg.solve(a, b)
        for z0, most in ((z_min + [0.1, -0.2], 1), (np.array([40.0, -70.0]), _NEWTON_MAX_ITER)):
            z, _, _, iterations, stopped = _newton(lambda z: (0.5 * z @ a @ z - b @ z, a @ z - b, a), z0)
            assert stopped and iterations <= most
            assert np.abs(z - z_min).max() < 1e-12

    def test_closed_form_step_matches_eigh(self):
        # each component of the step is g's along an eigenvector over
        # max(|lambda|, |that component|): rounding in g's components
        # reaches it as eps |g| / that scale, so the error is measured
        # against the largest such ratio
        rng = np.random.default_rng(17)
        cases = []
        while len(cases) < 2000:
            # random eigenvalues of either sign within two decades, apart
            # by a tenth of the larger, in a random basis, at any scale
            lam = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-1, 1, 2)
            if abs(lam[0] - lam[1]) < 0.1 * np.abs(lam).max():
                continue
            scale = 10.0 ** rng.uniform(-6, 6)
            angle = rng.uniform(0, np.pi)
            basis = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            h = basis @ np.diag(lam * scale) @ basis.T
            cases.append((rng.normal(size=2) * scale * 10.0 ** rng.uniform(-1, 1), (h + h.T) / 2))
        # indefinite, with either eigenvalue the larger in magnitude
        cases += [(rng.normal(size=2), np.array([[1.0, 3.0], [3.0, -2.0]]) * s) for s in (1e-3, 1.0, -7.0)]
        # no off-diagonal: equal, distinct and zero diagonals
        for diag in ((2.0, 2.0), (-3.0, 0.5), (1e-9, 4e4), (0.0, 0.0), (0.0, 5.0)):
            cases.append((np.array([0.3, -1.2]), np.diag(diag)))
        # a gradient component of 0, in each coordinate and along an eigenvector
        h = np.array([[4.0, 1.0], [1.0, -3.0]])
        cases += [(np.array([0.0, 2.0]), h), (np.array([-1.5, 0.0]), h)]
        cases += [(np.linalg.eigh(h)[1][:, 0] * 2.5, h), (np.zeros(2), h)]
        # and 0 with its eigenvalue: no step along that eigenvector
        cases.append((np.array([0.0, 1.0]), np.diag([0.0, 2.0])))
        for g, h in cases:
            lam, vec = np.linalg.eigh(h)
            vg = vec.T @ g
            scale = np.maximum(np.abs(lam), np.abs(vg))
            want = vec @ np.divide(vg, scale, out=np.zeros_like(vg), where=scale > 0)
            bound = np.abs(g).max() / scale[scale > 0].min()
            assert np.abs(_saddle_free_step(g, h) - want).max() <= 1e-14 * bound, (g, h)

    def test_leaves_a_saddle(self):
        # f = x^4/4 - x^2/2 + y^2/2 has a saddle at 0 and minima at x = +-1; a
        # plain Newton step from (0.1, 1) heads for the saddle
        def objective(z):
            x, y = z
            return x**4 / 4 - x**2 / 2 + y**2 / 2, np.array([x**3 - x, y]), np.diag([3 * x**2 - 1, 1.0])

        z, *_, stopped = _newton(objective, [0.1, 1.0])
        assert stopped
        assert np.abs(z - [1.0, 0.0]).max() < 1e-9


def _diagnosis_kind(diagnosis):
    """The diagnosis without its numbers: 'alpha_hat', 'theta_hat', 'theta'
    (diverged) or 'gradient'."""
    return None if diagnosis is None else re.split(r"[=: ]", diagnosis)[0]


class TestGradientKernel:
    @given(
        st.floats(0.1, 0.9),
        st.floats(0.5, 60.0),
    )
    # near the zero of dl/dalpha: a forward difference's truncation error,
    # (h/2)|d2l/dalpha2|, is 2.4e-5 here, above abs=1e-5
    @example(0.5091726870785914, 0.9360965631815882)
    def test_analytic_gradient_matches_direct_sum_differences(self, alpha, theta):
        # digamma-based gradient against central differences of the
        # kernel's value (eppf_log); alpha >= 0.1 and theta >= 0.5 keep the
        # x - h points inside the parameter space
        pi = IntegerPartition((1, 2, 3, 7), (6, 3, 2, 1))
        terms = _loglik_terms(pi)

        def direct(al, th):
            return eppf_log(pi, PdParams(al, th))

        _, (ga, gt), _ = _loglik_derivs(*terms, alpha, theta)
        h = 1e-6
        fd_a = (direct(alpha + h, theta) - direct(alpha - h, theta)) / (2 * h)
        fd_t = (direct(alpha, theta + h) - direct(alpha, theta - h)) / (2 * h)
        assert ga == pytest.approx(fd_a, rel=1e-3, abs=1e-5)
        assert gt == pytest.approx(fd_t, rel=1e-3, abs=1e-5)

    def test_tight_central_difference_agreement(self):
        pi = IntegerPartition((1, 2, 5), (9, 4, 2))
        terms = _loglik_terms(pi)
        rng = np.random.default_rng(5)
        for _ in range(10):
            alpha = rng.uniform(0.15, 0.85)
            theta = rng.uniform(0.5, 40.0)
            _, (ga, gt), _ = _loglik_derivs(*terms, alpha, theta)
            h = 1e-5
            fd_a = (
                eppf_log(pi, PdParams(alpha + h, theta)) - eppf_log(pi, PdParams(alpha - h, theta))
            ) / (2 * h)
            fd_t = (
                eppf_log(pi, PdParams(alpha, theta + h)) - eppf_log(pi, PdParams(alpha, theta - h))
            ) / (2 * h)
            assert ga == pytest.approx(fd_a, rel=1e-5, abs=1e-8)
            assert gt == pytest.approx(fd_t, rel=1e-5, abs=1e-8)


class TestHessianKernel:
    @given(
        st.sampled_from([IntegerPartition((1, 2, 3, 7), (6, 3, 2, 1)), dutch_fixture()]),
        st.floats(0.05, 0.95),
        st.floats(0.05, 300.0),
    )
    def test_analytic_hessian_matches_gradient_differences(self, pi, alpha, theta):
        # both coordinate systems: (phi, theta) for the reported information,
        # z = (logit alpha, log(theta + 1)) for the Newton search
        terms = _loglik_terms(pi)
        n = terms[0]
        theta -= alpha  # theta > -alpha by at least 0.05

        def grad_phi_theta(x):
            phi, th = x
            _, (ga, gt), _ = _loglik_derivs(*terms, 1.0 - phi * (n + 1.0 + th) / n, th)
            return np.array([-ga * (n + 1.0 + th) / n, -ga * phi / n + gt])

        objective = _make_objective(_loglik_terms(pi))
        _, g, h = _loglik_derivs(*terms, alpha, theta)
        phi = n * (1.0 - alpha) / (n + 1.0 + theta)
        for h, grad, x, scale in (
            (_phi_theta_hessian(n, alpha, theta, g, h), grad_phi_theta, (phi, theta), 1e-2),
            (objective(_to_z(alpha, theta))[2], lambda z: objective(z)[1], _to_z(alpha, theta), 1.0),
        ):
            x = np.asarray(x, dtype=float)
            fd = np.empty((2, 2))
            for j in range(2):
                step = np.zeros(2)
                step[j] = 1e-5 * max(abs(x[j]), scale)
                fd[:, j] = (grad(x + step) - grad(x - step)) / (2 * step[j])
            assert np.abs(h - fd).max() <= 1e-6 * np.abs(h).max()


def _strict_local_maxima(surface):
    vals, valid = surface.rel_loglik, surface.valid
    out = []
    ni, nj = vals.shape
    for i in range(ni):
        for j in range(nj):
            if not valid[i, j]:
                continue
            neigh = [
                vals[x, y]
                for x in (i - 1, i, i + 1)
                for y in (j - 1, j, j + 1)
                if (x, y) != (i, j) and 0 <= x < ni and 0 <= y < nj and valid[x, y]
            ]
            if neigh and all(vals[i, j] > v for v in neigh):
                out.append((i, j))
    return out


def _direct_loglik(pi, alpha, theta):
    """The partition log-likelihood with both long rising factorials summed
    term by term and the block sizes' as gammaln differences (-inf outside
    the open domain)."""
    if not (0.0 < alpha < 1.0 and theta > -alpha):
        return -math.inf
    val = float(np.log(theta + alpha * np.arange(1.0, pi.k)).sum())
    val -= float(np.log(theta + np.arange(1.0, pi.n)).sum())
    a, r = np.asarray(pi.a, dtype=float), np.asarray(pi.r, dtype=float)
    return val + float(r @ (gammaln(a - alpha) - gammaln(1.0 - alpha)))


class TestSurface:
    def test_mode_value_zero_and_centered(self, dutch_fit):
        surf = loglik_surface(dutch_fixture(), dutch_fit)
        ci, cj = len(surf.phi) // 2, len(surf.theta) // 2
        assert surf.rel_loglik[ci, cj] == 0.0
        assert np.nanmax(surf.rel_loglik) == 0.0

    def test_unimodal_on_default_grid(self, dutch_fit):
        surf = loglik_surface(dutch_fixture(), dutch_fit)
        assert _strict_local_maxima(surf) == [(len(surf.phi) // 2, len(surf.theta) // 2)]

    def test_gaussian_overlay_taylor_agreement(self, dutch_fit):
        # at the four nearest neighbours of the mode the quadratic should
        # match the surface up to the cubic remainder
        surf = loglik_surface(dutch_fixture(), dutch_fit, SurfaceGrid(5, 5, 0.5))
        ci, cj = 2, 2
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rel = surf.rel_loglik[ci + di, cj + dj]
            overlay = surf.gauss_overlay[ci + di, cj + dj]
            assert rel == pytest.approx(overlay, rel=0.2, abs=5e-4)

    def test_matches_pointwise_loglik(self, dutch_fit):
        big = to_integer_partition(crp_sample(18925, PdParams(0.51, 216.0), seed=11).to_set_partition())
        # fitted theta/alpha ~ 3e5 against k = 3408
        flat = IntegerPartition.from_block_sizes(crp_sample(4000, PdParams(0.1, 1e4), seed=2).table_counts)
        flat_fit = fit_mle(flat)
        assert flat_fit.converged and flat_fit.theta_hat / flat_fit.alpha_hat > 50 * flat.k
        cases = (
            (dutch_fixture(), dutch_fit, SurfaceGrid()),
            (dutch_fixture(), dutch_fit, SurfaceGrid(21, 21, 6.0)),  # has invalid points
            (big, fit_mle(big), SurfaceGrid()),
            (flat, flat_fit, SurfaceGrid()),
        )
        for pi, fit, grid in cases:
            surf = loglik_surface(pi, fit, grid)
            n = pi.n
            ref = np.array(
                [
                    [_direct_loglik(pi, 1.0 - phi * (n + 1.0 + theta) / n, theta) for theta in surf.theta]
                    for phi in surf.phi
                ]
            )
            valid = np.isfinite(ref)
            assert (surf.valid == valid).all()
            expected = ref[valid] - ref[valid].max()
            assert np.abs(surf.rel_loglik[valid] - expected).max() <= 1e-9

    def test_terms_are_kept_for_the_last_partition_only(self):
        params = PdParams(0.5, 20.0)
        first, second = (
            IntegerPartition.from_block_sizes(crp_sample(2000, params, seed=s).table_counts) for s in (1, 2)
        )
        assert first != second
        fit = fit_mle(first)
        misses = _loglik_terms.cache_info().misses
        loglik_surface(first, fit)
        assert _loglik_terms.cache_info().misses == misses  # the fit's terms
        # the second partition's fit replaces the first's terms
        fit = fit_mle(second)
        assert _loglik_terms.cache_info().misses == misses + 1
        surf = loglik_surface(second, fit)
        _loglik_terms.cache_clear()
        fresh = loglik_surface(second, fit)
        assert np.array_equal(surf.rel_loglik, fresh.rel_loglik, equal_nan=True)
        _, _, head, tail = _loglik_terms(second)
        for array in (head, tail):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_fine_grid_memory_is_bounded(self, crp_18925):
        # the block-size term is accumulated, never broadcast to points x
        # distinct sizes (90601 x ~90 doubles, ~65 MB, here)
        fit = fit_mle(crp_18925)
        tracemalloc.start()
        try:
            loglik_surface(crp_18925, fit, SurfaceGrid(301, 301, 3.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_wide_grid_flags_invalid_points(self, dutch_fit):
        surf = loglik_surface(dutch_fixture(), dutch_fit, SurfaceGrid(21, 21, 6.0))
        assert not surf.valid.all()
        assert np.isnan(surf.rel_loglik[~surf.valid]).all()

    def test_fit_of_another_partition_is_rejected(self):
        # the same n, another partition: the grid would centre on a point
        # that is not its maximum (rel_loglik -15.76 at the mode)
        fitted, other = (
            IntegerPartition.from_block_sizes(crp_sample(3000, params, seed=seed).table_counts)
            for params, seed in ((PdParams(0.5, 50.0), 1), (PdParams(0.3, 200.0), 2))
        )
        fit = fit_mle(fitted)
        assert fit.converged and other.n == fit.n
        with pytest.raises(ValueError, match="fit was not made on this partition"):
            loglik_surface(other, fit)
        assert loglik_surface(fitted, fit).rel_loglik[20, 20] == 0.0

    def test_requires_converged_fit(self):
        degenerate = fit_mle(IntegerPartition((1,), (5,)))
        with pytest.raises(ValueError):
            loglik_surface(IntegerPartition((1,), (5,)), degenerate)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            SurfaceGrid(n_phi=10)
        with pytest.raises(ValueError):
            SurfaceGrid(half_width_sd=0)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
    def test_non_finite_half_width_is_rejected(self, width):
        # nan <= 0 is False, so loglik_surface failed later with a message
        # about the parameter domain
        with pytest.raises(ValueError, match="half_width_sd must be finite and positive"):
            SurfaceGrid(half_width_sd=width)

    @pytest.mark.parametrize("sizes", [(41.0, 41), (41, 41.0), (True, 41), (41, np.float64(41.0))])
    def test_non_integer_grid_size_is_rejected(self, sizes):
        with pytest.raises(ValueError, match="grid sizes must be odd integers"):
            SurfaceGrid(*sizes)

    def test_numpy_integer_grid_size(self, dutch_fit):
        surf = loglik_surface(dutch_fixture(), dutch_fit, SurfaceGrid(np.int64(5), 5))
        assert surf.rel_loglik.size == 25


def _quadratic_surface(c=0.0):
    phis = np.linspace(-1, 1, 9)
    thetas = np.linspace(-2, 2, 9)
    hess = np.array([[-2.0, 0.3], [0.3, -1.0]])
    vals = np.empty((9, 9))
    for i, p in enumerate(phis):
        for j, t in enumerate(thetas):
            d = np.array([p, t])
            vals[i, j] = 0.5 * d @ hess @ d + c
    return LoglikSurface(
        phi=phis,
        theta=thetas,
        rel_loglik=vals,
        gauss_overlay=vals.copy(),
        valid=np.ones((9, 9), dtype=bool),
        mode=(0.0, 0.0),
        hessian=hess,
        covariance=np.linalg.inv(-hess),
    )


def _symmetry_reference(surface):
    """Pair-by-pair loop that ``symmetry_diagnostic`` vectorizes."""
    ci, cj = len(surface.phi) // 2, len(surface.theta) // 2
    l = surface.rel_loglik - surface.rel_loglik[ci, cj]
    score, worst, pairs = 0.0, None, 0
    for di in range(-ci, ci + 1):
        for dj in range(-cj, cj + 1):
            if (di, dj) == (0, 0):
                continue
            if not (surface.valid[ci + di, cj + dj] and surface.valid[ci - di, cj - dj]):
                continue
            ref = abs(l[ci + di, cj + dj])
            if ref < 1e-12:
                continue
            pairs += 1
            s = abs(l[ci + di, cj + dj] - l[ci - di, cj - dj]) / ref
            if s > score:
                score = s
                worst = (
                    float(surface.phi[ci + di] - surface.mode[0]),
                    float(surface.theta[cj + dj] - surface.mode[1]),
                )
    return score, worst, pairs


class TestSymmetry:
    def test_matches_loop_reference(self, dutch_fit):
        for grid in (SurfaceGrid(), SurfaceGrid(21, 21, 6.0), SurfaceGrid(5, 7, 0.5)):
            surf = loglik_surface(dutch_fixture(), dutch_fit, grid)
            rep = symmetry_diagnostic(surf)
            assert (rep.score, rep.worst_offset, rep.pairs_checked) == _symmetry_reference(surf)
        quad = symmetry_diagnostic(_quadratic_surface())
        assert (quad.score, quad.worst_offset, quad.pairs_checked) == _symmetry_reference(
            _quadratic_surface()
        )

    def test_quadratic_scores_zero(self):
        assert symmetry_diagnostic(_quadratic_surface()).score == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_constant_shift(self, dutch_fit):
        surf = loglik_surface(dutch_fixture(), dutch_fit, SurfaceGrid(9, 9, 2.0))
        base = symmetry_diagnostic(surf).score
        shifted = LoglikSurface(
            phi=surf.phi,
            theta=surf.theta,
            rel_loglik=surf.rel_loglik + 17.5,
            gauss_overlay=surf.gauss_overlay,
            valid=surf.valid,
            mode=surf.mode,
            hessian=surf.hessian,
            covariance=surf.covariance,
        )
        assert symmetry_diagnostic(shifted).score == pytest.approx(base, rel=1e-12)

    def test_dutch_score_reported(self, dutch_fit):
        surf = loglik_surface(dutch_fixture(), dutch_fit)
        rep = symmetry_diagnostic(surf)
        assert rep.score >= 0.0 and math.isfinite(rep.score)
        assert rep.pairs_checked > 0
