"""Hot numeric kernels: Madgwick fusion loop and the beta-GLM MCMC chain.

The Madgwick loop runs on Python floats; the MCMC chain is vectorised
numpy (``benchmarks/bench_kernels.py`` times both kernels).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, gammaln


# ---------------------------------------------------------------------------
# Madgwick orientation filter (accelerometer + gyroscope, no magnetometer)

def madgwick_batch(accel, gyro, dt, beta, q0):
    """One unit quaternion (w, x, y, z) per sample, as an (n, 4) array.

    The recursion is inherently sequential, so it runs one sample at a
    time on Python floats, which is several times faster than on numpy
    scalars. The accelerometer is normalised beforehand in numpy, with
    the operations of the scalar formula in the same order, so each value
    is the same double. Samples are read by zipping memoryviews of the
    columns and written through a memoryview of the output, which keeps
    no per-sample Python objects alive.
    """
    accel = np.asarray(accel, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    a0, a1, a2 = accel.T
    anorm = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    has_gravity = anorm > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        # read only where has_gravity is True
        columns = [a0 / anorm, a1 / anorm, a2 / anorm, *gyro.T, has_gravity]
    out = np.empty((accel.shape[0], 4))
    dst = memoryview(out.reshape(-1))
    dt = float(dt)
    beta = float(beta)
    w, x, y, z = (float(v) for v in q0)
    k = 0
    for ax, ay, az, gx, gy, gz, normalised in zip(*map(memoryview, columns)):
        # quaternion rate from gyroscope
        qdw = 0.5 * (-x * gx - y * gy - z * gz)
        qdx = 0.5 * (w * gx + y * gz - z * gy)
        qdy = 0.5 * (w * gy - x * gz + z * gx)
        qdz = 0.5 * (w * gz + x * gy - y * gx)

        if normalised:
            # gradient of the gravity-alignment objective
            f1 = 2.0 * (x * z - w * y) - ax
            f2 = 2.0 * (w * x + y * z) - ay
            f3 = 2.0 * (0.5 - x * x - y * y) - az
            sw = -2.0 * y * f1 + 2.0 * x * f2
            sx = 2.0 * z * f1 + 2.0 * w * f2 - 4.0 * x * f3
            sy = -2.0 * w * f1 + 2.0 * z * f2 - 4.0 * y * f3
            sz = 2.0 * x * f1 + 2.0 * y * f2
            snorm = math.sqrt(sw * sw + sx * sx + sy * sy + sz * sz)
            if snorm > 1e-12:
                qdw -= beta * sw / snorm
                qdx -= beta * sx / snorm
                qdy -= beta * sy / snorm
                qdz -= beta * sz / snorm

        w += qdw * dt
        x += qdx * dt
        y += qdy * dt
        z += qdz * dt
        qn = math.sqrt(w * w + x * x + y * y + z * z)
        w /= qn
        x /= qn
        y /= qn
        z /= qn
        dst[k] = w
        dst[k + 1] = x
        dst[k + 2] = y
        dst[k + 3] = z
        k += 4
    return out


# ---------------------------------------------------------------------------
# Beta regression GLM with ordinal disease effect and subject intercepts
#
# Unconstrained parameter vector layout (dim = 14 + n_sub):
#   0  log kappa
#   1  a (intercept)            2  b (age)
#   3  s_female                 4  s_male
#   5  d (total disease effect)
#   6  z1, 7 z2 (stick-breaking coords of the 3-simplex increments)
#   8  mu_sub                   9  log sigma_sub
#   10 e_indoor                 11 e_outdoor
#   12 h_with_aid               13 h_without_aid
#   14.. standardized subject intercepts u_raw[j]
#
# Subject intercepts are non-centered: u[j] = mu_sub + sigma_sub * u_raw[j]
# with u_raw ~ Normal(0, 1), which is the same model as
# u ~ Normal(mu_sub, sigma_sub) but mixes without the funnel between
# sigma_sub and the intercepts.
#
# Densities are evaluated in floating point without raising: a parameter
# vector that overflows or saturates a term (kappa = inf, mu rounding to
# 0 or 1) gets log density -inf, so the sampler rejects it.

N_GLOBAL = 14

LOG_2PI = math.log(2.0 * math.pi)
LOG_GAMMA_3 = math.log(2.0)   # flat Dirichlet(1, 1, 1) density
KAPPA_SCALE = 20.0


def _softplus(x):
    return np.logaddexp(0.0, x)


def _or_neg_inf(x):
    """Non-finite log densities count as -inf, i.e. a rejected proposal."""
    return np.where(np.isfinite(x), x, -np.inf)


def _cumsum_table(z1, z2):
    """Cumulative ordinal weights of disease levels 0..3 along a last axis
    of length 4: 0, delta1, delta1 + delta2, 1."""
    c1 = expit(z1)
    c2 = c1 + expit(-z1) * expit(z2)
    return np.stack([np.zeros_like(c1), c1, c2, np.ones_like(c1)], axis=-1)


def _eta(theta, age, sex, dis, sub, env, aid):
    """Linear predictor per row; theta is (dim,) or (n_chains, dim)."""
    cum = _cumsum_table(theta[..., 6], theta[..., 7])
    return (theta[..., 1, None] + theta[..., 2, None] * age
            + theta[..., 3 + sex] + theta[..., 10 + env]
            + theta[..., 12 + aid] + theta[..., 5, None] * cum[..., dis]
            + theta[..., 8, None]
            + np.exp(theta[..., 9, None]) * theta[..., N_GLOBAL + sub])


def _beta_terms(eta, kappa, s1, s2, n):
    """Beta log density of n rows sharing one eta, per term, plus s1 + s2.

    s1 and s2 are the rows' sums of log f1 and log(1 - f1); they do not
    depend on the parameters, so ``loglik`` leaves out the constant
    -(s1 + s2). 1 - mu is computed as expit(-eta), which stays positive
    where 1 - expit(eta) rounds to 0 (eta > 37).
    """
    al = kappa * expit(eta)
    be = kappa * expit(-eta)
    return al * s1 + be * s2 \
        - n * (gammaln(al) + gammaln(be) - gammaln(kappa))


def loglik(eta, kappa, s1, s2, n):
    """Beta log-likelihood of the folded groups, up to -(s1 + s2).sum(), per
    chain: eta is (..., groups) and kappa (...). Not finite gives -inf."""
    return _or_neg_inf(
        _beta_terms(eta, np.expand_dims(kappa, -1), s1, s2, n).sum(axis=-1))


def _log_half_cauchy(x, scale):
    """Log density of x = log s for s ~ HalfCauchy(scale), with Jacobian."""
    return math.log(2.0 / (math.pi * scale)) \
        - _softplus(2.0 * (x - math.log(scale))) + x


def _global_prior_terms(g, prior_scale):
    """Prior term of each global coordinate; g is (..., N_GLOBAL).

    The prior factorises over the coordinates, so a proposal that moves
    one coordinate changes only that coordinate's term.
    """
    # b, s_sex, d, mu_sub, e, h ~ Normal(0, prior_scale)
    out = -0.5 * LOG_2PI - math.log(prior_scale) - 0.5 * (g / prior_scale) ** 2
    # kappa ~ HalfCauchy(20), sigma_sub ~ HalfCauchy(prior_scale)
    out[..., 0] = _log_half_cauchy(g[..., 0], KAPPA_SCALE)
    out[..., 9] = _log_half_cauchy(g[..., 9], prior_scale)
    # a ~ Normal(1, 1)
    out[..., 1] = -0.5 * (g[..., 1] - 1.0) ** 2 - 0.5 * LOG_2PI
    # stick-breaking Jacobian of (z1, z2) -> (delta1, delta2),
    # v1 (1 - v1)^2 v2 (1 - v2), with log v = -softplus(-z) and
    # log(1 - v) = -softplus(z)
    sp_neg, sp_pos = _softplus(-g[..., 6:8]), _softplus(g[..., 6:8])
    out[..., 6] = -sp_neg[..., 0] - 2.0 * sp_pos[..., 0]
    out[..., 7] = -sp_neg[..., 1] - sp_pos[..., 1]
    return out


def logprior(theta, n_sub, prior_scale):
    """Log prior density at one unconstrained parameter vector."""
    theta = np.asarray(theta, dtype=float)
    u = theta[N_GLOBAL:N_GLOBAL + n_sub]
    with np.errstate(all="ignore"):
        lp = LOG_GAMMA_3 - 0.5 * n_sub * LOG_2PI - 0.5 * float(u @ u) \
            + _global_prior_terms(theta[:N_GLOBAL], prior_scale).sum()
        return float(_or_neg_inf(lp))


def _fold(f1, age, sex, dis, sub, env, aid):
    """Merge rows with equal covariates, hence equal eta, into one term.

    Returns the groups' covariate columns, sorted by subject, and their
    sums of log f1 and log(1 - f1) and row counts, which is all the
    likelihood needs of the rows.
    """
    keys = np.column_stack([sub, age, sex, dis, env, aid]).astype(float)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.ravel()
    g = len(uniq)
    s1 = np.bincount(inv, np.log(f1), minlength=g)
    s2 = np.bincount(inv, np.log1p(-f1), minlength=g)
    n = np.bincount(inv, minlength=g).astype(float)
    g_sub, g_sex, g_dis, g_env, g_aid = \
        uniq[:, [0, 2, 3, 4, 5]].T.astype(np.int64)
    return (uniq[:, 1], g_sex, g_dis, g_sub, g_env, g_aid), s1, s2, n


def chain(theta0, step0, n_warmup, n_draws, seed,
          f1, age, sex, dis, sub, env, aid, prior_scale):
    """Adaptive Metropolis-within-Gibbs, all chains advanced together.

    theta0 and step0 are (n_chains, dim); seed is an int or a numpy
    Generator. Each iteration proposes every global coordinate in turn,
    scored on the whole likelihood, then all subject intercepts at once:
    given the globals they are conditionally independent, so each is
    accepted or rejected on its own subject's terms. During warm-up every
    coordinate's step adapts toward 0.44 acceptance every 25 iterations
    (Roberts & Rosenthal 2009). Returns draws (n_chains, n_draws, dim)
    and each chain's acceptance rate over the draws.
    """
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=float)
    steps = np.array(step0, dtype=float)
    n_chains, dim = theta.shape
    n_sub = dim - N_GLOBAL
    cols, s1, s2, n = _fold(f1, age, sex, dis, sub, env, aid)
    g_age, g_sex, g_dis, g_sub, g_env, g_aid = cols
    g_starts = np.searchsorted(g_sub, np.arange(n_sub))
    # coordinates that enter eta linearly: eta moves by delta * column
    column = {1: 1.0, 2: g_age, 3: g_sex == 0, 4: g_sex == 1, 8: 1.0,
              10: g_env == 0, 11: g_env == 1, 12: g_aid == 0, 13: g_aid == 1}

    draws = np.empty((n_chains, n_draws, dim))
    win_acc = np.zeros((n_chains, dim))
    kept_acc = np.zeros(n_chains)
    with np.errstate(all="ignore"):
        eta = _eta(theta, *cols)
        kappa = np.exp(theta[:, 0])
        cum = _cumsum_table(theta[:, 6], theta[:, 7])
        cur = loglik(eta, kappa, s1, s2, n)
        for it in range(n_warmup + n_draws):
            jumps = steps * rng.standard_normal((n_chains, dim))
            # a coordinate keeps its iteration-start value until its own
            # update, so every global proposal and prior ratio is known now
            globals_new = theta[:, :N_GLOBAL] + jumps[:, :N_GLOBAL]
            threshold = np.log(rng.random((n_chains, dim)))
            threshold[:, :N_GLOBAL] -= \
                _global_prior_terms(globals_new, prior_scale) \
                - _global_prior_terms(theta[:, :N_GLOBAL], prior_scale)
            accepted = np.zeros((n_chains, dim), dtype=bool)
            for j in range(N_GLOBAL):
                old = theta[:, j]
                new = globals_new[:, j]
                new_kappa = kappa
                if j == 0:
                    new_kappa = np.exp(new)
                    new_eta = eta
                elif j == 5:
                    new_eta = eta + jumps[:, 5, None] * cum[:, g_dis]
                elif j in (6, 7):
                    z = theta[:, 6:8].copy()
                    z[:, j - 6] = new
                    new_cum = _cumsum_table(z[:, 0], z[:, 1])
                    new_eta = eta + theta[:, 5, None] \
                        * (new_cum - cum)[:, g_dis]
                elif j == 9:
                    new_eta = eta + (np.exp(new) - np.exp(old))[:, None] \
                        * theta[:, N_GLOBAL + g_sub]
                else:
                    new_eta = eta + jumps[:, j, None] * column[j]
                new_ll = loglik(new_eta, new_kappa, s1, s2, n)
                acc = threshold[:, j] < new_ll - cur
                accepted[:, j] = acc
                theta[:, j] = np.where(acc, new, old)
                cur = np.where(acc, new_ll, cur)
                if j == 0:
                    kappa = np.where(acc, new_kappa, kappa)
                else:
                    eta = np.where(acc[:, None], new_eta, eta)
                if j in (6, 7):
                    cum = np.where(acc[:, None], new_cum, cum)
            if n_sub:
                u = theta[:, N_GLOBAL:]
                new_u = u + jumps[:, N_GLOBAL:]
                new_eta = eta + np.exp(theta[:, 9, None]) \
                    * jumps[:, N_GLOBAL + g_sub]
                k = kappa[:, None]
                d_ll = np.add.reduceat(_beta_terms(new_eta, k, s1, s2, n)
                                       - _beta_terms(eta, k, s1, s2, n),
                                       g_starts, axis=1)
                acc = threshold[:, N_GLOBAL:] < \
                    _or_neg_inf(d_ll) - 0.5 * (new_u * new_u - u * u)
                accepted[:, N_GLOBAL:] = acc
                theta[:, N_GLOBAL:] = np.where(acc, new_u, u)
                eta = np.where(acc[:, g_sub], new_eta, eta)
                cur = cur + np.where(acc, d_ll, 0.0).sum(axis=1)
            if it < n_warmup:
                win_acc += accepted
                if (it + 1) % 25 == 0:
                    steps = np.clip(steps * np.exp(win_acc / 25.0 - 0.44),
                                    1e-6, 10.0)
                    win_acc[:] = 0.0
            else:
                kept_acc += accepted.sum(axis=1)
                draws[:, it - n_warmup] = theta
    accept_rate = kept_acc / (n_draws * dim) if n_draws else kept_acc
    return draws, accept_rate
