"""Bayesian beta regression of F1 scores on gait factors.

Likelihood: F1 ~ Beta(mu*kappa, (1-mu)*kappa) with logit(mu) built from
age, sex, an ordinal disease effect (simplex increments), subject
intercepts, environment, and walking-aid use. Sampling is adaptive
component-wise random-walk Metropolis on unconstrained coordinates
(log / stick-breaking transforms with Jacobian corrections).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (ConfigurationError, ContractError, DiagnosticsError, EmptySetError,
                   ParseError, finite_number, integer)
from .ingest import csv_rows

F1_CLAMP = 1e-4
SEX_LEVELS = {"F": 0, "M": 1}
DISEASE_LEVELS = {"HC": 0, "mild": 1, "moderate": 2, "severe": 3}
ENV_LEVELS = {"Indoor": 0, "Outdoor": 1}
AID_LEVELS = {"WithAid": 0, "WithoutAid": 1}

DEFAULT_PRIOR_SCALE = 1.0 / 100.0
FACTOR_HEADER = ["f1", "age", "sex", "disease", "subject", "environment", "aid"]


@dataclass
class FactorObservation:
    f1: float
    age_z: float
    sex: str            # F | M
    disease_idx: int    # 0=HC, 1=mild, 2=moderate, 3=severe
    subject_idx: int
    environment: str    # Indoor | Outdoor
    aid: str            # WithAid | WithoutAid


@dataclass
class PosteriorSummary:
    name: str
    mean: float
    median: float
    std: float
    q5: float
    q95: float
    iqr: float
    z_score: float
    p_gt_z: float

    def to_json(self) -> dict:
        return {
            "parameter": self.name, "mean": self.mean, "median": self.median,
            "std": self.std, "q5": self.q5, "q95": self.q95, "iqr": self.iqr,
            "z_score": self.z_score, "p_gt_z": self.p_gt_z,
        }


@dataclass
class FitResult:
    draws: np.ndarray          # (n_chains * n_draws, dim)
    chain_draws: np.ndarray    # (n_chains, n_draws, dim)
    accept_rates: list[float]
    rhat: np.ndarray
    n_sub: int

    @property
    def max_rhat(self) -> float:
        return float(np.nanmax(self.rhat))


def load_factor_table(source) -> list[FactorObservation]:
    """CSV contract: header ``f1,age,sex,disease,subject,environment,aid``.

    Ages are standardized to z-scores across the table.
    """
    rows = []
    for lineno, row in csv_rows(source, FACTOR_HEADER):
        f1_raw, age_raw, sex, disease, subject, env, aid = (v.strip() for v in row)
        f1 = finite_number(f1_raw, f"line {lineno}", "f1")
        if not 0.0 <= f1 <= 1.0:
            raise ParseError(f"line {lineno}: f1 {f1} outside [0, 1]")
        age = finite_number(age_raw, f"line {lineno}", "age")
        subject_idx = integer(subject, f"line {lineno}", "subject")
        if sex not in SEX_LEVELS:
            raise ParseError(f"line {lineno}: sex must be F or M")
        if disease not in DISEASE_LEVELS:
            raise ParseError(f"line {lineno}: disease must be one of "
                             f"{sorted(DISEASE_LEVELS)}")
        if env not in ENV_LEVELS:
            raise ParseError(f"line {lineno}: environment must be "
                             "Indoor or Outdoor")
        if aid not in AID_LEVELS:
            raise ParseError(f"line {lineno}: aid must be WithAid or WithoutAid")
        rows.append((f1, age, sex, DISEASE_LEVELS[disease], subject_idx,
                     env, aid))
    if not rows:
        raise ParseError("factor table has no data rows")
    ages = np.array([r[1] for r in rows])
    sd = ages.std(ddof=0)
    age_z = (ages - ages.mean()) / sd if sd > 0 else np.zeros_like(ages)
    return [
        FactorObservation(f1=r[0], age_z=float(z), sex=r[2], disease_idx=r[3],
                          subject_idx=r[4], environment=r[5], aid=r[6])
        for r, z in zip(rows, age_z)
    ]


def _pack_data(data: list[FactorObservation]):
    """Column arrays of the observations, subjects renumbered 0..n_sub-1."""
    if not data:
        raise EmptySetError("no observations")
    subjects = sorted({o.subject_idx for o in data})
    remap = {s: i for i, s in enumerate(subjects)}
    f1 = np.clip([o.f1 for o in data], F1_CLAMP, 1.0 - F1_CLAMP)
    age = np.array([o.age_z for o in data])
    sex = np.array([SEX_LEVELS[o.sex] for o in data], dtype=np.int64)
    dis = np.array([o.disease_idx for o in data], dtype=np.int64)
    if dis.min() < 0 or dis.max() > 3:
        raise ContractError("disease_idx must be in 0..3")
    sub = np.array([remap[o.subject_idx] for o in data], dtype=np.int64)
    env = np.array([ENV_LEVELS[o.environment] for o in data], dtype=np.int64)
    aid = np.array([AID_LEVELS[o.aid] for o in data], dtype=np.int64)
    return (f1, age, sex, dis, sub, env, aid), len(subjects)


def _checked(theta, data):
    columns, n_sub = _pack_data(data)
    theta = np.asarray(theta, dtype=float)
    if len(theta) != kernels.N_GLOBAL + n_sub:
        raise ContractError("parameter vector has the wrong dimension")
    return theta, columns, n_sub


def log_posterior(theta: np.ndarray, data: list[FactorObservation],
                  prior_scale: float = DEFAULT_PRIOR_SCALE) -> float:
    """Log joint density at an unconstrained parameter vector.

    -inf, not an exception, where a term overflows or saturates.
    """
    theta, columns, n_sub = _checked(theta, data)
    return kernels.loglik_range(theta, *columns, 0, len(data)) \
        + kernels.logprior(theta, n_sub, prior_scale)


def log_likelihood(theta: np.ndarray, data: list[FactorObservation]) -> float:
    """Likelihood component alone (no priors)."""
    theta, columns, _ = _checked(theta, data)
    return kernels.loglik_range(theta, *columns, 0, len(data))


def _run_chains(columns, n_sub, n_draws, n_warmup, seed, n_chains,
                prior_scale):
    if n_draws < 4 or n_warmup < 0 or n_chains < 1 or seed < 0:
        raise ConfigurationError(  # split R-hat takes 2 draws per half chain
            "sampling needs n_draws >= 4, n_warmup >= 0, n_chains >= 1 and seed >= 0, "
            f"got {n_draws}, {n_warmup}, {n_chains} and {seed}")
    if not (math.isfinite(prior_scale) and prior_scale > 0):
        raise ConfigurationError("prior_scale must be finite and positive")
    rng = np.random.default_rng(seed)
    dim = kernels.N_GLOBAL + n_sub
    theta0 = np.zeros((n_chains, dim))
    theta0[:, 0] = math.log(10.0)        # kappa
    theta0[:, 1] = 1.0                   # a near its prior mean
    theta0[:, 9] = math.log(max(prior_scale, 1e-3))
    theta0 += 0.01 * rng.standard_normal(theta0.shape)
    step0 = np.full((n_chains, dim), 0.1)
    chain_draws, rates = kernels.chain(theta0, step0, n_warmup, n_draws, rng,
                                       *columns, prior_scale)
    return FitResult(draws=chain_draws.reshape(-1, dim),
                     chain_draws=chain_draws,
                     accept_rates=[float(r) for r in rates],
                     rhat=split_rhat(chain_draws), n_sub=n_sub)


def sample_posterior(data: list[FactorObservation], n_draws: int = 1000,
                     n_warmup: int = 1000, seed: int = 0, n_chains: int = 2,
                     prior_scale: float = DEFAULT_PRIOR_SCALE) -> FitResult:
    """Adaptive component-wise Metropolis; deterministic given the seed."""
    columns, n_sub = _pack_data(data)
    fit = _run_chains(columns, n_sub, n_draws, n_warmup, seed, n_chains,
                      prior_scale)
    if all(r < 1e-3 for r in fit.accept_rates):
        raise DiagnosticsError(
            "sampler accepted essentially no proposals; check data scaling "
            "or loosen the initial step sizes")
    return fit


def sample_prior(n_draws: int = 1000, n_warmup: int = 1000, seed: int = 0,
                 n_chains: int = 2,
                 prior_scale: float = DEFAULT_PRIOR_SCALE) -> FitResult:
    """Prior-only run: the chain with zero observations."""
    empty_f = np.empty(0)
    empty_i = np.empty(0, dtype=np.int64)
    columns = (empty_f, empty_f) + (empty_i,) * 5
    return _run_chains(columns, 0, n_draws, n_warmup, seed, n_chains,
                       prior_scale)


def split_rhat(chain_draws: np.ndarray) -> np.ndarray:
    """Split-chain potential scale reduction factor per parameter."""
    n_chains, n_draws, dim = chain_draws.shape
    half = n_draws // 2
    segs = np.concatenate([chain_draws[:, :half, :],
                           chain_draws[:, half:2 * half, :]], axis=0)
    m, n = segs.shape[0], segs.shape[1]
    means = segs.mean(axis=1)
    variances = segs.var(axis=1, ddof=1)
    w = variances.mean(axis=0)
    b = n * means.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        var_hat = (n - 1) / n * w + b / n
        out = np.sqrt(var_hat / w)
    out[w <= 1e-300] = 1.0
    return out


CONTRAST_NAMES = ("Female - Male", "Indoors - Outdoors",
                  "With aid - Without aid", "Disease")


def contrast_draws(result: FitResult) -> dict[str, np.ndarray]:
    d = result.draws
    return {
        "Female - Male": d[:, 3] - d[:, 4],
        "Indoors - Outdoors": d[:, 10] - d[:, 11],
        "With aid - Without aid": d[:, 12] - d[:, 13],
        "Disease": d[:, 5],
    }


def contrasts(result: FitResult) -> list[PosteriorSummary]:
    """Posterior contrast summaries (z = mean/std, two-sided normal tail)."""
    out = []
    for name, vals in contrast_draws(result).items():
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1))
        q5, q25, q75, q95 = np.quantile(vals, [0.05, 0.25, 0.75, 0.95])
        z = mean / std if std > 0 else 0.0
        p = float(math.erfc(abs(z) / math.sqrt(2.0)))
        out.append(PosteriorSummary(
            name=name, mean=mean, median=float(np.median(vals)), std=std,
            q5=float(q5), q95=float(q95), iqr=float(q75 - q25),
            z_score=float(z), p_gt_z=p))
    return out


def simulate_dataset(n_subjects: int = 60, obs_per_subject: int = 10,
                     seed: int = 0,
                     prior_scale: float = DEFAULT_PRIOR_SCALE):
    """Draw parameters from the priors and observations from the model.

    Returns (observations, true_contrasts dict).
    """
    rng = np.random.default_rng(seed)
    kappa = abs(rng.standard_cauchy()) * 20.0
    kappa = float(np.clip(kappa, 2.0, 200.0))
    a = rng.normal(1.0, 1.0)
    b = rng.normal(0.0, prior_scale)
    s_sex = rng.normal(0.0, prior_scale, 2)
    d = rng.normal(0.0, prior_scale)
    delta = rng.dirichlet([1.0, 1.0, 1.0])
    cum = np.concatenate([[0.0], np.cumsum(delta)])
    mu_sub = rng.normal(0.0, prior_scale)
    sigma_sub = float(np.clip(abs(rng.standard_cauchy()) * prior_scale,
                              prior_scale / 10.0, prior_scale * 10.0))
    u = rng.normal(mu_sub, sigma_sub, n_subjects)
    e_env = rng.normal(0.0, prior_scale, 2)
    h_aid = rng.normal(0.0, prior_scale, 2)

    obs = []
    for j in range(n_subjects):
        age_z = rng.normal()
        sex = "F" if rng.random() < 0.5 else "M"
        dis = int(rng.integers(0, 4))
        for _ in range(obs_per_subject):
            env = "Indoor" if rng.random() < 0.5 else "Outdoor"
            aid = "WithAid" if rng.random() < 0.5 else "WithoutAid"
            eta = (a + b * age_z + s_sex[SEX_LEVELS[sex]] + d * cum[dis]
                   + u[j] + e_env[ENV_LEVELS[env]] + h_aid[AID_LEVELS[aid]])
            mu = 1.0 / (1.0 + math.exp(-eta))
            f1 = float(rng.beta(mu * kappa, (1.0 - mu) * kappa))
            f1 = float(np.clip(f1, F1_CLAMP, 1.0 - F1_CLAMP))
            obs.append(FactorObservation(f1=f1, age_z=age_z, sex=sex,
                                         disease_idx=dis, subject_idx=j,
                                         environment=env, aid=aid))
    truth = {
        "Female - Male": float(s_sex[0] - s_sex[1]),
        "Indoors - Outdoors": float(e_env[0] - e_env[1]),
        "With aid - Without aid": float(h_aid[0] - h_aid[1]),
        "Disease": float(d),
    }
    return obs, truth
