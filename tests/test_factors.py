import io
import math

import numpy as np
import pytest

from gaitpipe import factors, kernels
from gaitpipe.core import ConfigurationError, ContractError, EmptySetError, ParseError

HEADER = "f1,age,sex,disease,subject,environment,aid\n"


def table(rows):
    return io.StringIO(HEADER + "\n".join(rows) + "\n")


class TestLoadFactorTable:
    def test_roundtrip(self):
        obs = factors.load_factor_table(table([
            "0.95,40,F,HC,0,Indoor,WithoutAid",
            "0.90,60,M,moderate,1,Outdoor,WithAid",
        ]))
        assert len(obs) == 2
        assert obs[0].sex == "F" and obs[0].disease_idx == 0
        assert obs[1].environment == "Outdoor" and obs[1].aid == "WithAid"
        # ages 40/60 standardize to -1/+1
        assert obs[0].age_z == pytest.approx(-1.0)
        assert obs[1].age_z == pytest.approx(1.0)

    def test_constant_age_zero_z(self):
        obs = factors.load_factor_table(table([
            "0.9,50,F,HC,0,Indoor,WithAid",
            "0.8,50,M,mild,1,Indoor,WithAid",
        ]))
        assert all(o.age_z == 0.0 for o in obs)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            factors.load_factor_table(io.StringIO("a,b,c\n1,2,3\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            factors.load_factor_table(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(ParseError):
            factors.load_factor_table(io.StringIO(HEADER))

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            factors.load_factor_table(table(["0.9,50,F,HC,0,Indoor"]))

    def test_bad_numeric(self):
        with pytest.raises(ParseError, match="line 2"):
            factors.load_factor_table(table(["oops,50,F,HC,0,Indoor,WithAid"]))

    @pytest.mark.parametrize("row", ["nan,50,F,HC,1,Indoor,WithAid",
                                     "0.9,inf,F,HC,1,Indoor,WithAid",
                                     "0.9,-inf,F,HC,1,Indoor,WithAid"])
    def test_non_finite_numeric_reports_line(self, row):
        with pytest.raises(ParseError, match="line 3"):
            factors.load_factor_table(table(["0.9,50,F,HC,0,Indoor,WithAid", row]))

    @pytest.mark.parametrize("row, message", [
        ("nan,50,F,HC,1,Indoor,WithAid", "line 3: f1 must be a finite number, got 'nan'"),
        ("0.9,old,F,HC,1,Indoor,WithAid", "line 3: age must be a finite number, got 'old'"),
        ("0.9,50,F,HC,x,Indoor,WithAid", "line 3: subject must be an integer, got 'x'"),
        ("0.9,50,F,HC,1.0,Indoor,WithAid", "line 3: subject must be an integer, got '1.0'"),
        ("0.9,50,F,HC,1e400,Indoor,WithAid",
         "line 3: subject must be an integer, got '1e400'"),
    ])
    def test_bad_number_names_line_and_column(self, row, message):
        with pytest.raises(ParseError) as exc:
            factors.load_factor_table(table(["0.9,50,F,HC,0,Indoor,WithAid", row]))
        assert str(exc.value) == message

    @pytest.mark.parametrize("f1", ["1.5", "-0.2", "1.0000001"])
    def test_f1_outside_unit_interval_reports_line(self, f1):
        with pytest.raises(ParseError, match="line 3: f1 .* outside"):
            factors.load_factor_table(table(["0.9,50,F,HC,0,Indoor,WithAid",
                                             f"{f1},50,F,HC,1,Indoor,WithAid"]))

    def test_f1_bounds_accepted_and_clamped(self):
        obs = factors.load_factor_table(table(["0,50,F,HC,0,Indoor,WithAid",
                                               "1,50,F,HC,1,Indoor,WithAid"]))
        assert [o.f1 for o in obs] == [0.0, 1.0]
        f1 = factors._pack_data(obs)[0][0]
        assert f1.tolist() == [factors.F1_CLAMP, 1.0 - factors.F1_CLAMP]

    def test_bad_level_values(self):
        for row in ("0.9,50,X,HC,0,Indoor,WithAid",
                    "0.9,50,F,bad,0,Indoor,WithAid",
                    "0.9,50,F,HC,0,Space,WithAid",
                    "0.9,50,F,HC,0,Indoor,Maybe"):
            with pytest.raises(ParseError):
                factors.load_factor_table(table([row]))

    def test_bytes_source(self):
        obs = factors.load_factor_table(
            (HEADER + "0.9,50,F,HC,0,Indoor,WithAid\n").encode())
        assert len(obs) == 1


class TestDensities:
    def _neutral_obs(self, f1=0.5):
        return [factors.FactorObservation(
            f1=f1, age_z=0.0, sex="F", disease_idx=0, subject_idx=0,
            environment="Indoor", aid="WithAid")]

    def test_beta11_loglik_zero(self):
        # mu = 0.5 and kappa = 2 give Beta(1, 1): flat, logdensity 0
        theta = np.zeros(kernels.N_GLOBAL + 1)
        theta[0] = math.log(2.0)
        assert factors.log_likelihood(theta, self._neutral_obs()) \
            == pytest.approx(0.0, abs=1e-12)

    def test_loglik_matches_scipy(self):
        from scipy.stats import beta as beta_dist
        theta = np.zeros(kernels.N_GLOBAL + 1)
        theta[0] = math.log(7.5)
        theta[1] = 0.8
        mu = 1.0 / (1.0 + math.exp(-0.8))
        expected = beta_dist.logpdf(0.9, mu * 7.5, (1 - mu) * 7.5)
        assert factors.log_likelihood(theta, self._neutral_obs(0.9)) \
            == pytest.approx(expected, rel=1e-10)

    def test_likelihood_invariant_under_intercept_shift(self):
        # adding c to the intercept while shifting the standardized subject
        # intercepts by -c/sigma_sub leaves every eta unchanged
        obs, _ = factors.simulate_dataset(n_subjects=5, obs_per_subject=4,
                                          seed=3)
        rng = np.random.default_rng(4)
        theta = 0.3 * rng.standard_normal(kernels.N_GLOBAL + 5)
        base = factors.log_likelihood(theta, obs)
        c = 0.7
        sigma_sub = math.exp(theta[9])
        shifted = theta.copy()
        shifted[1] += c
        shifted[kernels.N_GLOBAL:] -= c / sigma_sub
        assert factors.log_likelihood(shifted, obs) == pytest.approx(base,
                                                                     rel=1e-12)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ContractError):
            factors.log_posterior(np.zeros(3), self._neutral_obs())

    def test_empty_data_rejected(self):
        with pytest.raises(EmptySetError):
            factors.log_posterior(np.zeros(kernels.N_GLOBAL), [])

    def test_posterior_is_lik_plus_prior(self):
        obs = self._neutral_obs()
        theta = np.full(kernels.N_GLOBAL + 1, 0.1)
        lp = factors.log_posterior(theta, obs)
        ll = factors.log_likelihood(theta, obs)
        prior = kernels.logprior(theta, 1, factors.DEFAULT_PRIOR_SCALE)
        assert lp == pytest.approx(ll + prior, rel=1e-12)

    def test_logprior_matches_scipy(self):
        from scipy import stats
        rng = np.random.default_rng(6)
        theta = 0.5 * rng.standard_normal(kernels.N_GLOBAL + 3)
        s = 0.3
        kappa, sigma = math.exp(theta[0]), math.exp(theta[9])
        v1, v2 = 1 / (1 + math.exp(-theta[6])), 1 / (1 + math.exp(-theta[7]))
        expected = (
            stats.halfcauchy.logpdf(kappa, scale=20.0) + theta[0]
            + stats.norm.logpdf(theta[1], 1.0, 1.0)
            + stats.norm.logpdf(theta[[2, 3, 4, 5, 8, 10, 11, 12, 13]],
                                0.0, s).sum()
            + stats.halfcauchy.logpdf(sigma, scale=s) + theta[9]
            # flat Dirichlet(1, 1, 1) and the stick-breaking Jacobian
            + math.log(2.0)
            + math.log(v1 * (1 - v1) * (1 - v1) * v2 * (1 - v2))
            + stats.norm.logpdf(theta[kernels.N_GLOBAL:]).sum())
        assert kernels.logprior(theta, 3, s) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_folded_groups_give_the_rowwise_likelihood(self):
        obs, _ = factors.simulate_dataset(n_subjects=6, obs_per_subject=9,
                                          seed=8)
        columns, n_sub = factors._pack_data(obs)
        theta = 0.3 * np.random.default_rng(7).standard_normal(
            kernels.N_GLOBAL + n_sub)
        groups, s1, s2, n = kernels._fold(*columns)
        assert len(n) < len(obs) and n.sum() == len(obs)
        terms = kernels._beta_terms(kernels._eta(theta, *groups),
                                    math.exp(theta[0]), s1, s2, n)
        assert terms.sum() - (s1 + s2).sum() == pytest.approx(
            kernels.loglik_range(theta, *columns, 0, len(obs)), rel=1e-12)

    # Saturated terms: mu rounds to 1.0 in 1 / (1 + exp(-eta)) once eta is
    # past ~37, and exp(log kappa) overflows past ~709. The densities must
    # not raise there; a non-finite value comes back as -inf.

    def test_loglik_saturated_intercept_matches_scipy(self):
        from scipy.special import expit
        from scipy.stats import beta as beta_dist
        theta = np.zeros(kernels.N_GLOBAL + 1)
        theta[0] = math.log(10.0)
        theta[1] = 40.0
        expected = beta_dist.logpdf(0.9, 10.0 * expit(40.0),
                                    10.0 * expit(-40.0))
        assert np.isfinite(expected)
        assert factors.log_likelihood(theta, self._neutral_obs(0.9)) \
            == pytest.approx(expected, rel=1e-10)

    def test_posterior_finite_at_saturated_stick_breaking(self):
        theta = np.zeros(kernels.N_GLOBAL + 1)
        theta[6] = 40.0
        assert np.isfinite(factors.log_posterior(theta, self._neutral_obs()))

    def test_overflowing_kappa_is_minus_inf(self):
        theta = np.zeros(kernels.N_GLOBAL + 1)
        theta[0] = 800.0
        assert factors.log_likelihood(theta, self._neutral_obs()) == -np.inf
        assert factors.log_posterior(theta, self._neutral_obs()) == -np.inf

    def test_underflowing_mean_is_minus_inf(self):
        theta = np.zeros(kernels.N_GLOBAL + 1)
        theta[1] = -800.0
        assert factors.log_posterior(theta, self._neutral_obs()) == -np.inf

    def test_sampling_started_next_to_saturation_completes(self, monkeypatch):
        # start every chain at intercept 38, where 1 / (1 + exp(-eta))
        # already rounds to 1.0
        assert 1.0 / (1.0 + math.exp(-38.0)) == 1.0
        chain = kernels.chain

        def start_saturated(theta0, *args):
            theta0 = theta0.copy()
            theta0[:, 1] = 38.0
            return chain(theta0, *args)

        monkeypatch.setattr(kernels, "chain", start_saturated)
        obs, _ = factors.simulate_dataset(n_subjects=4, obs_per_subject=5,
                                          seed=2)
        fit = factors.sample_posterior(obs, n_draws=50, n_warmup=50, seed=5)
        assert fit.draws.shape == (100, kernels.N_GLOBAL + 4)
        assert np.all(np.isfinite(fit.draws))


class TestDiseaseSimplex:
    def test_cumulative_weights_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z1, z2 = rng.normal(0, 3, 2)
            c0, c1, c2, c3 = kernels._delta_cumsums(z1, z2)
            assert c0 == 0.0 and c3 == pytest.approx(1.0)
            assert 0.0 < c1 < c2 < 1.0


class TestSampling:
    def _small_fit(self, seed=11, **kw):
        obs, _ = factors.simulate_dataset(n_subjects=8, obs_per_subject=5,
                                          seed=7)
        kw.setdefault("n_draws", 150)
        kw.setdefault("n_warmup", 150)
        kw.setdefault("n_chains", 2)
        return factors.sample_posterior(obs, seed=seed, **kw), obs

    def test_shapes(self):
        fit, obs = self._small_fit()
        dim = kernels.N_GLOBAL + 8
        assert fit.chain_draws.shape == (2, 150, dim)
        assert fit.draws.shape == (300, dim)
        assert fit.n_sub == 8
        assert len(fit.rhat) == dim

    def test_deterministic_given_seed(self):
        a, _ = self._small_fit(seed=11)
        b, _ = self._small_fit(seed=11)
        np.testing.assert_array_equal(a.draws, b.draws)
        c, _ = self._small_fit(seed=12)
        assert not np.array_equal(a.draws, c.draws)

    def test_accept_rates_reasonable(self):
        fit, _ = self._small_fit()
        for r in fit.accept_rates:
            assert 0.1 < r < 0.9

    def test_contrast_summaries(self):
        fit, _ = self._small_fit()
        rows = factors.contrasts(fit)
        assert [r.name for r in rows] == list(factors.CONTRAST_NAMES)
        for r in rows:
            assert r.q5 <= r.median <= r.q95
            assert 0.0 <= r.p_gt_z <= 1.0
            doc = r.to_json()
            assert doc["parameter"] == r.name

    def test_contrast_zero_when_levels_equal(self):
        draws = np.zeros((2, 10, kernels.N_GLOBAL))
        draws[:, :, 10] = 0.4   # indoor
        draws[:, :, 11] = 0.4   # outdoor equal -> contrast 0
        fit = factors.FitResult(draws=draws.reshape(-1, kernels.N_GLOBAL),
                                chain_draws=draws, accept_rates=[0.4, 0.4],
                                rhat=np.ones(kernels.N_GLOBAL), n_sub=0)
        vals = factors.contrast_draws(fit)["Indoors - Outdoors"]
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)

    def test_environment_contrast_recovery(self):
        # data with a -2.0 indoor-outdoor effect is only recoverable under a
        # prior broad enough to contain it
        rng = np.random.default_rng(8)
        obs = []
        for j in range(30):
            for _ in range(8):
                env = "Indoor" if rng.random() < 0.5 else "Outdoor"
                eta = 1.0 + (-1.0 if env == "Indoor" else 1.0)
                mu = 1.0 / (1.0 + math.exp(-eta))
                f1 = float(np.clip(rng.beta(mu * 50, (1 - mu) * 50),
                                   1e-4, 1 - 1e-4))
                obs.append(factors.FactorObservation(
                    f1=f1, age_z=0.0, sex="F", disease_idx=0, subject_idx=j,
                    environment=env, aid="WithAid"))
        fit = factors.sample_posterior(obs, n_draws=500, n_warmup=500,
                                       seed=21, n_chains=2, prior_scale=1.0)
        vals = factors.contrast_draws(fit)["Indoors - Outdoors"]
        assert np.mean(vals) == pytest.approx(-2.0, abs=0.4)

    def test_prior_only_intercept(self):
        fit = factors.sample_prior(n_draws=1500, n_warmup=1000, seed=30)
        a = fit.draws[:, 1]
        assert np.mean(a) == pytest.approx(1.0, abs=0.2)
        assert np.std(a) == pytest.approx(1.0, abs=0.3)


class TestSamplerArguments:
    @pytest.mark.parametrize("kwargs", [
        {"n_draws": 0}, {"n_draws": 3}, {"n_warmup": -1}, {"n_chains": 0}, {"seed": -1},
        {"prior_scale": 0.0}, {"prior_scale": -1.0}, {"prior_scale": math.nan},
        {"prior_scale": math.inf}])
    def test_refused_before_sampling(self, kwargs):
        obs, _ = factors.simulate_dataset(n_subjects=3, obs_per_subject=2, seed=0)
        for sample in (lambda **kw: factors.sample_posterior(obs, **kw),
                       factors.sample_prior):
            with pytest.raises(ConfigurationError):
                sample(**{"n_draws": 4, "n_warmup": 0, **kwargs})

    def test_smallest_run_gives_finite_rhat(self):
        fit = factors.sample_prior(n_draws=4, n_warmup=0, n_chains=1, seed=1)
        assert fit.chain_draws.shape[:2] == (1, 4)
        assert np.all(np.isfinite(fit.rhat))


class TestSplitRhat:
    def test_identical_stationary_chains_near_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 400, 2))
        chains = np.concatenate([x, x + 0.0], axis=0)
        r = factors.split_rhat(chains)
        assert np.all(r < 1.05)

    def test_separated_chains_large(self):
        rng = np.random.default_rng(10)
        a = rng.normal(0, 1, (1, 200, 1))
        b = rng.normal(5, 1, (1, 200, 1))
        r = factors.split_rhat(np.concatenate([a, b], axis=0))
        assert r[0] > 1.5

    def test_constant_parameter_defined(self):
        chains = np.zeros((2, 100, 1))
        assert factors.split_rhat(chains)[0] == 1.0


class TestSimulateDataset:
    def test_structure_and_determinism(self):
        obs1, truth1 = factors.simulate_dataset(n_subjects=6,
                                                obs_per_subject=3, seed=2)
        obs2, truth2 = factors.simulate_dataset(n_subjects=6,
                                                obs_per_subject=3, seed=2)
        assert len(obs1) == 18
        assert truth1 == truth2
        assert [o.f1 for o in obs1] == [o.f1 for o in obs2]
        assert set(factors.CONTRAST_NAMES) == set(truth1)
        for o in obs1:
            assert 0.0 < o.f1 < 1.0
            assert 0 <= o.disease_idx <= 3
