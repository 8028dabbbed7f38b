from dataclasses import replace

import numpy as np
import pytest

from proxyrank import (DataValidationError, Dataset, IVExperiment,
                       SimConfig, WeakInstrumentError, simulate_campaign,
                       validate_ranking_splits, wald_2sls)
from proxyrank.ranking import top_fraction_indices
from proxyrank.rng import substream
from proxyrank.validation import IVResult


@pytest.fixture(scope="module")
def campaign():
    return simulate_campaign(SimConfig(n=10_000, k=10, seed=21,
                                       compliance_table=(0.8, 0.3)))


def perfect_compliance_experiment(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    z = np.resize([0, 1], n)
    y = 1.0 + 2.0 * z + rng.normal(0, 0.5, n)
    data = Dataset(X, z.astype(int), y)  # A == Z
    return IVExperiment(data=data, z=z)


class TestSimulateCampaign:
    def test_exposure_fraction(self, campaign):
        z = campaign.z
        p = 0.661
        se = np.sqrt(p * (1 - p) / len(z))
        assert abs(z.mean() - p) < 3 * se

    def test_compliance_lift(self, campaign):
        a = campaign.data.treatment
        z = campaign.z
        lift = a[z == 1].mean() - a[z == 0].mean()
        assert abs(lift - 0.5) < 0.03

    def test_outcome_realized_through_proxy_action(self, campaign):
        gt = campaign.data.ground_truth
        a = campaign.data.treatment
        expect = np.where(a == 1, gt.y1, gt.y0)
        np.testing.assert_array_equal(campaign.data.outcome, expect)

    def test_invalid_exposure(self):
        from proxyrank import ConfigError
        with pytest.raises(ConfigError):
            simulate_campaign(SimConfig(n=100, k=8), exposure=1.0)

    def test_single_arm_instrument_rejected(self):
        d = Dataset(np.zeros((4, 1)), np.resize([0, 1], 4), np.zeros(4))
        with pytest.raises(DataValidationError, match="single-arm instrument"):
            IVExperiment(data=d, z=np.ones(4, dtype=int))

    def test_single_arm_campaign_rejected(self):
        cfg = SimConfig(n=4, k=4, seed=1)
        assert (substream(cfg.seed, "campaign-z").random(cfg.n) >= 0.01).all()  # z all 0
        with pytest.raises(DataValidationError,
                           match="^single-arm instrument: both z arms are required$"):
            simulate_campaign(cfg, exposure=0.01)

    def test_negative_compliance_without_a_table_is_the_clean_campaign(self):
        cfg = SimConfig(n=500, k=6, seed=4, mode="negative_compliance")
        got, want = simulate_campaign(cfg), simulate_campaign(replace(cfg, mode="clean"))
        for name in ("covariates", "treatment", "outcome"):
            np.testing.assert_array_equal(getattr(got.data, name), getattr(want.data, name))
        np.testing.assert_array_equal(got.z, want.z)
        for name in ("true_group", "true_cate", "y0", "y1", "z"):
            np.testing.assert_array_equal(getattr(got.data.ground_truth, name),
                                          getattr(want.data.ground_truth, name))


class TestWald:
    def test_perfect_compliance_equals_mean_difference(self):
        e = perfect_compliance_experiment()
        est = wald_2sls(e)
        y, z = e.data.outcome, e.z
        diff = y[z == 1].mean() - y[z == 0].mean()
        assert est.first_stage == pytest.approx(1.0)
        assert est.cate == pytest.approx(diff)

    def test_weak_instrument_rejected(self):
        rng = np.random.default_rng(3)
        n = 400
        z = np.resize([0, 1], n)
        a = np.resize([0, 0, 1, 1], n)  # same treated share in both z arms
        d = Dataset(rng.standard_normal((n, 2)), a, rng.standard_normal(n))
        with pytest.raises(WeakInstrumentError):
            wald_2sls(IVExperiment(data=d, z=z))

    def test_itt_equals_compliance_times_effect(self):
        # one effect group of 30, compliance lift 0.5: ITT ~ 15, Wald ~ 30
        cfg = SimConfig(n=20_000, k=8, cate_levels=(30.0, 30.0, 30.0, 30.0),
                        seed=5, compliance_table=(0.8, 0.3))
        e = simulate_campaign(cfg)
        y, z = e.data.outcome, e.z
        itt = y[z == 1].mean() - y[z == 0].mean()
        est = wald_2sls(e)
        itt_se = np.sqrt(y[z == 1].var() / (z == 1).sum()
                         + y[z == 0].var() / (z == 0).sum())
        assert abs(itt - 15.0) < 3 * itt_se
        assert abs(est.cate - 30.0) < 3 * est.se

    def test_group_needs_both_instrument_arms(self):
        e = perfect_compliance_experiment()
        only_z1 = np.flatnonzero(e.z == 1)
        with pytest.raises(DataValidationError, match="single instrument arm"):
            wald_2sls(e, group=only_z1)

    def test_outcome_scaling_covariance(self):
        e = perfect_compliance_experiment(seed=4)
        est = wald_2sls(e)
        scaled = IVExperiment(
            data=Dataset(e.data.covariates, e.data.treatment, 10.0 * e.data.outcome),
            z=e.z)
        est10 = wald_2sls(scaled)
        assert est10.cate == pytest.approx(10.0 * est.cate)
        assert est10.se == pytest.approx(10.0 * est.se)


class TestValidateRankingSplits:
    def test_oracle_ranking_separates_everywhere(self, campaign):
        result = validate_ranking_splits(campaign, campaign.data.ground_truth.true_cate)
        assert len(result.separation) == 9
        assert all(v is True for v in result.separation.values())

    def test_grid_produces_pairs(self, campaign):
        result = validate_ranking_splits(campaign, campaign.data.ground_truth.true_cate)
        assert len(result.records) == 18  # high and low per threshold
        ks = sorted({r.k for r in result.records})
        assert ks == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]

    def test_high_low_partition(self, campaign):
        result = validate_ranking_splits(campaign, campaign.data.ground_truth.true_cate,
                                         k_grid=(30.0,))
        ns = {r.group: r.estimate.n_group for r in result.records}
        assert ns["high"] + ns["low"] == campaign.data.n
        assert ns["high"] == 3000

    def test_splits_are_the_top_fraction_and_the_rest(self, campaign):
        # coarse predictions, so most units tie with others
        rng = np.random.default_rng(5)
        predicted = np.round(rng.standard_normal(campaign.data.n), 1)
        result = validate_ranking_splits(campaign, predicted)
        for rec in result.records:
            high = top_fraction_indices(predicted, rec.k)
            idx = high if rec.group == "high" else np.setdiff1d(np.arange(campaign.data.n), high)
            assert rec.estimate == wald_2sls(campaign, idx)

    def test_uninformative_ranking_separates_nowhere_systematically(self, campaign):
        rng = np.random.default_rng(17)
        result = validate_ranking_splits(campaign, rng.standard_normal(campaign.data.n))
        by_k = {}
        for rec in result.records:
            if rec.estimate is not None:
                by_k.setdefault(rec.k, {})[rec.group] = rec.estimate
        within = []
        for k, pair in by_k.items():
            gap = pair["high"].cate - pair["low"].cate
            combined = np.hypot(pair["high"].se, pair["low"].se)
            within.append(abs(gap) < 2 * combined)
        assert np.mean(within) >= 0.66  # most thresholds show no separation

    def test_small_groups_skipped_with_note(self):
        cfg = SimConfig(n=300, k=8, seed=9, compliance_table=(0.8, 0.3))
        e = simulate_campaign(cfg)
        result = validate_ranking_splits(e, e.data.ground_truth.true_cate, k_grid=(10.0,),
                                         min_arm=50)
        skipped = [r for r in result.records if r.skipped]
        assert skipped and "below 50" in skipped[0].skipped
        assert result.separation[10.0] is None

    def test_separated_fraction_of_no_measured_threshold_is_none(self):
        assert IVResult(records=(), separation={10.0: None, 20.0: None}) \
            .separated_fraction() is None
        assert IVResult(records=(), separation={10.0: None, 20.0: True, 30.0: False}) \
            .separated_fraction() == 0.5

    def test_prediction_length_mismatch(self, campaign):
        with pytest.raises(DataValidationError,
                           match="predicted_ite length differs from dataset length"):
            validate_ranking_splits(campaign, np.zeros(campaign.data.n - 1))

    def test_monotone_expected_high_group_effect(self, campaign):
        # nested top-k sets over the true effect: mean true effect of the
        # high group is non-increasing in k
        result = validate_ranking_splits(campaign, campaign.data.ground_truth.true_cate)
        highs = [r for r in result.records if r.group == "high" and r.estimate]
        highs.sort(key=lambda r: r.k)
        cates = [r.estimate.cate for r in highs]
        for c1, c2 in zip(cates, cates[1:]):
            assert c2 <= c1 + 3.0 * 2.0  # noise allowance between adjacent k
