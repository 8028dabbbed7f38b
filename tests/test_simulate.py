import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyrank import (ConfigError, Dataset, GroundTruth, SimConfig, ground_truth_rank,
                       simulate_cohort)
from proxyrank.rng import substream
from proxyrank.simulate import draw_outcomes


@pytest.fixture(scope="module")
def default_cohort():
    return simulate_cohort(SimConfig(seed=7))


class TestDefaults:
    def test_shapes_and_groups(self, default_cohort):
        obs = default_cohort.observed
        assert (obs.n, obs.k) == (10_000, 50)
        sizes = np.bincount(default_cohort.oracle.ground_truth.true_group)[1:]
        assert sizes.tolist() == [2500, 2500, 2500, 2500]
        assert sorted(np.unique(default_cohort.oracle.ground_truth.true_cate)) == \
            [10.0, 20.0, 30.0, 40.0]

    def test_observed_is_masked(self, default_cohort):
        assert default_cohort.observed.ground_truth is None
        assert default_cohort.oracle.ground_truth is not None

    def test_observed_oracle_agree_rowwise(self, default_cohort):
        obs, orc = default_cohort.observed, default_cohort.oracle
        assert (obs.covariates == orc.covariates).all()
        assert (obs.treatment == orc.treatment).all()
        assert (obs.outcome == orc.outcome).all()

    def test_outcome_is_selected_potential(self, default_cohort):
        gt = default_cohort.oracle.ground_truth
        y = default_cohort.oracle.outcome
        expect = np.where(gt.z == 1, gt.y1, gt.y0)
        np.testing.assert_array_equal(y, expect)


class TestOracleMeans:
    def test_group_contrasts_match_configured_effects(self, default_cohort):
        # Monte-Carlo oracle over the generated cohort: within each group the
        # z=1 / z=0 outcome contrast recovers the configured effect. The
        # baseline X·beta variance dominates the contrast noise, so the bound
        # is 4 Welch SEs; a systematic effect-size error of O(1) still fails.
        cfg = default_cohort.config
        gt = default_cohort.oracle.ground_truth
        y = default_cohort.oracle.outcome
        for g, cate in enumerate(cfg.cate_levels, start=1):
            m = gt.true_group == g
            y1 = y[m & (gt.z == 1)]
            y0 = y[m & (gt.z == 0)]
            contrast = y1.mean() - y0.mean()
            tol = 4.0 * np.sqrt(y1.var(ddof=1) / len(y1) + y0.var(ddof=1) / len(y0))
            assert abs(contrast - cate) < tol

    def test_potential_outcome_gap_is_exact(self, default_cohort):
        gt = default_cohort.oracle.ground_truth
        np.testing.assert_allclose(gt.y1 - gt.y0, gt.true_cate, atol=1e-9)

    def test_zero_effect_levels(self):
        out = simulate_cohort(SimConfig(n=400, k=8, cate_levels=(0.0, 0.0, 0.0, 0.0), seed=3))
        gt = out.oracle.ground_truth
        np.testing.assert_array_equal(gt.y1, gt.y0)
        assert (ground_truth_rank(out) == 1).all()


class TestCompliance:
    @pytest.mark.parametrize("mode", ["clean", "negative_compliance"])
    def test_empirical_compliance_matches_table(self, mode):
        out = simulate_cohort(SimConfig(n=10_000, k=8, seed=5, mode=mode))
        p11, p10 = out.config.compliance()
        gt = out.oracle.ground_truth
        a = out.oracle.treatment
        for z_val, p in ((1, p11), (0, p10)):
            m = gt.z == z_val
            se = np.sqrt(p * (1 - p) / m.sum())
            assert abs(a[m].mean() - p) < 3 * se

    def test_mode_table_orientation_enforced(self):
        with pytest.raises(ConfigError, match="positive compliance"):
            SimConfig(mode="clean", compliance_table=(0.2, 0.6))
        with pytest.raises(ConfigError):
            SimConfig(mode="negative_compliance", compliance_table=(0.8, 0.3))

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigError):
            SimConfig(compliance_table=(1.0, 0.3))
        with pytest.raises(ConfigError):
            SimConfig(z_assignment_prob=0.0)
        with pytest.raises(ConfigError):
            SimConfig(n=0)


class TestConfoundedMode:
    def test_hidden_confounder_correlates(self):
        out = simulate_cohort(SimConfig(n=10_000, k=10, seed=2, mode="confounded"))
        u = out.hidden_confounder
        a = out.oracle.treatment
        y = out.oracle.outcome
        assert abs(np.corrcoef(u, y)[0, 1]) > 0.05
        assert abs(np.corrcoef(u, a)[0, 1]) > 0.05

    def test_outcome_only_variant_leaves_treatment_clean(self):
        out = simulate_cohort(SimConfig(n=10_000, k=10, seed=2, mode="confounded",
                                        confound_treatment=False))
        u = out.hidden_confounder
        a = out.oracle.treatment
        y = out.oracle.outcome
        assert abs(np.corrcoef(u, y)[0, 1]) > 0.05
        assert abs(np.corrcoef(u, a)[0, 1]) < 0.05

    def test_clean_mode_has_zero_confounder(self, default_cohort):
        assert (default_cohort.hidden_confounder == 0).all()


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = simulate_cohort(SimConfig(n=500, k=8, seed=123))
        b = simulate_cohort(SimConfig(n=500, k=8, seed=123))
        assert (a.observed.covariates == b.observed.covariates).all()
        assert (a.observed.treatment == b.observed.treatment).all()
        assert (a.observed.outcome == b.observed.outcome).all()
        assert (a.oracle.ground_truth.z == b.oracle.ground_truth.z).all()

    def test_different_seed_differs(self):
        a = simulate_cohort(SimConfig(n=500, k=8, seed=123))
        b = simulate_cohort(SimConfig(n=500, k=8, seed=124))
        assert not (a.observed.outcome == b.observed.outcome).all()


class TestGroundTruthRank:
    def test_levels_follow_effect_order(self, default_cohort):
        levels = ground_truth_rank(default_cohort)
        gt = default_cohort.oracle.ground_truth
        assert levels[gt.true_cate == 10.0].min() == 1
        assert levels[gt.true_cate == 10.0].max() == 1
        assert (levels[gt.true_cate == 40.0] == 4).all()

    def test_counting(self, default_cohort):
        levels = ground_truth_rank(default_cohort)
        assert np.bincount(levels)[1:].tolist() == [2500] * 4

    def test_ties_share_level(self):
        out = simulate_cohort(SimConfig(n=400, k=8, cate_levels=(5.0, 5.0, 9.0, 9.0), seed=1))
        levels = ground_truth_rank(out)
        assert set(np.unique(levels)) == {1, 2}

    @settings(max_examples=200, deadline=None)
    @given(cate=st.lists(st.sampled_from([-0.0, 0.0, 40.0, -2.5, 1e-300])
                         | st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_levels_equal_a_lookup_by_effect(self, cate):
        """Tied and unsorted effects, a single group, and -0.0 next to 0.0,
        which are one key: each unit's level is its effect's 1-based
        position among the distinct effects."""
        cate = np.asarray(cate)
        n = len(cate)
        gt = GroundTruth(true_group=np.ones(n, dtype=np.int64), true_cate=cate,
                         y0=np.zeros(n), y1=cate, z=np.zeros(n, dtype=np.int64))
        d = Dataset(np.zeros((n, 1)), np.zeros(n, dtype=np.int64), np.zeros(n), ground_truth=gt)
        levels_of = {c: i + 1 for i, c in enumerate(np.unique(cate))}
        want = np.array([levels_of[c] for c in cate], dtype=np.int64)
        got = ground_truth_rank(d)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_requires_ground_truth(self, default_cohort):
        from proxyrank import DataValidationError
        with pytest.raises(DataValidationError):
            ground_truth_rank(default_cohort.observed)


class TestCovariateDrivenAssignment:
    def test_strength_creates_observed_confounding(self):
        out = simulate_cohort(SimConfig(n=4000, k=10, seed=3, z_covariate_strength=1.0))
        X = out.observed.covariates
        a = out.observed.treatment
        gap = X[a == 1].mean(axis=0) - X[a == 0].mean(axis=0)
        assert np.abs(gap).max() > 0.1  # some covariates shifted between arms


class TestGroupEmbedding:
    def test_group_block_is_one_hot(self, default_cohort):
        block = default_cohort.observed.covariates[:, -4:]
        assert set(np.unique(block)) == {0.0, 1.0}
        np.testing.assert_array_equal(block.sum(axis=1), np.ones(10_000))

    def test_without_embedding_ranking_is_chance_level(self):
        # the effect group is independent of X when not embedded, so no
        # model can rank units better than chance (RMSE of independent
        # uniform levels is sqrt(2.5) ~ 1.58)
        from proxyrank import (ModelSpec, ground_truth_rank, rank_rmse,
                               run_analysis)
        out = simulate_cohort(SimConfig(n=4000, k=10, seed=6, embed_groups=False))
        assert out.observed.k == 10
        result = run_analysis(out.observed, ModelSpec(family="linear_wls"))
        rmse = rank_rmse(result.ranked.level, ground_truth_rank(out))
        assert rmse > 1.2

    def test_k_smaller_than_groups_rejected(self):
        with pytest.raises(ConfigError, match="embed group indicators"):
            SimConfig(k=3, cate_levels=(1.0, 2.0, 3.0, 4.0))


def draw_outcomes_hstack(cfg: SimConfig):
    """``draw_outcomes`` as it was built before X was filled in place: one
    (n, noise columns) draw with the one-hot block stacked on its right."""
    n, k, L = cfg.n, cfg.k, cfg.n_groups
    seed = cfg.seed
    noise_dims = k - L if cfg.embed_groups else k
    X = substream(seed, "x").standard_normal((n, noise_dims))
    names = tuple(f"x{j}" for j in range(noise_dims))
    groups = np.tile(np.arange(L), n // L + 1)[:n]
    substream(seed, "groups").shuffle(groups)
    if cfg.embed_groups:
        onehot = np.zeros((n, L))
        onehot[np.arange(n), groups] = 1.0
        X = np.hstack([X, onehot])
        names += tuple(f"g{j}" for j in range(L))
    beta = substream(seed, "beta").choice(
        np.asarray(cfg.coef_values, dtype=float), size=k, p=cfg.coef_probs)
    u = substream(seed, "u").standard_normal(n)
    y0 = X @ beta + substream(seed, "eps").normal(0.0, cfg.noise_sd, n)
    if cfg.mode == "confounded":
        y0 = y0 + cfg.confounder_strength * u
    y1 = y0 + np.asarray(cfg.cate_levels, dtype=float)[groups]
    return X, names, groups, u, y0, y1


@pytest.mark.parametrize("mode", ["clean", "confounded"])
@pytest.mark.parametrize("embed_groups", [True, False])
def test_in_place_draw_equals_the_stacked_one(mode, embed_groups):
    # several 4096-row ranges and a remainder: the "x" stream continues
    # across ranges, so the in-place X is the single draw bit for bit
    cfg = SimConfig(n=2 * 4096 + 3, k=12, mode=mode, embed_groups=embed_groups, seed=5)
    got, want = draw_outcomes(cfg), draw_outcomes_hstack(cfg)
    assert got[0].shape == want[0].shape == (cfg.n, cfg.k)
    assert got[0].flags.c_contiguous
    assert got[1] == want[1]
    for a, b in zip(got[2:], want[2:]):  # groups, u, y0, y1
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[0].tobytes() == want[0].tobytes()
