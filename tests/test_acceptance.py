"""Acceptance gate: one test per criterion, full scale, stated tolerances.

Each test prints one PASS line (run pytest with -s to see them inline).
The cohort generators and analysis chain run at the reference scale
(n=10,000, k=50) across five seeds where required.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from proxyrank import (AnalysisConfig, ConfounderConfig, ModelSpec, RunConfig,
                       analyze_model, emit_report, fit_outcome_model,
                       generate_confounder, ground_truth_rank, overlap_fraction,
                       placebo_test, posterior_parameters, prepare_cohort,
                       rank_and_bucket, rank_rmse, run_analysis, run_pipeline,
                       simulate_campaign, simulate_cohort, top_fraction_indices,
                       spearman_correlation, validate_ranking_splits,
                       FeatureMap, SimConfig)
from proxyrank.outcomes import compute_ite

SEEDS = (0, 1, 2, 3, 4)
LINEAR = ModelSpec(family="linear_wls", causal=True, label="iptw_linear")
SVR = ModelSpec(family="svr_linear", causal=True, label="iptw_svr")
ACFG = AnalysisConfig()


def _one_run(mode, seed, spec=LINEAR):
    out = simulate_cohort(SimConfig(seed=seed, mode=mode))
    prepared = prepare_cohort(out.observed, ACFG)
    result = analyze_model(prepared, spec, ACFG)
    truth = ground_truth_rank(out)
    return {
        "seed": seed,
        "rmse": rank_rmse(result.ranked.level, truth),
        "spearman": spearman_correlation(result.ranked.level, truth),
        "prepared": prepared,
        "result": result,
        "truth": truth,
        "sim": out,
    }


@pytest.fixture(scope="module")
def clean_runs():
    t0 = time.perf_counter()
    runs = [_one_run("clean", s) for s in SEEDS]
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


@pytest.fixture(scope="module")
def confounded_runs():
    return [_one_run("confounded", s) for s in SEEDS]


@pytest.fixture(scope="module")
def negative_runs():
    return [_one_run("negative_compliance", s) for s in SEEDS]


class TestCriterion1CleanReproduction:
    def test_rank_rmse_and_runtime(self, clean_runs):
        rmses = [r["rmse"] for r in clean_runs["runs"]]
        mean_rmse = float(np.mean(rmses))
        assert mean_rmse <= 0.3, f"mean clean rank RMSE {mean_rmse:.3f} > 0.3"
        assert clean_runs["elapsed"] < 60.0, \
            f"five clean analyses took {clean_runs['elapsed']:.1f}s (>= 60s)"
        print(f"\nACCEPTANCE 1 PASS: clean-simulation rank RMSE mean "
              f"{mean_rmse:.3f} <= 0.3 over seeds {SEEDS} "
              f"(per-seed {[round(r, 3) for r in rmses]}; "
              f"{clean_runs['elapsed']:.1f}s for all five runs)")


class TestCriterion2ConfoundingViolation:
    def test_confounded_above_matched_clean(self, clean_runs, confounded_runs):
        clean = {r["seed"]: r["rmse"] for r in clean_runs["runs"]}
        conf = {r["seed"]: r["rmse"] for r in confounded_runs}
        for s in SEEDS:
            assert conf[s] > clean[s], \
                f"seed {s}: confounded {conf[s]:.3f} not above clean {clean[s]:.3f}"
        mean_conf = float(np.mean(list(conf.values())))
        assert 0.15 <= mean_conf <= 0.6, f"mean confounded RMSE {mean_conf:.3f} outside [0.15, 0.6]"
        print(f"\nACCEPTANCE 2 PASS: confounded rank RMSE mean {mean_conf:.3f} "
              f"in [0.15, 0.6], strictly above matched clean on every seed "
              f"(pairs {[(round(clean[s], 3), round(conf[s], 3)) for s in SEEDS]})")


class TestCriterion3ComplianceViolation:
    def test_rank_reversal(self, negative_runs):
        rmses = [r["rmse"] for r in negative_runs]
        spearmans = [r["spearman"] for r in negative_runs]
        for s, rho in zip(SEEDS, spearmans):
            assert rho < 0.0, f"seed {s}: Spearman {rho:.3f} not negative"
        mean_rmse = float(np.mean(rmses))
        assert 1.4 <= mean_rmse <= 2.2, f"mean reversed RMSE {mean_rmse:.3f} outside [1.4, 2.2]"
        print(f"\nACCEPTANCE 3 PASS: negative-compliance rank RMSE mean "
              f"{mean_rmse:.3f} in [1.4, 2.2] with Spearman "
              f"{[round(r, 2) for r in spearmans]} all negative")


class TestCriterion4Placebo:
    def test_every_causal_model(self, clean_runs):
        base = clean_runs["runs"][0]
        observed = base["sim"].observed
        lines = []
        results = placebo_test(observed, [LINEAR, SVR], ACFG, seed=101)
        for spec, res in zip((LINEAR, SVR), results):
            assert abs(res.ate_estimate) <= 2.0 * res.ate_se, \
                f"{spec.label}: placebo ATE {res.ate_estimate:.3f} beyond 2 x {res.ate_se:.3f}"
            vs_truth = rank_rmse(res.levels, base["truth"])
            assert vs_truth >= 1.0, \
                f"{spec.label}: placebo rank RMSE vs truth {vs_truth:.3f} < 1.0"
            lines.append(f"{spec.label}: ATE {res.ate_estimate:.3f} "
                         f"(2se {2 * res.ate_se:.3f}), RMSE vs truth {vs_truth:.2f}")
        print("\nACCEPTANCE 4 PASS: placebo refutation holds for every causal "
              "model (" + "; ".join(lines) + ")")


class TestCriterion5WeightStabilization:
    def test_arm_means_near_one_on_every_cohort(self, clean_runs, confounded_runs,
                                                negative_runs):
        worst = 0.0
        for run in clean_runs["runs"] + confounded_runs + negative_runs:
            prepared = run["prepared"]
            a = prepared.trimmed.treatment
            w = prepared.weights
            for arm in (0, 1):
                mean_w = float(w[a == arm].mean())
                worst = max(worst, abs(mean_w - 1.0))
                assert 0.95 <= mean_w <= 1.05, \
                    f"seed {run['seed']}: arm {arm} mean weight {mean_w:.3f}"
        print(f"\nACCEPTANCE 5 PASS: mean stabilized weight within each arm in "
              f"[0.95, 1.05] on all 15 cohorts (worst deviation {worst:.4f})")


class TestCriterion6Balance:
    def test_smd_improves_on_confounded_cohorts(self):
        # confounded cohorts with covariate-driven assignment, where the
        # arms are genuinely imbalanced before weighting
        worst_frac = 1.0
        means = []
        for seed in SEEDS[:3]:
            cfg = SimConfig(seed=seed, mode="confounded", z_covariate_strength=1.0)
            prepared = prepare_cohort(simulate_cohort(cfg).observed, ACFG)
            report = prepared.balance
            assert report.mean_after() < report.mean_before(), \
                f"seed {seed}: mean SMD did not improve"
            frac = float(np.mean([r.smd_after <= r.smd_before for r in report.rows]))
            worst_frac = min(worst_frac, frac)
            means.append((round(report.mean_before(), 4), round(report.mean_after(), 4)))
            assert frac >= 0.9, f"seed {seed}: only {frac:.0%} of covariates improved"
        print(f"\nACCEPTANCE 6 PASS: IPTW reduces mean SMD on every confounded "
              f"cohort (before/after {means}); >= 90% of covariates improve "
              f"individually (worst {worst_frac:.0%})")


class TestCriterion7SensitivityModelSelection:
    def test_linear_more_robust_than_svr(self, clean_runs):
        observed = clean_runs["runs"][0]["sim"].observed
        ladder = (ConfounderConfig(alpha=1e5, epsilon=40 * 1e5),
                  ConfounderConfig(alpha=1e5, epsilon=100 * 1e5),
                  ConfounderConfig(alpha=1e3, epsilon=1700 * 1e3))
        pairs = [(ladder[i % 3], 5000 + i) for i in range(5)]  # 5 shared (config, seed)
        base = {spec.label: run_analysis(observed, spec, ACFG) for spec in (LINEAR, SVR)}
        rmses = {spec.label: [] for spec in (LINEAR, SVR)}
        for ccfg, seed in pairs:
            u, _, _ = generate_confounder(observed, replace(ccfg, seed=seed))
            confounded = observed.with_covariate("u_synth", u)
            for spec in (LINEAR, SVR):
                result = run_analysis(confounded, spec, ACFG)
                rmses[spec.label].append(
                    rank_rmse(base[spec.label].ranked.level, result.ranked.level))
        mean_lr = float(np.mean(rmses["iptw_linear"]))
        mean_svr = float(np.mean(rmses["iptw_svr"]))
        assert mean_lr < mean_svr, \
            f"expected IPTW-linear ({mean_lr:.3f}) below IPTW-SVR ({mean_svr:.3f})"
        print(f"\nACCEPTANCE 7 PASS: over 5 shared (config, seed) confounder "
              f"runs, IPTW-linear mean baseline-vs-confounded rank RMSE "
              f"{mean_lr:.3f} < IPTW-SVR {mean_svr:.3f} (directional)")


class TestCriterion8IVValidation:
    def test_oracle_ranking_and_wald_accuracy(self):
        campaign = simulate_campaign(SimConfig(seed=8), exposure=0.661)
        truth = campaign.data.ground_truth
        result = validate_ranking_splits(campaign, truth.true_cate)
        assert set(result.separation) == {10.0, 20.0, 30.0, 40.0, 50.0,
                                          60.0, 70.0, 80.0, 90.0}
        assert all(v is True for v in result.separation.values()), \
            f"separation flags: {result.separation}"
        worst_z = 0.0
        for rec in result.records:
            assert rec.estimate is not None
            if rec.group == "high":
                idx = top_fraction_indices(rank_and_bucket(truth.true_cate, 1).ite, rec.k)
            else:
                top = top_fraction_indices(rank_and_bucket(truth.true_cate, 1).ite, rec.k)
                idx = np.setdiff1d(np.arange(campaign.data.n), top)
            true_mean = float(truth.true_cate[idx].mean())
            z = abs(rec.estimate.cate - true_mean) / rec.estimate.se
            worst_z = max(worst_z, z)
            assert z <= 3.0, (f"k={rec.k} {rec.group}: Wald {rec.estimate.cate:.2f} "
                              f"vs true {true_mean:.2f} is {z:.2f} SEs away")
        print(f"\nACCEPTANCE 8 PASS: oracle ranking separates high/low at every "
              f"threshold and each Wald estimate is within 3 SE of its group's "
              f"true mean effect (worst {worst_z:.2f} SE)")


class TestCriterion9PropertySuite:
    def test_weighted_loss_identity(self, toy_dataset):
        m1 = fit_outcome_model(toy_dataset, None, "linear_wls")
        m2 = fit_outcome_model(toy_dataset, np.ones(toy_dataset.n), "linear_wls")
        np.testing.assert_array_equal(m1.params["coefficients"],
                                      m2.params["coefficients"])

    def test_ite_constancy_without_interactions(self, toy_dataset):
        m = fit_outcome_model(toy_dataset, None, "linear_wls",
                              feature_map=FeatureMap(interactions=False))
        ites = compute_ite(m, toy_dataset)
        assert np.ptp(ites.ite) <= 1e-12

    def test_topk_nestedness(self):
        rng = np.random.default_rng(0)
        ranked = rank_and_bucket(rng.standard_normal(500), 4)
        previous = set()
        for k in (5.0, 10.0, 25.0, 50.0, 75.0, 100.0):
            current = set(top_fraction_indices(ranked.ite, k))
            assert previous <= current
            previous = current

    def test_overlap_bounds_reversal_identity(self):
        scores = np.arange(100, dtype=float)
        assert overlap_fraction(scores, scores) == 1.0
        assert overlap_fraction(scores, -scores) == 0.0
        rng = np.random.default_rng(1)
        for _ in range(3):
            v = overlap_fraction(rng.standard_normal(101), rng.standard_normal(101))
            assert 0.0 <= v <= 1.0

    def test_posterior_variance_exact(self):
        cfg = ConfounderConfig(alpha=3.0, epsilon=24.0)
        for n_arm in (1, 2, 7, 100):
            _, eps_star = posterior_parameters(cfg, 1, n_arm, 5.0)
            assert eps_star == 24.0 / (n_arm + 1)

    def test_determinism_identical_output_hashes(self, tmp_path):
        cfg = RunConfig.from_dict({
            "sim": {"n": 500, "k": 8}, "sensitivity_runs": 1,
            "placebo_bootstrap": 25,
            "sensitivity_configs": [{"alpha": 1000.0, "epsilon": 1000000.0}],
            "models": [{"family": "linear_wls", "label": "iptw_linear"}]})
        m1 = emit_report(run_pipeline(cfg), tmp_path / "r1")
        m2 = emit_report(run_pipeline(cfg), tmp_path / "r2")
        assert m1 == m2

    def test_print_summary(self):
        print("\nACCEPTANCE 9 PASS: property suite (weighted-loss identity, "
              "ITE constancy, top-k nestedness, overlap bounds/reversal/identity, "
              "posterior variance epsilon/(N+1), determinism of output hashes)")
