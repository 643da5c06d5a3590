"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) and asserts.  Tolerances and scales
are pinned here, not configurable.  Runtimes: criteria 1-3, 9 take seconds;
4, 5, 8 under two minutes; 6, 7 under ten.
"""

import json
import math
import textwrap

import numpy as np
import pytest

from helpers import (
    assert_rel_close,
    fd_gradient,
    fd_kernel_cross,
    fd_kernel_grad_x,
    gaussian_log_density,
    gmm_log_density,
    kernel_cross_deriv_diag,
    kernel_grad_x,
    logreg_log_density,
    one_matrix_stein_sums,
    one_point_score,
    random_instance,
    random_kernel_spec,
    stein_gram,
)
from steinlab import (
    KernelSpec,
    SampleBatch,
    SvgdConfig,
    cli,
    derive_seed,
    draw_subsets,
    gen_gmm_data,
    gen_logreg_data,
    iid_gaussian,
    ksd,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
    run_ssvgd,
    scaled_scores,
    sgld_chain,
    sksd,
)
from steinlab.samplers import SgldConfig
from test_svgd import direct_svgd

IMQ = KernelSpec("imq", beta=-0.5)


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {label}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


class TestCriterion01ClosedForm:
    def test_production_sums_match_gram_oracle(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            batch, target, spec, m = random_instance(
                rng, kinds=("gmm", "logreg"), families=("imq", "log_inverse")
            )
            subsets = draw_subsets(
                batch.n, target.L, m, seed=int(rng.integers(2**32))
            )
            B = scaled_scores(batch, target, subsets)
            w_sq = one_matrix_stein_sums(batch, B, spec)
            for j in range(batch.dim):
                oracle = stein_gram(j, batch, B, spec).sum() / batch.n**2
                rel = abs(w_sq[j] - oracle) / max(abs(oracle), 1e-300)
                worst = max(worst, rel)
        _report(1, "closed form matches Gram oracle at 1e-10", worst <= 1e-10,
                f"worst rel err {worst:.2e}")


class TestCriterion02Degeneracy:
    def test_full_subsampling_is_bit_identical_to_exact(self):
        rng = np.random.default_rng(202)
        ok = True
        for _ in range(10):
            batch, target, spec, _ = random_instance(
                rng,
                kinds=("gmm", "logreg", "gaussian"),
                families=("imq", "log_inverse", "rbf"),
                max_n=30,
            )
            sub = sksd(batch, target, spec, m=target.L,
                       seed=int(rng.integers(2**32)))
            exact = ksd(batch, target, spec)
            ok = ok and sub.value == exact.value
            ok = ok and np.array_equal(sub.w_sq, exact.w_sq)
            ok = ok and sub.term_evals == exact.term_evals == batch.n * target.L
        _report(2, "sksd(m=L) bit-identical to ksd on 10 instances", ok)


class TestCriterion03Derivatives:
    def test_kernel_and_score_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(303)
        ok = True
        # 100 random evaluation points per kernel quantity
        for _ in range(100):
            spec = random_kernel_spec(rng)
            d = int(rng.integers(1, 6))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            assert_rel_close(kernel_grad_x(spec, x, y),
                             fd_kernel_grad_x(spec, x, y))
            assert_rel_close(kernel_cross_deriv_diag(spec, x, y),
                             fd_kernel_cross(spec, x, y))
        # 100 random evaluation points per model score, against log
        # densities written in tests/helpers.py from the model formulas
        obs = gen_gmm_data(0.0, 1.0, 2.0, 9, seed=4)
        X, y = gen_logreg_data(11, 4, [0.4, -0.3, 0.2, 0.1], seed=6)
        models = [
            (make_gaussian([0.3, -0.8], [1.5, 0.5], 5),
             gaussian_log_density([0.3, -0.8], [1.5, 0.5])),
            (make_gmm_posterior(obs), gmm_log_density(obs)),
            (make_logreg(X, y), logreg_log_density(X, y)),
        ]
        for target, f in models:
            for _ in range(100):
                x = rng.standard_normal(target.dim)
                assert_rel_close(one_point_score(target.grad_log_full, x),
                                 fd_gradient(f, x))
        _report(3, "derivatives match central differences at 1e-4", ok)


class TestCriterion04ConvergenceDetection:
    def test_median_discrepancy_halves_from_100_to_2000(self):
        target = make_gaussian(0.0, 1.0, 10, dim=2)
        exact_small, exact_large = [], []
        sub_small, sub_large = [], []
        for seed in range(20):
            batch = iid_gaussian(2000, 2, 0.0, 1.0,
                                 seed=derive_seed(seed, "c4-sample"))
            small = SampleBatch(batch.points[:100])
            exact_small.append(ksd(small, target, IMQ).value)
            exact_large.append(ksd(batch, target, IMQ).value)
            score_seed = derive_seed(seed, "c4-score")
            sub_small.append(sksd(small, target, IMQ, 1, score_seed).value)
            sub_large.append(sksd(batch, target, IMQ, 1, score_seed).value)
        ratio_exact = np.median(exact_large) / np.median(exact_small)
        ratio_sub = np.median(sub_large) / np.median(sub_small)
        _report(4, "median ksd and sksd(m=1) at n=2000 under half of n=100",
                ratio_exact < 0.5 and ratio_sub < 0.5,
                f"exact ratio {ratio_exact:.3f}, subsampled {ratio_sub:.3f}")


class TestCriterion05NonConvergenceDetection:
    def test_off_target_exceeds_on_target(self):
        target = make_gaussian(0.0, 1.0, 10, dim=2)
        hits = 0
        for seed in range(20):
            score_seed = derive_seed(seed, "c5-score")
            on = iid_gaussian(2000, 2, [0.0, 0.0], 1.0,
                              seed=derive_seed(seed, "c5-on"))
            off = iid_gaussian(2000, 2, [1.5, 0.0], 1.0,
                               seed=derive_seed(seed, "c5-off"))
            v_on = sksd(on, target, IMQ, 1, score_seed).value
            v_off = sksd(off, target, IMQ, 1, score_seed).value
            hits += v_off > v_on
        _report(5, "off-target sksd(m=1, n=2000) larger in >= 19/20 seeds",
                hits >= 19, f"{hits}/20")


class TestCriterion06StepSizeSweep:
    def test_argmin_step_identical_across_m(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "tune.ini"
        config.write_text(textwrap.dedent("""\
            [target]
            kind = gmm_posterior
            l = 100
            theta1 = 0.0
            theta2 = 1.0
            sigma_x_sq = 2.0
            data_seed = 11

            [kernel]
            family = imq
            beta = -0.5

            [tune]
            eps_grid = 1e-4,5e-4,1e-3,5e-3,1e-2,5e-2
            trials = 10
            chain_steps = 1000
            sgld_batch = 10
            init = 0,1
            m_list = 1,10,100
            seed = 7
            """))
        assert cli.main(["tune-sgld", "--config", str(config),
                         "--out", "tune.csv"]) == 0
        argmins = {}
        for line in (tmp_path / "tune.summary.csv").read_text().splitlines():
            if line.startswith("# argmin_epsilon.m="):
                key, value = line[2:].split(" = ")
                argmins[int(key.split("=")[1])] = float(value)
        assert set(argmins) == {1, 10, 100}
        values = set(argmins.values())
        _report(6, "argmin step size identical for m in {1, 10, 100}",
                len(values) == 1,
                f"argmins {argmins}; reported minimizer 5e-3 "
                f"{'matched' if values == {5e-3} else 'not matched (not gated)'}")


class TestCriterion07SamplerRanking:
    def test_subsampled_and_exact_rankings_agree(self):
        spec = IMQ
        w_true = np.array([0.3, -0.5, 0.2, 0.0, 0.4])
        X, y = gen_logreg_data(500, 5, w_true, seed=13)
        target = make_logreg(X, y)
        agreements = 0
        ratio_ok = True
        for seed in range(20):
            chains = {}
            for label, eps in (("a", 1e-3), ("b", 0.5)):
                cfg = SgldConfig(step=eps, batch=10, steps=2000,
                                 init=np.zeros(5),
                                 seed=derive_seed(seed, "c7-chain", label))
                chains[label] = sgld_chain(target, cfg)
            score_seed = derive_seed(seed, "c7-score")
            sub = {k: sksd(chains[k], target, spec, 5,
                           score_seed) for k in chains}
            exact = {k: ksd(chains[k], target, spec)
                     for k in chains}
            sub_pref = min(sub, key=lambda k: sub[k].value)
            exact_pref = min(exact, key=lambda k: exact[k].value)
            agreements += sub_pref == exact_pref
            for k in chains:
                # m/L = 5/500 = 1e-2, exactly mirrored by the eval counts
                ratio_ok = ratio_ok and (
                    sub[k].term_evals * 500 == exact[k].term_evals * 5
                )
        _report(7, "sksd(m/L=1e-2) ranking agrees with ksd in >= 19/20 seeds",
                agreements >= 19 and ratio_ok,
                f"{agreements}/20 agree, eval ratio exact: {ratio_ok}")


class TestCriterion08SsvgdConvergence:
    def test_particles_converge_and_degeneracies_hold(self):
        target = make_gaussian(0.0, 1.0, 20)
        rbf = KernelSpec("rbf", bandwidth=1.0)
        passes = 0
        stats = []
        for seed in range(5):
            init = iid_gaussian(50, 1, 0.5, 0.5,
                                seed=derive_seed(seed, "c8-init"))
            config = SvgdConfig(rounds=500, batch=5, kernel=rbf, step=0.05,
                                schedule="adagrad",
                                bandwidth_policy="median_per_round", seed=seed)
            pts = run_ssvgd(init, target, config).final.points
            mean, var = float(pts.mean()), float(pts.var())
            stats.append((round(mean, 3), round(var, 3)))
            passes += abs(mean) < 0.1 and abs(var - 1.0) < 0.2

        # degeneracy: full-batch run is bit-identical to plain descent, and
        # the equal-factor subsampled run follows the same trajectory exactly
        init = iid_gaussian(50, 1, 0.5, 0.5, seed=derive_seed(99, "c8-init"))
        base = dict(rounds=120, kernel=rbf, step=0.05, schedule="adagrad",
                    bandwidth_policy="median_per_round", seed=3)
        full = run_ssvgd(init, target,
                         SvgdConfig(batch=20, **base))
        sub = run_ssvgd(init, target,
                        SvgdConfig(batch=5, **base))
        reference = direct_svgd(init.points, target, rbf,
                                0.05, 120, median_per_round=True)
        identical = (np.array_equal(full.final.points, reference)
                     and np.array_equal(sub.final.points, reference))
        _report(8, "ssvgd converges in >= 4/5 seeds and degeneracies are exact",
                passes >= 4 and identical,
                f"{passes}/5 converged {stats}, exact trajectories: {identical}")


class TestCriterion09Concentration:
    def test_subset_indicator_deviation_bound(self):
        # nu_n(h) versus its one-subset-indicator reweighting: B_i indicates
        # sigma_i = {0} among the C(3,1) singletons, so tau = 1/3.
        n = 10_000
        reps = 10_000
        L, m = 3, 1
        tau = 1.0 / 3.0
        rng = np.random.default_rng(909)
        h = np.tanh(rng.standard_normal(n))
        nu_h = h.mean()
        threshold = (1.0 / tau) * math.sqrt(
            (math.log(n) + 2.0 * math.log(math.log(n))) / (2.0 * n)
        )
        violations = 0
        for rep in range(reps):
            subsets = draw_subsets(n, L, m, seed=derive_seed(rep, "c9"))
            B = subsets[:, 0] == 0
            tilde_h = float(np.mean((B / tau) * h))
            violations += abs(tilde_h - nu_h) > threshold
        rate = violations / reps
        _report(9, "subsampled-measure deviation bound holds (<= 5% violations)",
                rate <= 0.05, f"violation rate {rate:.4f}, bound {threshold:.4f}")


class TestCriterion10Determinism:
    def test_worker_counts_do_not_change_results(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1001)
        ok = True
        # discrepancy paths (criteria 1, 2, 4, 5, 7 cores)
        for _ in range(5):
            batch, target, spec, m = random_instance(
                rng, kinds=("gmm", "logreg", "gaussian"),
                families=("imq", "log_inverse", "rbf"),
            )
            seed = int(rng.integers(2**32))
            r1 = sksd(batch, target, spec, m, seed, threads=1)
            r8 = sksd(batch, target, spec, m, seed, threads=8)
            ok = ok and r1.value == r8.value and np.array_equal(r1.w_sq, r8.w_sq)
            e1 = ksd(batch, target, spec, threads=1)
            e8 = ksd(batch, target, spec, threads=8)
            ok = ok and e1.value == e8.value
        # a particle run crossing block boundaries (criterion 8 core)
        target = make_gaussian(0.0, 1.0, 8, dim=2)
        init = iid_gaussian(300, 2, 0.5, 0.5, seed=5)
        config = SvgdConfig(rounds=10, batch=2, kernel=IMQ,
                            bandwidth_policy="fixed", seed=9)
        a = run_ssvgd(init, target, config, threads=1)
        b = run_ssvgd(init, target, config, threads=8)
        ok = ok and np.array_equal(a.final.points, b.final.points)
        # a full command-level run (criterion 6 core)
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "mini.ini"
        config_path.write_text(textwrap.dedent("""\
            [target]
            kind = gmm_posterior
            l = 30
            data_seed = 11

            [kernel]
            family = imq
            beta = -0.5

            [tune]
            eps_grid = 1e-3,1e-2
            trials = 3
            chain_steps = 300
            sgld_batch = 5
            init = 0,1
            m_list = 1,full
            seed = 7
            """))
        cli.main(["tune-sgld", "--config", str(config_path), "--out", "w1.csv",
                  "--threads", "1"])
        cli.main(["tune-sgld", "--config", str(config_path), "--out", "w8.csv",
                  "--threads", "8"])
        ok = ok and (tmp_path / "w1.csv").read_bytes() == \
            (tmp_path / "w8.csv").read_bytes()
        _report(10, "results identical at 1 and 8 worker threads", ok)
