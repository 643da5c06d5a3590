"""Benchmark inputs, generated from the workload seed.

Every file the CLI reads is written here: the INI config of each workload
and, for ``score-d8``, the sample CSV.  Nothing is read from the repository's
own ``configs/``; the values that mirror those configs are spelled out below.
The same seed writes byte-identical files.
"""

import os

import numpy as np

SCORE_N = 4000
SCORE_DIM = 8
SCORE_SHIFT = 0.3
SCORE_M = 1
TUNE_EPS_GRID = ("1e-4", "5e-4", "1e-3", "5e-3", "1e-2", "5e-2")
TUNE_M_LIST = (1, 10, 100)
TUNE_TRIALS = 1
TUNE_STEPS = 1000
SSVGD_ROUNDS = 1000
SSVGD_PARTICLES = 50
SSVGD_BATCH = 5
SSVGD_CHECKPOINT_EVERY = 100

# Fixed inputs for the reference-value check: small versions of score-d8 and
# tune-gmm whose results at the seed commit are stored in reference.json.
REFERENCE_SEED = 20200706
REFERENCE_SCORE_N = 1000
REFERENCE_TUNE_STEPS = 200

GAUSSIAN_TARGET = """[target]
kind = gaussian
dim = {dim}
mu = 0
sigma_sq = 1
L = {L}
"""

IMQ_KERNEL = """
[kernel]
family = imq
beta = -0.5
"""


def score_config(samples, seed):
    return (
        GAUSSIAN_TARGET.format(dim=SCORE_DIM, L=10)
        + IMQ_KERNEL
        + f"\n[score]\nsamples = {samples}\nm = {SCORE_M}\nseed = {seed}\n"
    )


def tune_config(seed, trials=TUNE_TRIALS, chain_steps=TUNE_STEPS):
    # Target and grid of configs/tune_gmm.ini.
    return (
        "[target]\nkind = gmm_posterior\nl = 100\ntheta1 = 0.0\ntheta2 = 1.0\n"
        "sigma_x_sq = 2.0\ndata_seed = 11\n"
        + IMQ_KERNEL
        + f"\n[tune]\neps_grid = {','.join(TUNE_EPS_GRID)}\n"
        f"trials = {trials}\nchain_steps = {chain_steps}\nsgld_batch = 10\n"
        f"init = 0,1\nm_list = {','.join(map(str, TUNE_M_LIST))}\nseed = {seed}\n"
    )


def ssvgd_config(seed, rounds=SSVGD_ROUNDS):
    # Shape of configs/ssvgd_gaussian.ini, with trajectory snapshots on.
    return (
        GAUSSIAN_TARGET.format(dim=1, L=20)
        + "\n[kernel]\nfamily = rbf\nbandwidth = 1.0\n"
        f"\n[svgd]\nrounds = {rounds}\nbatch = {SSVGD_BATCH}\nstep = 0.05\n"
        "schedule = adagrad\nbandwidth_policy = median_per_round\n"
        f"checkpoint_every = {SSVGD_CHECKPOINT_EVERY}\nreport_ksd = true\n"
        "save_trajectory = true\n"
        f"init_n = {SSVGD_PARTICLES}\ninit_mu = 0.5\ninit_sigma = 0.5\n"
        f"seed = {seed}\n"
    )


def gaussian_sample_csv(n, dim, shift, seed):
    """n i.i.d. N((shift, 0, ..., 0), I) rows as a steinlab sample CSV."""
    gen = np.random.Generator(np.random.PCG64(seed))
    points = gen.standard_normal((n, dim))
    points[:, 0] += shift
    lines = [",".join(f"x{j + 1}" for j in range(dim))]
    lines.extend(",".join(repr(float(v)) for v in row) for row in points)
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def write_inputs(workload, seed, directory):
    """Write the inputs of one workload; return the config path."""
    os.makedirs(directory, exist_ok=True)
    config = os.path.join(directory, "config.ini")
    if workload == "score-d8":
        samples = _write(
            os.path.join(directory, "samples.csv"),
            gaussian_sample_csv(SCORE_N, SCORE_DIM, SCORE_SHIFT, seed),
        )
        return _write(config, score_config(samples, seed))
    if workload == "tune-gmm":
        return _write(config, tune_config(seed))
    if workload == "ssvgd-n50":
        return _write(config, ssvgd_config(seed))
    raise ValueError(f"unknown workload {workload!r}")


def write_reference_inputs(workload, directory):
    """Write the fixed reference inputs of a workload, or return None when
    the workload has no reference values."""
    os.makedirs(directory, exist_ok=True)
    config = os.path.join(directory, "reference.ini")
    if workload == "score-d8":
        samples = _write(
            os.path.join(directory, "reference.csv"),
            gaussian_sample_csv(
                REFERENCE_SCORE_N, SCORE_DIM, SCORE_SHIFT, REFERENCE_SEED
            ),
        )
        return _write(config, score_config(samples, REFERENCE_SEED))
    if workload == "tune-gmm":
        return _write(
            config,
            tune_config(REFERENCE_SEED, trials=1, chain_steps=REFERENCE_TUNE_STEPS),
        )
    return None
