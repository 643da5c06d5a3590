"""Byte-for-byte outputs of ``tune-sgld``, ``rank-samplers`` and ``ssvgd``.

The ``tune-sgld`` and ``rank-samplers`` files in ``goldens/`` were written by
the engine that scored every (chain, m) cell with its own ``sksd`` call,
before one call scored a sample at every m; their inputs are
``configs/tune_gmm.ini``, ``configs/rank_logreg.ini`` and the tune-gmm inputs
that ``perfbench`` writes for seed 7001 and for its reference check (copied
here as ``perfbench_tune_*.ini``).  The ``ssvgd`` files (final particles,
trajectory snapshots and ``diagnostics.jsonl``) were written by the loop that
drew each round's subsets with its own call and built each round's squared
distances twice; their inputs are ``configs/ssvgd_gaussian.ini`` and the
ssvgd-n50 input that ``perfbench`` writes for seed 7001 (copied here as
``perfbench_ssvgd_seed7001.ini``).  Every output must stay identical to the
byte at any worker count, with BLAS pinned to one thread and at its default.  The
goldens hold float64 bits from numpy with OpenBLAS on x86-64; a BLAS that
rounds its matrix products differently would need goldens of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinlab
from steinlab import cli

GOLDENS = Path(__file__).resolve().parent / "goldens"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CASES = {
    "tune_gmm": ("tune-sgld", CONFIGS / "tune_gmm.ini"),
    "perfbench_tune_seed7001": ("tune-sgld", GOLDENS / "perfbench_tune_seed7001.ini"),
    "perfbench_tune_reference": ("tune-sgld", GOLDENS / "perfbench_tune_reference.ini"),
    "rank_logreg": ("rank-samplers", CONFIGS / "rank_logreg.ini"),
    "ssvgd_gaussian": ("ssvgd", CONFIGS / "ssvgd_gaussian.ini"),
    "perfbench_ssvgd_seed7001": ("ssvgd", GOLDENS / "perfbench_ssvgd_seed7001.ini"),
    "score_full": ("score", GOLDENS / "score_full.ini"),
    "score_m": ("score", GOLDENS / "score_m.ini"),
    "curve_small": ("curve", GOLDENS / "curve_small.ini"),
    "gmm_data": ("tune-sgld", GOLDENS / "gmm_data.ini"),
    "logreg_data": ("rank-samplers", GOLDENS / "logreg_data.ini"),
    "logreg_generated": ("curve", GOLDENS / "logreg_generated.ini"),
    "ssvgd_init": ("ssvgd", GOLDENS / "ssvgd_init.ini"),
    "ssvgd_rbf_default": ("ssvgd", GOLDENS / "ssvgd_rbf_default.ini"),
}


def _arguments(name, workdir, threads):
    command, config = CASES[name]
    out = workdir / f"{name}.{'json' if command == 'score' else 'csv'}"
    return [command, "--config", str(config), "--out", str(out), "--threads", str(threads)]


def _assert_matches_goldens(name, workdir):
    written = sorted(p.name for p in workdir.iterdir())
    expected = [p for suffix in ("csv", "json", "jsonl")
                for p in GOLDENS.glob(f"{name}.*{suffix}")]
    assert written == sorted(p.name for p in expected)
    for file_name in written:
        assert (workdir / file_name).read_bytes() == (GOLDENS / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_goldens_in_process(tmp_path, monkeypatch, name):
    monkeypatch.chdir(GOLDENS)
    assert cli.main(_arguments(name, tmp_path, threads=1)) == 0
    _assert_matches_goldens(name, tmp_path)


@pytest.mark.parametrize("blas", ["pinned", "default"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_goldens_with_blas_setting(tmp_path, name, blas):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if blas == "pinned":
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    src = str(Path(steinlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "steinlab.cli", *_arguments(name, tmp_path, threads=2)],
        env=env, cwd=GOLDENS, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    _assert_matches_goldens(name, tmp_path)
