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

Every output echoes the resolved config it was run with.  An INI rebuilt
from the echo of a case's main output reruns the case to the same bytes,
and every row of the command field tables reaches the echo.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinlab
from steinlab import KernelSpec, cli

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


# The section that holds each command's bare ``seed``.
SEED_SECTIONS = {"score": "score", "tune-sgld": "tune", "rank-samplers": "rank",
                 "ssvgd": "svgd", "curve": "curve"}
# Echo lines that report a result rather than a config value.
RESULT_PREFIXES = ("argmin_epsilon.",)


def _main_output(name, workdir):
    command, _ = CASES[name]
    return workdir / f"{name}.{'json' if command == 'score' else 'csv'}"


def _arguments(name, workdir, threads, config=None):
    command, case_config = CASES[name]
    return [command, "--config", str(config or case_config),
            "--out", str(_main_output(name, workdir)), "--threads", str(threads)]


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


def _echo(path):
    """The config that an output echoes: its leading ``# key = value`` lines
    without the results, or ``"config"`` in the JSON that ``score`` writes."""
    if path.suffix == ".json":
        return json.loads(path.read_text())["config"]
    echo = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, value = line[2:].split(" = ", 1)
        if not key.startswith(RESULT_PREFIXES):
            echo[key] = value
    return echo


def _ini_from_echo(echo, seed_section):
    """``section.key`` under ``[section]``, the bare ``seed`` under the
    command's own section."""
    sections = {}
    for key, value in echo.items():
        section, _, field = key.rpartition(".")
        sections.setdefault(section or seed_section, {})[field] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in fields.items())
        for section, fields in sections.items()
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_echo_regenerates_every_output(tmp_path, monkeypatch, name):
    echo = _echo(_main_output(name, GOLDENS))
    config = tmp_path / "regenerated.ini"
    config.write_text(_ini_from_echo(echo, SEED_SECTIONS[CASES[name][0]]))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(GOLDENS)
    assert cli.main(_arguments(name, out, threads=1, config=config)) == 0
    _assert_matches_goldens(name, out)
    for written in out.iterdir():  # the tune summary adds its results
        assert _echo(written) == echo, written.name


def _tables_read(command, echo):
    """The ``(section, field table)`` pairs that a run of ``command`` read,
    besides ``[kernel]``."""
    target, _ = cli._TARGETS[echo["target.kind"], "target.data" in echo]
    tables = {
        "score": [("score", cli._SCORE)],
        "tune-sgld": [("tune", cli._TUNE)],
        "rank-samplers": [("sampler_a", cli._SAMPLER), ("sampler_b", cli._SAMPLER),
                          ("rank", cli._RANK)],
        "ssvgd": [("svgd", cli._SVGD["svgd.init" in echo])],
        "curve": [("curve", cli._CURVE)],
    }[command]
    return [("target", target), *tables]


def test_every_table_row_is_echoed():
    # Every row of every table that a golden case reads is in its echo, and
    # the cases read every table.  [kernel] is echoed from the built spec:
    # every case echoes each KernelSpec field, and every [kernel] row names
    # one.
    spec_keys = {f"kernel.{field.name}" for field in dataclasses.fields(KernelSpec)}
    assert {f"kernel.{row[0]}" for row in cli._KERNEL} <= spec_keys
    covered = set()
    for name, (command, _) in CASES.items():
        echo = _echo(_main_output(name, GOLDENS))
        assert spec_keys <= set(echo), name
        for section, table in _tables_read(command, echo):
            covered.add(id(table))
            names = {row[3] if len(row) > 3 else f"{section}.{row[0]}" for row in table}
            assert names <= set(echo), (name, section, sorted(names - set(echo)))
    tables = [cli._SCORE, cli._TUNE, cli._SAMPLER, cli._RANK, cli._CURVE,
              *cli._SVGD.values(), *(table for table, _ in cli._TARGETS.values())]
    assert covered == {id(table) for table in tables}
