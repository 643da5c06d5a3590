"""Command-line experiment harness.

Subcommands:

* ``score``          discrepancy of a sample CSV against a configured target
* ``tune-sgld``      step-size sweep over SGLD pilot chains, scored per m
* ``rank-samplers``  prefer one of two SGLD configurations per (n, m) cell
* ``ssvgd``          particle descent; writes final particles + diagnostics
* ``curve``          discrepancy versus sample size for an i.i.d. reference

Every command reads one INI config (sections ``[target]`` and ``[kernel]``
plus a command section), accepts ``--seed`` / ``--out`` / ``--threads``
overrides, echoes the fully resolved configuration into its outputs, and
writes atomically.  Grid cells use seeds derived from the run seed and the
cell coordinates, so cells are independent of execution order and of each
other; outputs contain no timestamps and are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import numpy as np

from . import io as sio
from .discrepancy import SampleBatch, ksd, sksd
from .errors import ConfigError, DivergenceError, SteinlabError
from .kernels import KernelSpec
from .models import (
    gen_gmm_data,
    gen_logreg_data,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
)
from .parallel import ordered_map, resolve_threads
from .rng import derive_seed, make_generator
from .samplers import SgldConfig, SgldSweep, iid_gaussian, sgld_chain
from .svgd import SvgdConfig, run_ssvgd

DEFAULT_EPS_GRID = "1e-4,5e-4,1e-3,5e-3,1e-2,5e-2"


# ---------------------------------------------------------------------------
# config helpers

class _Section(dict):
    """One config section that remembers which keys were looked up in it,
    by ``key in section`` or ``section[key]``."""

    def __init__(self, values):
        super().__init__(values)
        self.looked_up = set()

    def __contains__(self, key):
        self.looked_up.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)


def _load_config(path):
    return {name: _Section(values) for name, values in sio.load_config(path).items()}


def _reject_unread(cfg, command):
    """Fail on the first key that ``command`` never looked up in a section
    it reads: a misspelt key, or one that another setting reads, would
    otherwise be silently ignored.  Sections the command never looks in
    (another command's, in a shared config) are left alone."""
    for name, section in cfg.items():
        for key in section:
            if section.looked_up and key not in section.looked_up:
                raise ConfigError(
                    f"[{name}] {key} is not read by {command} "
                    "(unknown key, or one this config does not use)"
                )


def _section(cfg, name, required=True):
    if name not in cfg:
        if required:
            raise ConfigError(f"config is missing the [{name}] section")
        return {}
    return cfg[name]


def _get(section, name, key, default=None, required=False):
    if key in section:
        return section[key]
    if required:
        raise ConfigError(f"[{name}] is missing the {key!r} key")
    return default


def _get_float(section, name, key, default=None, required=False):
    raw = _get(section, name, key, default=None, required=required)
    if raw is None:
        return default
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{name}] {key} = {raw!r} is not a number") from None


def _get_int(section, name, key, default=None, required=False, minimum=None):
    raw = _get(section, name, key, default=None, required=required)
    if raw is None:
        return default
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise ConfigError(f"[{name}] {key} = {raw!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"[{name}] {key} = {value} is less than {minimum}")
    return value


def _get_bool(section, name, key, default=False):
    raw = _get(section, name, key)
    if raw is None:
        return default
    val = str(raw).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{name}] {key} = {raw!r} is not a boolean")


def _float_list(section, name, key, default=None, required=False):
    raw = _get(section, name, key, default=default, required=required)
    if raw is None:
        return None
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"[{name}] {key} = {raw!r} is not a number list") from None


def _per_coordinate(values, name, key, dim):
    """One value for every coordinate, or exactly ``dim`` values, as a
    length-``dim`` array."""
    if len(values) not in (1, dim):
        raise ConfigError(
            f"[{name}] {key} has {len(values)} values; expected 1 or dim = {dim}"
        )
    return np.broadcast_to(np.asarray(values, dtype=float), (dim,))


def _int_list(section, name, key, default=None, required=False):
    raw = _get(section, name, key, default=default, required=required)
    if raw is None:
        return None
    try:
        return [int(tok.strip()) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"[{name}] {key} = {raw!r} is not an integer list") from None


def _int_or_full(raw, name, key, L):
    """A subset size in [1, L], or None for the token 'full' (any case)."""
    tok = str(raw).strip()
    if tok.lower() == "full":
        return None
    try:
        m = int(tok)
    except ValueError:
        raise ConfigError(
            f"[{name}] {key} = {raw!r} is not an integer or 'full'"
        ) from None
    if not 1 <= m <= L:
        raise ConfigError(f"[{name}] {key} = {m} is not in [1, L={L}]")
    return m


def _minibatch(section, name, key, L):
    """An SGLD minibatch size in [1, L]; 1 when the key is absent."""
    batch = _get_int(section, name, key, 1)
    if not 1 <= batch <= L:
        raise ConfigError(f"[{name}] {key} = {batch} is not in [1, L={L}]")
    return batch


def _m_list(section, name, key, L, default="full"):
    """Subset sizes; the token 'full' means m = L (the exact path)."""
    raw = _get(section, name, key, default=default)
    out = []
    for tok in str(raw).split(","):
        if tok.strip():
            m = _int_or_full(tok.strip(), name, key, L)
            out.append(L if m is None else m)
    if not out:
        raise ConfigError(f"[{name}] {key} is empty")
    return out


# ---------------------------------------------------------------------------
# target / kernel builders

def _build_target(cfg, echo):
    sec = _section(cfg, "target")
    kind = str(_get(sec, "target", "kind", required=True)).strip().lower()
    echo["target.kind"] = kind
    if kind == "gaussian":
        dim = _get_int(sec, "target", "dim", 1)
        mu = _float_list(sec, "target", "mu", default="0")
        sigma_sq = _float_list(sec, "target", "sigma_sq", default="1")
        L = _get_int(sec, "target", "l", 1)
        echo.update(
            {
                "target.dim": str(dim),
                "target.mu": ",".join(sio.fmt_float(v) for v in mu),
                "target.sigma_sq": ",".join(sio.fmt_float(v) for v in sigma_sq),
                "target.L": str(L),
            }
        )
        return make_gaussian(
            _per_coordinate(mu, "target", "mu", dim),
            _per_coordinate(sigma_sq, "target", "sigma_sq", dim),
            L,
            dim=dim,
        )
    if kind == "gmm_posterior":
        data_path = _get(sec, "target", "data")
        sigma1_sq = _get_float(sec, "target", "sigma1_sq", 10.0)
        sigma2_sq = _get_float(sec, "target", "sigma2_sq", 1.0)
        sigma_x_sq = _get_float(sec, "target", "sigma_x_sq", 2.0)
        if data_path is not None:
            obs = sio.read_observations_csv(data_path)
            echo["target.data"] = str(data_path)
        else:
            L = _get_int(sec, "target", "l", 100)
            theta1 = _get_float(sec, "target", "theta1", 0.0)
            theta2 = _get_float(sec, "target", "theta2", 1.0)
            data_seed = _get_int(sec, "target", "data_seed", 0)
            obs = gen_gmm_data(theta1, theta2, sigma_x_sq, L, data_seed)
            echo.update(
                {
                    "target.L": str(L),
                    "target.theta1": sio.fmt_float(theta1),
                    "target.theta2": sio.fmt_float(theta2),
                    "target.data_seed": str(data_seed),
                }
            )
        echo.update(
            {
                "target.sigma1_sq": sio.fmt_float(sigma1_sq),
                "target.sigma2_sq": sio.fmt_float(sigma2_sq),
                "target.sigma_x_sq": sio.fmt_float(sigma_x_sq),
            }
        )
        return make_gmm_posterior(
            obs, sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq, sigma_x_sq=sigma_x_sq
        )
    if kind == "logreg":
        data_path = _get(sec, "target", "data")
        if data_path is not None:
            X, y = sio.read_labeled_csv(data_path)
            echo["target.data"] = str(data_path)
        else:
            n = _get_int(sec, "target", "n", required=True)
            d = _get_int(sec, "target", "d", required=True)
            data_seed = _get_int(sec, "target", "data_seed", 0)
            w_true = _float_list(sec, "target", "w_true")
            if w_true is None:
                w_gen = make_generator(derive_seed(data_seed, "logreg-w-true"))
                w_true = list(w_gen.standard_normal(d))
            X, y = gen_logreg_data(n, d, w_true, data_seed)
            echo.update(
                {
                    "target.n": str(n),
                    "target.d": str(d),
                    "target.data_seed": str(data_seed),
                    "target.w_true": ",".join(sio.fmt_float(v) for v in w_true),
                }
            )
        return make_logreg(X, y)
    raise ConfigError(f"[target] kind = {kind!r} is not one of gaussian, "
                      "gmm_posterior, logreg")


def _build_kernel(cfg, echo):
    sec = _section(cfg, "kernel")
    try:
        spec = KernelSpec.from_config(sec)
    except (KeyError, ValueError) as err:
        raise ConfigError(f"[kernel] {err}") from err
    for key, value in spec.to_config().items():
        echo[f"kernel.{key}"] = value
    return spec


def _resolve_seed(args, section, name):
    # The config seed is parsed even under --seed, which overrides it, so
    # that it counts as read.
    seed = _get_int(section, name, "seed", 0)
    return seed if args.seed is None else int(args.seed)


def _score_once(batch, target, spec, m, seed, threads):
    """One discrepancy cell on a private counter; m == L uses the exact path."""
    cell_target = target.with_fresh_counter()
    if m is None:
        return ksd(batch, cell_target, spec, threads=threads)
    return sksd(batch, cell_target, spec, m, seed, threads=threads)


def _fingerprint(mapping) -> str:
    return json.dumps(mapping, sort_keys=True)


# ---------------------------------------------------------------------------
# commands

def cmd_score(args) -> int:
    cfg = _load_config(args.config)
    echo = {}
    target = _build_target(cfg, echo)
    spec = _build_kernel(cfg, echo)
    sec = _section(cfg, "score")
    samples_path = _get(sec, "score", "samples", required=True)
    batch = sio.read_samples_csv(samples_path)
    if batch.dim != target.dim:
        raise ConfigError(
            f"samples have dimension {batch.dim}, target expects {target.dim}"
        )
    m = _int_or_full(
        _get(sec, "score", "m", default="full"), "score", "m", target.L
    )
    seed = _resolve_seed(args, sec, "score")
    threads = resolve_threads(args.threads)
    echo.update({"score.samples": str(samples_path), "seed": str(seed)})
    echo["score.m"] = "full" if m is None else str(m)
    _reject_unread(cfg, args.command)
    result = _score_once(batch, target, spec, m, seed, threads)
    out = args.out or "result.json"
    sio.write_json(out, {"config": echo, "result": result.to_dict()})
    return 0


def cmd_tune_sgld(args) -> int:
    cfg = _load_config(args.config)
    echo = {}
    target = _build_target(cfg, echo)
    spec = _build_kernel(cfg, echo)
    sec = _section(cfg, "tune")
    eps_grid = _float_list(sec, "tune", "eps_grid", default=DEFAULT_EPS_GRID)
    trials = _get_int(sec, "tune", "trials", 10, minimum=1)
    chain_steps = _get_int(sec, "tune", "chain_steps", 1000, minimum=1)
    sgld_batch = _minibatch(sec, "tune", "sgld_batch", target.L)
    init = _float_list(sec, "tune", "init", default="0")
    chain_init = _per_coordinate(init, "tune", "init", target.dim)
    m_values = _m_list(sec, "tune", "m_list", target.L)
    seed = _resolve_seed(args, sec, "tune")
    threads = resolve_threads(args.threads)
    if not eps_grid:
        raise ConfigError("[tune] eps_grid is empty")
    bad = [eps for eps in eps_grid if not eps > 0.0]
    if bad:
        raise ConfigError(f"[tune] eps_grid entry {bad[0]!r} is not positive")
    echo.update(
        {
            "tune.eps_grid": ",".join(sio.fmt_float(e) for e in eps_grid),
            "tune.trials": str(trials),
            "tune.chain_steps": str(chain_steps),
            "tune.sgld_batch": str(sgld_batch),
            "tune.init": ",".join(sio.fmt_float(v) for v in init),
            "tune.m_list": ",".join(str(m) for m in m_values),
            "seed": str(seed),
        }
    )

    _reject_unread(cfg, args.command)

    chain_cells = [(eps, trial) for eps in eps_grid for trial in range(trials)]
    chains = sgld_chain(
        target.with_fresh_counter(),
        SgldSweep(
            SgldConfig(
                step=eps,
                batch=sgld_batch,
                steps=chain_steps,
                init=chain_init,
                seed=derive_seed(seed, "tune-chain", sio.fmt_float(eps), trial),
            )
            for eps, trial in chain_cells
        ),
    )

    def run_cell(cell):
        (eps, trial), chain = cell
        rows = [{"epsilon": sio.fmt_float(eps), "m": m, "trial": trial}
                for m in m_values]
        if isinstance(chain, DivergenceError):
            for row in rows:
                row.update(value="", term_evals="", diverged=1,
                           note=f"step {chain.step}")
            return rows
        # Subset draws are paired across the eps axis (derived from the
        # trial and m only) so the argmin comparison is not blurred by
        # independent subsampling noise per grid point.  One call scores
        # the chain at every m.
        score_seeds = [derive_seed(seed, "tune-score", trial, m) for m in m_values]
        results = sksd(chain, target.with_fresh_counter(), spec, m_values,
                       score_seeds, threads=1)
        for row, result in zip(rows, results):
            row.update(value=sio.fmt_float(result.value),
                       term_evals=result.term_evals, diverged=0, note="")
        return rows

    rows = [
        row
        for chain_rows in ordered_map(run_cell, zip(chain_cells, chains), threads)
        for row in chain_rows
    ]

    summary = []
    argmin = {}
    for m in m_values:
        per_eps = []
        for eps in eps_grid:
            values = [
                float(r["value"])
                for r in rows
                if r["m"] == m and r["epsilon"] == sio.fmt_float(eps) and not r["diverged"]
            ]
            if values:
                mean = statistics.fmean(values)
                median = statistics.median(values)
                stderr = (
                    statistics.stdev(values) / len(values) ** 0.5
                    if len(values) > 1
                    else 0.0
                )
                per_eps.append((mean, eps, median, stderr, len(values)))
        if not per_eps:
            raise DivergenceError(f"every trial diverged for m={m}")
        best = min(per_eps, key=lambda entry: (entry[0], entry[1]))
        argmin[m] = best[1]
        for mean, eps, median, stderr, used in per_eps:
            summary.append(
                {
                    "m": m,
                    "epsilon": sio.fmt_float(eps),
                    "mean_value": sio.fmt_float(mean),
                    "median_value": sio.fmt_float(median),
                    "stderr": sio.fmt_float(stderr),
                    "trials_used": used,
                    "is_argmin": int(eps == best[1]),
                }
            )

    out = args.out or "tune.csv"
    sio.write_table_csv(
        out,
        ["epsilon", "m", "trial", "value", "term_evals", "diverged", "note"],
        rows,
        meta=echo,
    )
    stem, ext = os.path.splitext(out)
    summary_meta = dict(echo)
    for m in m_values:
        summary_meta[f"argmin_epsilon.m={m}"] = sio.fmt_float(argmin[m])
    sio.write_table_csv(
        stem + ".summary" + (ext or ".csv"),
        [
            "m",
            "epsilon",
            "mean_value",
            "median_value",
            "stderr",
            "trials_used",
            "is_argmin",
        ],
        summary,
        meta=summary_meta,
    )
    return 0


def _sampler_section(cfg, name, target):
    sec = _section(cfg, name)
    step = _get_float(sec, name, "step", required=True)
    if not step > 0.0:
        raise ConfigError(f"[{name}] step = {step!r} is not positive")
    batch = _minibatch(sec, name, "batch", target.L)
    init = _float_list(sec, name, "init", default="0")
    _per_coordinate(init, name, "init", target.dim)
    return {
        "step": sio.fmt_float(step),
        "batch": str(batch),
        "init": ",".join(sio.fmt_float(v) for v in init),
    }


def cmd_rank_samplers(args) -> int:
    cfg = _load_config(args.config)
    echo = {}
    target = _build_target(cfg, echo)
    spec = _build_kernel(cfg, echo)
    sec = _section(cfg, "rank")
    n_grid = _int_list(sec, "rank", "n_grid", required=True)
    if not n_grid or min(n_grid) < 1:
        raise ConfigError("[rank] n_grid must be positive sample sizes")
    m_values = _m_list(sec, "rank", "m_list", target.L)
    seed = _resolve_seed(args, sec, "rank")
    threads = resolve_threads(args.threads)
    steps = max(n_grid)
    samplers = {
        "a": _sampler_section(cfg, "sampler_a", target),
        "b": _sampler_section(cfg, "sampler_b", target),
    }
    for label, resolved in samplers.items():
        for key, value in resolved.items():
            echo[f"sampler_{label}.{key}"] = value
    echo.update(
        {
            "rank.n_grid": ",".join(str(n) for n in n_grid),
            "rank.m_list": ",".join(str(m) for m in m_values),
            "seed": str(seed),
        }
    )

    _reject_unread(cfg, args.command)
    chains = {}
    for label, resolved in samplers.items():
        fingerprint = _fingerprint(resolved)
        chain_seed = derive_seed(seed, "rank-chain", fingerprint)
        chains[label] = sgld_chain(
            target.with_fresh_counter(),
            SgldConfig(
                step=float(resolved["step"]),
                batch=int(resolved["batch"]),
                steps=steps,
                init=np.asarray([float(v) for v in resolved["init"].split(",")]),
                seed=chain_seed,
            ),
        )

    def run_cell(n):
        # One call per sampler scores its first n points at every m.
        score_seeds = [derive_seed(seed, "rank-score", n, m) for m in m_values]
        results = {
            label: sksd(chain.take(n), target.with_fresh_counter(), spec,
                        m_values, score_seeds, threads=1)
            for label, chain in chains.items()
        }
        rows = []
        for m, res_a, res_b in zip(m_values, results["a"], results["b"]):
            if res_a.value < res_b.value:
                preferred = "a"
            elif res_b.value < res_a.value:
                preferred = "b"
            else:
                preferred = "tie"
            rows.append({
                "n": n,
                "m": m,
                "value_a": sio.fmt_float(res_a.value),
                "value_b": sio.fmt_float(res_b.value),
                "term_evals_a": res_a.term_evals,
                "term_evals_b": res_b.term_evals,
                "preferred": preferred,
            })
        return rows

    rows = [row for n_rows in ordered_map(run_cell, n_grid, threads) for row in n_rows]
    out = args.out or "rank.csv"
    sio.write_table_csv(
        out,
        ["n", "m", "value_a", "value_b", "term_evals_a", "term_evals_b", "preferred"],
        rows,
        meta=echo,
    )
    return 0


def cmd_ssvgd(args) -> int:
    cfg = _load_config(args.config)
    echo = {}
    target = _build_target(cfg, echo)
    kernel = _build_kernel(cfg, echo)
    sec = _section(cfg, "svgd")
    rounds = _get_int(sec, "svgd", "rounds", required=True)
    batch = _int_or_full(
        _get(sec, "svgd", "batch", default="full"), "svgd", "batch", target.L
    )
    if batch is None:
        batch = target.L
    step = _get_float(sec, "svgd", "step", 0.05)
    schedule = str(_get(sec, "svgd", "schedule", "adagrad")).strip().lower()
    fudge = _get_float(sec, "svgd", "fudge", 1e-6)
    policy = _get(sec, "svgd", "bandwidth_policy")
    checkpoint_every = _get_int(sec, "svgd", "checkpoint_every", 0)
    report_ksd = _get_bool(sec, "svgd", "report_ksd", False)
    save_trajectory = _get_bool(sec, "svgd", "save_trajectory", False)
    seed = _resolve_seed(args, sec, "svgd")
    threads = resolve_threads(args.threads)

    init_path = _get(sec, "svgd", "init")
    if init_path is not None:
        init = sio.read_samples_csv(init_path)
        echo["svgd.init"] = str(init_path)
    else:
        init_n = _get_int(sec, "svgd", "init_n", required=True)
        init_mu = _float_list(sec, "svgd", "init_mu", default="0")
        init_sigma = _get_float(sec, "svgd", "init_sigma", 1.0)
        init_seed = derive_seed(seed, "ssvgd-init")
        mu = _per_coordinate(init_mu, "svgd", "init_mu", target.dim)
        init = iid_gaussian(init_n, target.dim, mu, init_sigma, init_seed)
        echo.update(
            {
                "svgd.init_n": str(init_n),
                "svgd.init_mu": ",".join(sio.fmt_float(v) for v in init_mu),
                "svgd.init_sigma": sio.fmt_float(init_sigma),
            }
        )
    if init.dim != target.dim:
        raise ConfigError(
            f"init particles have dimension {init.dim}, target expects {target.dim}"
        )

    config = SvgdConfig(
        rounds=rounds,
        batch=batch,
        kernel=kernel,
        step=step,
        schedule=schedule,
        fudge=fudge,
        bandwidth_policy=policy,
        seed=seed,
        checkpoint_every=checkpoint_every,
    )
    echo.update(
        {
            "svgd.rounds": str(rounds),
            "svgd.batch": str(batch),
            "svgd.step": sio.fmt_float(step),
            "svgd.schedule": schedule,
            "svgd.fudge": sio.fmt_float(fudge),
            "svgd.bandwidth_policy": config.resolved_bandwidth_policy(),
            "svgd.checkpoint_every": str(checkpoint_every),
            "svgd.report_ksd": str(report_ksd).lower(),
            "svgd.save_trajectory": str(save_trajectory).lower(),
            "seed": str(seed),
        }
    )

    _reject_unread(cfg, args.command)
    run_target = target.with_fresh_counter()
    result = run_ssvgd(init, run_target, config, threads=threads)

    out = args.out or "particles.csv"
    stem, _ = os.path.splitext(out)
    records = []
    for round_no, positions, evals in result.checkpoints:
        record = {"round": round_no, "term_evals": evals}
        if report_ksd:
            snap = ksd(SampleBatch(positions), target.with_fresh_counter(),
                       kernel, threads=threads)
            record["ksd"] = snap.value
        if save_trajectory:
            sio.write_samples_csv(
                f"{stem}.round-{round_no}.csv", SampleBatch(positions), meta=echo
            )
        records.append(record)
    if not records or records[-1]["round"] != rounds:
        final_record = {"round": rounds, "term_evals": result.term_evals}
        if report_ksd:
            snap = ksd(result.final, target.with_fresh_counter(), kernel,
                       threads=threads)
            final_record["ksd"] = snap.value
        records.append(final_record)

    sio.write_samples_csv(out, result.final, meta=echo)
    sio.write_jsonl(stem + ".diagnostics.jsonl", records, meta=echo)
    return 0


def cmd_curve(args) -> int:
    cfg = _load_config(args.config)
    echo = {}
    target = _build_target(cfg, echo)
    spec = _build_kernel(cfg, echo)
    sec = _section(cfg, "curve")
    n_grid = _int_list(sec, "curve", "n_grid", required=True)
    if not n_grid or min(n_grid) < 1:
        raise ConfigError("[curve] n_grid must be positive sample sizes")
    m = _int_or_full(
        _get(sec, "curve", "m", default="full"), "curve", "m", target.L
    )
    reps = _get_int(sec, "curve", "seeds", 20, minimum=1)
    mu = _float_list(sec, "curve", "mu", default="0")
    sigma = _get_float(sec, "curve", "sigma", 1.0)
    seed = _resolve_seed(args, sec, "curve")
    threads = resolve_threads(args.threads)
    echo.update(
        {
            "curve.n_grid": ",".join(str(n) for n in n_grid),
            "curve.m": "full" if m is None else str(m),
            "curve.seeds": str(reps),
            "curve.mu": ",".join(sio.fmt_float(v) for v in mu),
            "curve.sigma": sio.fmt_float(sigma),
            "seed": str(seed),
        }
    )
    mu_arr = _per_coordinate(mu, "curve", "mu", target.dim)

    _reject_unread(cfg, args.command)

    def run_cell(cell):
        n, rep = cell
        sample = iid_gaussian(
            n, target.dim, mu_arr, sigma, derive_seed(seed, "curve-sample", rep, n)
        )
        result = _score_once(
            sample, target, spec, m, derive_seed(seed, "curve-score", rep, n), 1
        )
        return {
            "n": n,
            "rep": rep,
            "value": sio.fmt_float(result.value),
            "term_evals": result.term_evals,
        }

    cells = [(n, rep) for n in n_grid for rep in range(reps)]
    rows = ordered_map(run_cell, cells, threads)
    out = args.out or "curve.csv"
    sio.write_table_csv(out, ["n", "rep", "value", "term_evals"], rows, meta=echo)
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="steinlab",
        description="Sample quality via exact and subsampled kernel Stein "
        "discrepancies, plus stochastic SVGD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "score": ("score a sample CSV against the configured target", cmd_score),
        "tune-sgld": ("sweep SGLD step sizes and rank them per m", cmd_tune_sgld),
        "rank-samplers": ("prefer one of two SGLD configs per (n, m)", cmd_rank_samplers),
        "ssvgd": ("run (stochastic) SVGD particle descent", cmd_ssvgd),
        "curve": ("discrepancy versus n for an i.i.d. Gaussian reference", cmd_curve),
    }
    for name, (help_text, handler) in handlers.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="INI config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", default=None, help="output path")
        cmd.add_argument("--threads", type=int, default=None,
                         help="worker threads (default STEINLAB_THREADS or 1)")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"steinlab: config error: {err}", file=sys.stderr)
        return 2
    except (SteinlabError, ValueError, OSError) as err:
        print(f"steinlab: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
