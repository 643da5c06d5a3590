"""Command-line experiment harness.

Subcommands:

* ``score``          discrepancy of a sample CSV against a configured target
* ``tune-sgld``      step-size sweep over SGLD pilot chains, scored per m
* ``rank-samplers``  prefer one of two SGLD configurations per (n, m) cell
* ``ssvgd``          particle descent; writes final particles + diagnostics
* ``curve``          discrepancy versus sample size for an i.i.d. reference

Every command reads one INI config (``[target]``, ``[kernel]`` and its own
sections), accepts ``--seed`` / ``--out`` / ``--threads`` overrides, echoes
the fully resolved configuration into its outputs, and writes atomically.
Grid cells use seeds derived from the run seed and the cell coordinates, so
cells are independent of execution order and of each other; outputs contain
no timestamps and are byte-reproducible.

Each section is a table of ``(key, type, default[, echo name])`` rows.
:meth:`_Config.read`, the one routine that reads them, parses, checks and
echoes every field in table order and rejects any key the table does not
list, all before any compute; a failure is a ``ConfigError`` naming
``[section] key``.  ``[target]`` has a table per ``kind`` (and per presence
of ``data``), ``[svgd]`` one for ``init`` and one for ``init_n``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys

from . import io as sio
from .discrepancy import SampleBatch, ksd, sksd
from .errors import ConfigError, DivergenceError, SteinlabError
from .kernels import FAMILIES, KernelSpec
from .models import (gen_gmm_data, gen_logreg_data, make_gaussian, make_gmm_posterior,
                     make_logreg)
from .parallel import ordered_map, resolve_threads
from .rng import derive_seed, make_generator
from .samplers import SgldConfig, SgldSweep, iid_gaussian, sgld_chain
from .svgd import (BANDWIDTH_POLICIES, MEDIAN_PER_ROUND, SCHEDULES, SvgdConfig,
                   default_bandwidth_policy, run_ssvgd)

# ---------------------------------------------------------------------------
# field types: parse(text, where, context) -> value.  ``where`` is
# "[section] key"; ``context`` holds the command's L, dim and kernel and the
# values of the fields before this one in its table.

def _integer(minimum=None, maximum=None):
    """An integer of at least ``minimum``, and at most ``context[maximum]``."""
    def parse(text, where, context):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{where} = {text!r} is not an integer") from None
        if maximum is not None and not minimum <= value <= context[maximum]:
            raise ConfigError(f"{where} = {value} is not in [{minimum}, {maximum}="
                              f"{context[maximum]}]")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{where} = {value} is less than {minimum}")
        return value
    return parse


def _float(label, positive=False):
    """A finite float; messages join key and value with ``label``."""
    def parse(text, where, context):
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{where}{label} {text!r} is not a number") from None
        if positive and not value > 0.0:
            raise ConfigError(f"{where}{label} {value!r} is not positive")
        if not math.isfinite(value):
            raise ConfigError(f"{where}{label} {value!r} is not finite")
        return value
    return parse


def _list(item, check):
    """Comma-separated ``item`` values, then ``check(values, where, context)``."""
    def parse(text, where, context):
        values = [item(tok, where, context) for tok in text.split(",") if tok.strip()]
        return check(values, where, context)
    return parse


def _choice(options, fold=True):
    """A word of ``options``, or the value a dict of them maps it to."""
    def parse(text, where, context):
        word = text.lower() if fold else text
        if word not in options:
            raise ConfigError(f"{where} = {text!r} is not one of {', '.join(options)}")
        return options[word] if isinstance(options, dict) else word
    return parse


def _text(text, where, context):
    return text


def _length(key, one):
    """A list of ``context[key]`` values or, with ``one``, of one value for all."""
    def check(values, where, context):
        if len(values) != context[key] and not (one and len(values) == 1):
            raise ConfigError(f"{where} has {len(values)} values; expected "
                              f"{'1 or ' * one}{key} = {context[key]}")
        return values
    return check


def _distinct(values, where, context):
    """A non-empty grid; a repeat would be the same cell, seed included, twice."""
    if not values:
        raise ConfigError(f"{where} is empty")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{where} lists {value!r} twice")
    return values


def _int_or_full(text, where, context):
    """A subset size in [1, L], or None for the token 'full' (any case)."""
    if text.strip().lower() == "full":
        return None
    try:
        int(text)
    except ValueError:
        raise ConfigError(f"{where} = {text!r} is not an integer or 'full'") from None
    return _SUBSET_SIZE(text, where, context)


def _size(text, where, context):
    """A subset size, 'full' meaning L."""
    return _int_or_full(text, where, context) or context["L"]


def _show(value) -> str:
    """Echo text of a parsed value; None is the subset size 'full'."""
    if value is None or isinstance(value, bool):
        return "full" if value is None else str(value).lower()
    if isinstance(value, list):
        return ",".join(map(_show, value))
    return sio.fmt_float(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# field tables: (key, type, default[, echo name]) rows.  The default is
# config text, a function of the context that returns it, _REQUIRED, or None
# (left out: neither passed on nor echoed).  The echo name defaults to
# "<section>.<key>".

_REQUIRED = object()
_FLOAT, _POSITIVE, _COUNT = _float(" ="), _float(" =", positive=True), _integer(1)
_SUBSET_SIZE = _integer(1, "L")  # also the SGLD minibatch size, which has no 'full'
_per_coordinate = _length("dim", one=True)
_COORDS = _list(_float(" entry"), _per_coordinate)
_FLAG = _choice({"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False})
_SIZES = _list(_size, _distinct)
_SEED = ("seed", _integer(), "0", "seed")
_KIND = ("kind", _choice(("gaussian", "gmm_posterior", "logreg")), _REQUIRED)
_DATA = ("data", _text, _REQUIRED)
_GMM_VARIANCES = (
    ("sigma1_sq", _POSITIVE, "10.0"),
    ("sigma2_sq", _POSITIVE, "1.0"),
    ("sigma_x_sq", _POSITIVE, "2.0"),
)


def _gmm(observations, v):
    return make_gmm_posterior(observations, sigma1_sq=v["sigma1_sq"],
                              sigma2_sq=v["sigma2_sq"], sigma_x_sq=v["sigma_x_sq"])


def _seeded_w_true(context):
    gen = make_generator(derive_seed(context["data_seed"], "logreg-w-true"))
    return ",".join(map(sio.fmt_float, gen.standard_normal(context["d"])))


# (kind, reads a data file) -> (table, target from the values)
_TARGETS = {
    ("gaussian", False): ((
        _KIND,
        ("dim", _COUNT, "1"),
        ("mu", _COORDS, "0"),
        ("sigma_sq", _list(_float(" entry", positive=True), _per_coordinate), "1"),
        ("L", _COUNT, "1"),
    ), lambda v: make_gaussian(v["mu"], v["sigma_sq"], v["L"], dim=v["dim"])),
    ("gmm_posterior", True): ((_KIND, _DATA, *_GMM_VARIANCES),
                              lambda v: _gmm(sio.read_observations_csv(v["data"]), v)),
    ("gmm_posterior", False): ((
        _KIND,
        ("L", _COUNT, "100"),
        ("theta1", _FLOAT, "0.0"),
        ("theta2", _FLOAT, "1.0"),
        ("data_seed", _integer(), "0"),
        *_GMM_VARIANCES,
    ), lambda v: _gmm(gen_gmm_data(v["theta1"], v["theta2"], v["sigma_x_sq"], v["L"],
                                   v["data_seed"]), v)),
    ("logreg", True): ((_KIND, _DATA),
                       lambda v: make_logreg(*sio.read_labeled_csv(v["data"]))),
    ("logreg", False): ((
        _KIND,
        ("n", _COUNT, _REQUIRED),
        ("d", _COUNT, _REQUIRED),
        ("data_seed", _integer(), "0"),
        ("w_true", _list(_float(" entry"), _length("d", one=False)), _seeded_w_true),
    ), lambda v: make_logreg(*gen_logreg_data(v["n"], v["d"], v["w_true"],
                                              v["data_seed"]))),
}

# Left-out parameters keep the KernelSpec defaults; the echo is read from the
# built spec.
_KERNEL = (
    ("family", _choice(FAMILIES), _REQUIRED),
    ("beta", _FLOAT, None),
    ("alpha", _FLOAT, None),
    ("bandwidth", _FLOAT, None),
)

_SCORE = (("samples", _text, _REQUIRED), _SEED, ("m", _int_or_full, "full"))

_TUNE = (
    ("eps_grid", _list(_float(" entry", positive=True), _distinct),
     "1e-4,5e-4,1e-3,5e-3,1e-2,5e-2"),
    ("trials", _COUNT, "10"),
    ("chain_steps", _COUNT, "1000"),
    ("sgld_batch", _SUBSET_SIZE, "1"),
    ("init", _COORDS, "0"),
    ("m_list", _SIZES, "full"),
    _SEED,
)

# [sampler_a] and [sampler_b]; a chain's seed hashes their echo strings.
_SAMPLER = (("step", _POSITIVE, _REQUIRED), ("batch", _SUBSET_SIZE, "1"),
            ("init", _COORDS, "0"))

_RANK = (("n_grid", _list(_COUNT, _distinct), _REQUIRED), ("m_list", _SIZES, "full"), _SEED)

_SVGD_RUN = (
    ("rounds", _integer(0), _REQUIRED),
    ("batch", _size, "full"),
    ("step", _POSITIVE, "0.05"),
    ("schedule", _choice(SCHEDULES), "adagrad"),
    ("fudge", _POSITIVE, "1e-6"),
    ("bandwidth_policy", _choice(BANDWIDTH_POLICIES, fold=False),
     lambda context: default_bandwidth_policy(context["kernel"])),
    ("checkpoint_every", _integer(0), "0"),
    ("report_ksd", _FLAG, "false"),
    ("save_trajectory", _FLAG, "false"),
    _SEED,
)

# reads an init CSV -> table; otherwise it draws init_n Gaussian particles
_SVGD = {
    True: (("init", _text, _REQUIRED), *_SVGD_RUN),
    False: (
        ("init_n", _COUNT, _REQUIRED),
        ("init_mu", _COORDS, "0"),
        ("init_sigma", _POSITIVE, "1.0"),
        *_SVGD_RUN,
    ),
}

_CURVE = (
    ("n_grid", _list(_COUNT, _distinct), _REQUIRED),
    ("m", _int_or_full, "full"),
    ("seeds", _COUNT, "20"),
    ("mu", _COORDS, "0"),
    ("sigma", _POSITIVE, "1.0"),
    _SEED,
)


class _Config:
    """One command's INI config, target, kernel and worker count, and the echo
    of what it has read.  ``--seed`` replaces the seed of its own section."""

    def __init__(self, args, section):
        self.sections = sio.load_config(args.config)
        if args.seed is not None and section in self.sections:
            self.sections[section]["seed"] = str(args.seed)
        self.command, self.echo = args.command, {}
        self.context = {}  # [target] and [kernel] are read without one
        self.target = self._target()
        self.kernel = self._kernel()
        self.context = {"L": self.target.L, "dim": self.target.dim, "kernel": self.kernel}
        self.threads = resolve_threads(args.threads)

    def read(self, name, table, echo=True):
        """Parse, check and (with ``echo``) echo every field of ``table`` from
        ``[name]``.  Returns the context (the target's L and dim, the kernel)
        plus the value of every field that is given or has a default."""
        if name not in self.sections:
            raise ConfigError(f"config is missing the [{name}] section")
        section, values = self.sections[name], dict(self.context)
        for key, parse, default, *echo_name in table:
            text = section.get(key.lower(), default)  # configparser lowercases keys
            text = text(values) if callable(text) else text
            if text is _REQUIRED:
                raise ConfigError(f"[{name}] is missing the {key!r} key")
            if text is not None:
                values[key] = parse(text, f"[{name}] {key}", values)
                if echo:
                    echo_key = echo_name[0] if echo_name else f"{name}.{key}"
                    self.echo[echo_key] = _show(values[key])
        unknown = [key for key in section if key not in {row[0].lower() for row in table}]
        if unknown:
            raise ConfigError(f"[{name}] {unknown[0]} is not read by {self.command} "
                              "(unknown key, or one this config does not use)")
        return values

    def _target(self):
        section = self.sections.get("target", {})
        kind = section.get("kind", "").lower()
        # A missing or unknown kind gets a table of the kind row alone, which fails.
        table, build = _TARGETS.get((kind, kind != "gaussian" and "data" in section),
                                    ((_KIND,), None))
        return build(self.read("target", table))

    def _kernel(self):
        try:
            spec = KernelSpec(**self.read("kernel", _KERNEL, echo=False))
        except ValueError as err:
            raise ConfigError(f"[kernel] {err}") from None
        for key, value in dataclasses.asdict(spec).items():
            self.echo[f"kernel.{key}"] = _show(value)
        return spec


# ---------------------------------------------------------------------------
# commands

def _discrepancy(sample, target, kernel, m, seed, threads):
    """KSD for the subset size 'full' (None), else SKSD at ``m`` with ``seed``."""
    if m is None:
        return ksd(sample, target, kernel, threads=threads)
    return sksd(sample, target, kernel, m, seed, threads=threads)


def _grid_rows(run_cell, cells, threads):
    """The rows ``run_cell`` returns for every cell, flattened in cell order."""
    return [row for rows in ordered_map(run_cell, cells, threads) for row in rows]


def cmd_score(args) -> int:
    cfg = _Config(args, "score")
    opts = cfg.read("score", _SCORE)
    batch = sio.read_samples_csv(opts["samples"])
    if batch.dim != cfg.target.dim:
        raise ConfigError(f"[score] samples = {opts['samples']!r} has dimension {batch.dim}, "
                          f"target expects {cfg.target.dim}")
    result = _discrepancy(batch, cfg.target, cfg.kernel, opts["m"], opts["seed"], cfg.threads)
    sio.write_json(args.out or "result.json", {"config": cfg.echo, "result": result.to_dict()})
    return 0


def cmd_tune_sgld(args) -> int:
    cfg = _Config(args, "tune")
    target, spec, opts = cfg.target, cfg.kernel, cfg.read("tune", _TUNE)
    eps_grid, m_values, seed = opts["eps_grid"], opts["m_list"], opts["seed"]

    chain_cells = [(eps, trial) for eps in eps_grid for trial in range(opts["trials"])]
    chains = sgld_chain(target, SgldSweep(
        SgldConfig(step=eps, batch=opts["sgld_batch"], steps=opts["chain_steps"],
                   init=opts["init"],
                   seed=derive_seed(seed, "tune-chain", sio.fmt_float(eps), trial))
        for eps, trial in chain_cells
    ))

    def run_cell(cell):
        (eps, trial), chain = cell
        rows = [{"epsilon": eps, "m": m, "trial": trial} for m in m_values]
        if isinstance(chain, DivergenceError):
            for row in rows:
                row.update(value="", term_evals="", diverged=1, note=f"step {chain.step}")
            return rows
        # Subset draws are paired across the eps axis (derived from the
        # trial and m only) so the argmin comparison is not blurred by
        # independent subsampling noise per grid point.  One call scores
        # the chain at every m.
        score_seeds = [derive_seed(seed, "tune-score", trial, m) for m in m_values]
        results = sksd(chain, target, spec, m_values, score_seeds, threads=1)
        for row, result in zip(rows, results):
            row.update(value=result.value, term_evals=result.term_evals, diverged=0, note="")
        return rows

    rows = _grid_rows(run_cell, zip(chain_cells, chains), cfg.threads)
    values = {(m, eps): [] for m in m_values for eps in eps_grid}
    for row in rows:
        if not row["diverged"]:
            values[row["m"], row["epsilon"]].append(row["value"])

    summary, summary_meta = [], dict(cfg.echo)
    for m in m_values:
        # min() compares (mean, eps), so a tie of means goes to the smaller step.
        per_eps = [(statistics.fmean(v), eps, v) for eps in eps_grid if (v := values[m, eps])]
        if not per_eps:
            raise DivergenceError(f"every trial diverged for m={m}")
        best = min(per_eps)[1]
        summary_meta[f"argmin_epsilon.m={m}"] = _show(best)
        summary.extend(
            {"m": m, "epsilon": eps, "mean_value": mean, "median_value": statistics.median(v),
             "stderr": statistics.stdev(v) / len(v) ** 0.5 if len(v) > 1 else 0.0,
             "trials_used": len(v), "is_argmin": int(eps == best)}
            for mean, eps, v in per_eps
        )

    out = args.out or "tune.csv"
    stem, ext = os.path.splitext(out)
    sio.write_table_csv(out, rows, meta=cfg.echo)
    sio.write_table_csv(stem + ".summary" + (ext or ".csv"), summary, meta=summary_meta)
    return 0


def cmd_rank_samplers(args) -> int:
    cfg = _Config(args, "rank")
    target, spec = cfg.target, cfg.kernel
    samplers = {label: cfg.read(f"sampler_{label}", _SAMPLER) for label in "ab"}
    opts = cfg.read("rank", _RANK)
    n_grid, m_values, seed = opts["n_grid"], opts["m_list"], opts["seed"]

    chains = {}
    for label, sampler in samplers.items():
        echoed = {key: cfg.echo[f"sampler_{label}.{key}"] for key, *_ in _SAMPLER}
        chains[label] = sgld_chain(target, SgldConfig(
            step=sampler["step"], batch=sampler["batch"], steps=max(n_grid),
            init=sampler["init"],
            seed=derive_seed(seed, "rank-chain", json.dumps(echoed, sort_keys=True)),
        ))

    def run_cell(n):
        # One call per sampler scores its first n points at every m.
        score_seeds = [derive_seed(seed, "rank-score", n, m) for m in m_values]
        results = [sksd(SampleBatch(chain.points[:n]), target, spec, m_values, score_seeds,
                        threads=1) for chain in chains.values()]
        rows = []
        for m, res_a, res_b in zip(m_values, *results):
            a, b = res_a.value, res_b.value
            rows.append({"n": n, "m": m, "value_a": a, "value_b": b,
                         "term_evals_a": res_a.term_evals, "term_evals_b": res_b.term_evals,
                         "preferred": "a" if a < b else "b" if b < a else "tie"})
        return rows

    rows = _grid_rows(run_cell, n_grid, cfg.threads)
    sio.write_table_csv(args.out or "rank.csv", rows, meta=cfg.echo)
    return 0


def cmd_ssvgd(args) -> int:
    cfg = _Config(args, "svgd")
    target, kernel, threads = cfg.target, cfg.kernel, cfg.threads
    opts = cfg.read("svgd", _SVGD["init" in cfg.sections.get("svgd", {})])
    if opts["save_trajectory"] and not opts["checkpoint_every"]:
        raise ConfigError("[svgd] save_trajectory = true writes a round-*.csv at each "
                          "checkpoint, but checkpoint_every = 0 makes none")
    if "init" in opts:
        init = sio.read_samples_csv(opts["init"])
        if init.dim != target.dim:
            raise ConfigError(f"[svgd] init = {opts['init']!r} has dimension {init.dim}, "
                              f"target expects {target.dim}")
    else:
        init = iid_gaussian(opts["init_n"], target.dim, opts["init_mu"],
                            opts["init_sigma"], derive_seed(opts["seed"], "ssvgd-init"))
    if opts["bandwidth_policy"] == MEDIAN_PER_ROUND and opts["rounds"] and init.n < 2:
        where = (f"init = {opts['init']!r} has {init.n} row" if "init" in opts
                 else f"init_n = {init.n}")
        raise ConfigError(f"[svgd] {where}, but bandwidth_policy = median_per_round "
                          "needs at least 2 particles when rounds >= 1")
    config = SvgdConfig(kernel=kernel, **{
        key: opts[key] for key in ("rounds", "batch", "step", "schedule", "fudge",
                                   "bandwidth_policy", "seed", "checkpoint_every")
    })
    result = run_ssvgd(init, target, config, threads=threads)

    out = args.out or "particles.csv"
    stem, _ = os.path.splitext(out)

    def record(round_no, evals, batch):
        entry = {"round": round_no, "term_evals": evals}
        if opts["report_ksd"]:
            entry["ksd"] = ksd(batch, target, kernel, threads=threads).value
        return entry

    records = []
    for round_no, positions, evals in result.checkpoints:
        records.append(record(round_no, evals, SampleBatch(positions)))
        if opts["save_trajectory"]:
            sio.write_samples_csv(f"{stem}.round-{round_no}.csv", SampleBatch(positions),
                                  meta=cfg.echo)
    if not records or records[-1]["round"] != config.rounds:
        records.append(record(config.rounds, result.term_evals, result.final))

    sio.write_samples_csv(out, result.final, meta=cfg.echo)
    sio.write_jsonl(stem + ".diagnostics.jsonl", records, meta=cfg.echo)
    return 0


def cmd_curve(args) -> int:
    cfg = _Config(args, "curve")
    target, spec, opts = cfg.target, cfg.kernel, cfg.read("curve", _CURVE)

    def run_cell(cell):
        n, rep = cell
        sample = iid_gaussian(n, target.dim, opts["mu"], opts["sigma"],
                              derive_seed(opts["seed"], "curve-sample", rep, n))
        result = _discrepancy(sample, target, spec, opts["m"],
                              derive_seed(opts["seed"], "curve-score", rep, n), threads=1)
        return [{"n": n, "rep": rep, "value": result.value, "term_evals": result.term_evals}]

    cells = [(n, rep) for n in opts["n_grid"] for rep in range(opts["seeds"])]
    rows = _grid_rows(run_cell, cells, cfg.threads)
    sio.write_table_csv(args.out or "curve.csv", rows, meta=cfg.echo)
    return 0


# ---------------------------------------------------------------------------
# entry point

def _thread_count(text):
    """``--threads``: a positive integer; argparse names the option on error."""
    try:
        return resolve_threads(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer") from None


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
        cmd.add_argument("--threads", type=_thread_count, default=None,
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
