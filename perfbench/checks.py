"""Output checks for the benchmark's CLI runs.

Each ``check_*`` function takes the run's output files as ``{name: bytes}``
and returns ``(term_evals, problems)``: the likelihood-term gradient
evaluations the outputs report, and a list of reasons the run failed (empty
when it passed).
"""

import csv
import io
import json
import math

import inputs

# Loose enough for the reassociation of a blocked or bilinear pairwise sum
# (about 1.5e-13 relative), tight enough to catch a changed result.
REFERENCE_RTOL = 1e-9


def _text(files, name):
    return files[name].decode("utf-8")


def _table(files, name):
    lines = [ln for ln in _text(files, name).splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_score(files, n=inputs.SCORE_N):
    problems = []
    result = json.loads(_text(files, "result.json"))["result"]
    if not (_finite(result["value"]) and all(_finite(v) for v in result["w_sq"])):
        problems.append("non-finite discrepancy value")
    expected = n * inputs.SCORE_M
    if result["n"] != n or result["term_evals"] != expected:
        problems.append(f"term_evals {result['term_evals']} != n*m = {expected}")
    return result["term_evals"], problems


def check_tune(files, chain_steps=inputs.TUNE_STEPS, trials=inputs.TUNE_TRIALS):
    problems = []
    rows = _table(files, "tune.csv")
    total = 0
    for row in rows:
        where = f"eps={row['epsilon']} m={row['m']} trial={row['trial']}"
        if row["diverged"] != "0":
            problems.append(f"chain diverged at {where}")
            continue
        if not math.isfinite(float(row["value"])):
            problems.append(f"non-finite value at {where}")
        evals = int(row["term_evals"])
        if evals != chain_steps * int(row["m"]):
            problems.append(f"term_evals {evals} != n*m at {where}")
        total += evals
    cells = len(inputs.TUNE_EPS_GRID) * trials * len(inputs.TUNE_M_LIST)
    if len(rows) != cells:
        problems.append(f"{len(rows)} result rows, expected {cells}")
    for row in _table(files, "tune.summary.csv"):
        if not all(math.isfinite(float(row[k])) for k in ("mean_value", "median_value")):
            problems.append(f"non-finite summary at m={row['m']} eps={row['epsilon']}")
    return total, problems


def _sample_rows(files, name):
    return [
        [float(v) for v in row]
        for row in csv.reader(io.StringIO(_text(files, name)))
        if row and not row[0].startswith(("#", "x"))
    ]


def check_ssvgd(files):
    """Property check: the run's cost is exact and its KSD falls, since the
    SSVGD trajectory itself is expected to change in later versions."""
    problems = []
    n, batch = inputs.SSVGD_PARTICLES, inputs.SSVGD_BATCH
    records = [
        json.loads(line)
        for line in _text(files, "particles.diagnostics.jsonl").splitlines()
        if not line.startswith("#")
    ]
    for record in records:
        if record["term_evals"] != record["round"] * n * batch:
            problems.append(
                f"term_evals {record['term_evals']} != rounds*n*batch at round "
                f"{record['round']}"
            )
        if not _finite(record["ksd"]):
            problems.append(f"non-finite KSD at round {record['round']}")
    rounds = [r["round"] for r in records]
    every = inputs.SSVGD_CHECKPOINT_EVERY
    if rounds != list(range(every, inputs.SSVGD_ROUNDS + 1, every)):
        problems.append(f"unexpected checkpoint rounds {rounds}")
    elif not records[-1]["ksd"] < records[0]["ksd"]:
        problems.append(
            f"final KSD {records[-1]['ksd']} is not below the first checkpoint's "
            f"{records[0]['ksd']}"
        )
    snapshots = [f"particles.round-{r}.csv" for r in rounds] + ["particles.csv"]
    for name in snapshots:
        if name not in files:
            problems.append(f"missing output {name}")
            continue
        rows = _sample_rows(files, name)
        if len(rows) != n or not all(math.isfinite(v) for row in rows for v in row):
            problems.append(f"{name}: expected {n} finite particles")
    return (records[-1]["term_evals"] if records else 0), problems


def discrepancy_values(workload, files):
    """The discrepancy values of a score or tune run, keyed by cell."""
    if workload == "score-d8":
        result = json.loads(_text(files, "result.json"))["result"]
        values = {f"w_sq[{j}]": v for j, v in enumerate(result["w_sq"])}
        values["value"] = result["value"]
        return values
    return {
        f"eps={row['epsilon']} m={row['m']} trial={row['trial']}": float(row["value"])
        for row in _table(files, "tune.csv")
    }


def compare_reference(actual, reference):
    problems = []
    if sorted(actual) != sorted(reference):
        return [f"reference cells {sorted(reference)} != {sorted(actual)}"]
    for key, want in reference.items():
        got = actual[key]
        if not abs(got - want) <= REFERENCE_RTOL * max(abs(got), abs(want)):
            problems.append(f"{key}: {got!r} differs from reference {want!r}")
    return problems
