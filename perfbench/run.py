"""finslerlab benchmark: closed-loop verification workloads.

    python3 perfbench/run.py --workload {manifests-2d,funk-4d,verify-paper}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One client in this process runs passes back to back for
``--seconds`` seconds.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it wraps each layer's public functions and prints the
per-layer metrics (see NOTES.md).  Details, and with ``--trace 1`` the spans,
go to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# the package comes from the checkout's src/; without it these imports fail
import finslerlab  # noqa: E402
import layers  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from finslerlab.jets import Jet, JetContext, get_context  # noqa: E402
from tracer import FIELDS, Tracer  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
# the program's default configuration is measured: an ambient setting of
# the sample pool size must not change what is measured
SCRUBBED_ENV = ("FINSLERLAB_THREADS",)


def probe(workload, seed):
    """Set-up time measured in a fresh interpreter (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scrubbed_env": {k: os.environ.get(k) for k in SCRUBBED_ENV},
    }


class Runner:
    """Runs passes over the input sets and keeps what correctness needs."""

    def __init__(self, workload, sets):
        self.workload = workload
        self.sets = sets
        self.firsts = {}
        self.attempted = 0
        self.failed = []

    def one_pass(self, index):
        k = index % len(self.sets)
        gc.collect()
        start = time.perf_counter()
        outcome = workloads.run_pass(self.workload, self.sets[k])
        first = self.firsts.setdefault(k, outcome)
        if first is not outcome:
            workloads.guard_determinism(outcome, first)
        seconds = time.perf_counter() - start
        self.attempted += len(outcome.ops)
        self.failed += [(op.name, op.reason) for op in outcome.failed]
        return outcome, seconds


def more(times, start, budget, minimum=1):
    """Closed-loop stop rule: run another pass if it should end in budget."""
    if len(times) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(times) <= budget


def untraced(args, sets):
    setups = [probe(args.workload, args.seed)["setup_s"]
              for _ in range(SETUP_PROBES)]
    runner = Runner(args.workload, sets)
    times, per_op, headroom = [], {}, {}
    start = time.perf_counter()
    while more(times, start, args.seconds,
               workloads.MIN_PASSES[args.workload]):
        k = len(times) % len(sets)
        outcome, seconds = runner.one_pass(len(times))
        times.append(seconds)
        headroom.setdefault(k, outcome.worst_headroom)
        for name, value in outcome.seconds.items():
            per_op.setdefault(name, []).append(value)
    metrics = {
        "verify_s": (statistics.median(times), "s"),
        "passed_share": (1.0 - len(runner.failed) / runner.attempted, "ratio"),
        "residual_headroom_log10": (statistics.median(headroom.values()),
                                    "decades"),
        "setup_s": (statistics.median(setups), "s"),
        # this process is a fresh interpreter that ran only the passes;
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    details = {
        "pass_s": times,
        "verify_s_quartiles": quartiles(times),
        "setup_s_samples": setups,
        "headroom_by_input_set": headroom,
        "op_seconds_median": {k: statistics.median(v)
                              for k, v in per_op.items()},
    }
    return runner, metrics, details


def jet_probes(num_vars, seed, batches=7, batch_s=0.02):
    """Untraced per-op cost (us) of mul, reciprocal and real power."""
    ctx = get_context(num_vars, 4)
    rng = random.Random(seed)
    coeffs = [1.0 + rng.random()] + [rng.uniform(-0.1, 0.1)
                                     for _ in range(ctx.ncoef - 1)]
    a = Jet(ctx, np.array(coeffs))
    b = Jet(ctx, np.array(coeffs[::-1]))
    ops = {"mul_us": lambda: a * b, "recip_us": lambda: 1.0 / a,
           "pow_us": lambda: a ** 0.5}
    out = {}
    for name, op in ops.items():
        start = time.perf_counter()
        for _ in range(10):
            op()
        count = max(10, int(batch_s / ((time.perf_counter() - start) / 10)))
        per_op = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(count):
                op()
            per_op.append((time.perf_counter() - start) / count * 1e6)
        out[name] = statistics.median(per_op)
    return out


def context_build_s(keys, repeats=3):
    """Time to build every jet context the workload uses, from scratch."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for key in keys:
            JetContext(*key)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def traced(args, sets, defects):
    docs = sets[0]
    values = {f"jets.{k}": v for k, v in jet_probes(
        2 * workloads.dimension(docs), args.seed).items()}
    values["jets.context_build_s"] = context_build_s(
        workloads.context_keys(docs))

    # untraced passes first (a third of the time), then traced ones, all on
    # the first input set so traced reports can be compared byte for byte
    runner = Runner(args.workload, [docs])
    start = time.perf_counter()
    plain, plain_s = [], []
    while more(plain_s, start, args.seconds / 3):
        outcome, seconds = runner.one_pass(len(plain))
        plain.append(outcome)
        plain_s.append(seconds)
    tracer = Tracer()
    layers.install(tracer)
    traced_s, per_pass, spans, apart = [], [], None, {}
    try:
        while more(traced_s, start, args.seconds):
            tracer.reset()
            with tracer.span("pass"):
                outcome, seconds = runner.one_pass(len(plain) + len(traced_s))
            traced_s.append(seconds)
            per_pass.append(layers.pass_metrics(tracer))
            if spans is None:
                spans = tracer.spans
        if defects:
            tracer.reset()
            workloads.known_defects()
            apart = layers.pass_metrics(tracer)
    finally:
        tracer.restore()
    values.update(layers.median_metrics(per_pass))
    # a function that only the known-defect scenarios call (on verify-paper,
    # constructions.positivity_sample) is timed in one traced run of them
    for name, value in apart.items():
        if name.endswith(".self_s") and not values[name]:
            values[name] = value
    values["runner.skipped"] = outcome.skipped
    values["report.bytes"] = sum(len(t) for t in outcome.reports.values())
    for anchor in workloads.SCENARIO_ANCHORS:
        values[f"scenarios.{anchor}_s"] = statistics.median(
            p.seconds.get(anchor, 0.0) for p in plain)
    for anchor, (_, seconds, _) in defects.items():
        values[f"scenarios.{anchor}_s"] = seconds
    values["trace.overhead_share"] = (statistics.median(traced_s)
                                      / statistics.median(plain_s) - 1.0)
    units = dict(layers.per_layer_names(workloads.SCENARIO_ANCHORS))
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    details = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
               "effective_workers": int(values["runner.workers"])}
    return runner, metrics, details, (spans, tracer.names)


def write_spans(path, spans, names):
    """The spans of one pass, compressed: ``spans`` has columns ``FIELDS``
    and its name column indexes ``names``."""
    np.savez_compressed(
        path, fields=np.array(FIELDS),
        names=np.array(sorted(names, key=names.get)),
        spans=np.frombuffer(spans, dtype=np.int64).reshape(-1, len(FIELDS)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    facts = machine_facts()
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    src = (ROOT / "src").resolve()
    if Path(finslerlab.__file__).resolve().parent.parent != src:
        sys.exit(f"finslerlab was imported from {finslerlab.__file__}, "
                 f"not from {src}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"one of {workloads.WORKLOADS}")
    sets = workloads.input_sets(args.workload, args.seed, ROOT)
    defects = (workloads.known_defects() if args.workload == "verify-paper"
               else {})

    spans = None
    if args.trace:
        runner, metrics, details, spans = traced(args, sets, defects)
        # threads that evaluated Einstein scalars under the default pool
        facts["effective_workers"] = details.pop("effective_workers")
    else:
        runner, metrics, details = untraced(args, sets)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        write_spans(OUT / f"{stem}-spans.npz", *spans)
    failed_ops = sorted({name for name, _ in runner.failed})
    result = {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "facts": facts,
                   "failed_ops": [list(f) for f in runner.failed],
                   "known_defects": defects,
                   "details": details, "result": result}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if "verify_s_quartiles" in details:
        q1, q2, q3 = details["verify_s_quartiles"]
        print(f"# verify_s quartiles {q1:.4f} {q2:.4f} {q3:.4f} s over "
              f"{len(details['pass_s'])} passes")
        for name, value in details["op_seconds_median"].items():
            print(f"# {name}: {value:.4f} s median per pass")
    print(f"# failed operations: {', '.join(failed_ops) or 'none'} "
          f"({len(runner.failed)} of {runner.attempted} attempted)")
    for anchor, (ok, _, reason) in defects.items():
        print(f"# known defect, run once outside the measured operations: "
              f"{anchor} {'passed' if ok else 'FAILED: ' + reason}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
