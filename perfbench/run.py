"""atomiso benchmark: one workload per process, checked answers, end-to-end
metrics by default and per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload iso-circle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (defined in workloads.json and workloads.py):

- ``iso-circle``: ``iso`` on the cyclic ``circle`` fixture, bare then
  anchored at ``0``, through the command line.
- ``iso-equality``: rounds of eleven ``iso``/``eliminate`` commands on the
  equality fixtures, each with the cold compiler the command line builds.
- ``set-queries``: a stream of ``set_equal``, ``is_subset``,
  ``orbit_decomposition`` and ``least_support`` queries on one warm compiler
  per backend, with a per-query deadline.

Load is one closed loop in one thread.  ``--seconds`` sets the amount of
work: the number of rounds (or passes over the query stream) is
``--seconds`` divided by the workload's nominal round time, at least one.

``--workload all`` runs every workload in its own process, untraced and
then traced.  For a single workload, the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A wrong answer makes ``correct`` false and the exit code 1.  Inputs whose fingerprint no
longer matches workloads.json, or a failed trace self-check, end the run
with another non-zero code and no result.  Scratch files (emitted fixtures,
run records, span dumps) go to ``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

EXIT_WRONG = 1
EXIT_FINGERPRINT = 3
EXIT_SELF_CHECK = 4


def _stat_cpu():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(x) for x in fields[1:]]
    return sum(ticks[:8]), ticks[7]  # total, steal


def _probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a yardstick for the host's
    speed during this run, kept as metadata, not as a metric."""
    reps = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        reps.append((time.perf_counter() - t0) * 1000)
    return statistics.median(reps)


def _percentile(sorted_xs: list, p: float):
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it."""
    n = len(sorted_xs)
    if n * (1 - p) < 10:
        return None
    return sorted_xs[max(0, math.ceil(p * n) - 1)]


def _setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time of the workload in fresh interpreters."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(WORK)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def _op_metrics(ops) -> dict:
    """Prints the per-operation latency percentiles and failure share, and
    returns them for the run record."""
    n = len(ops)
    times = sorted(op.seconds * 1000 for op in ops)
    out = {"ops": n}
    for p in (0.5, 0.9, 0.99):
        key = f"op_p{round(p * 100)}_ms"
        v = out[key] = _percentile(times, p)
        if v is None:
            print(f"  {key:<14} n/a ms (only {n} operations; fewer than 10 beyond)")
        else:
            print(f"  {key:<14} {v:.3f} ms (n={n})")
    failed = sum(op.failure is not None for op in ops)
    out["failed_frac"] = failed / n
    print(f"  {'failed_frac':<14} {failed / n:.4f} ({failed} of {n} failed or missed the deadline)")
    return out


def _timed(wl, size: int, workload: str, seed: int, probes: int):
    t0 = time.perf_counter()
    ops = wl.run(size)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = wl.check(ops)
    setups = _setup_probes(workload, seed, probes)
    print(f"  {'setup_s':<14} {statistics.median(setups):.4f} s (median of {probes} fresh set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"  {'wall_s':<14} {wall:.4f} s")
    latency = _op_metrics(ops)
    print(f"  {'peak_rss_mb':<14} {peak_rss_mb:.2f} MB")
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return ops, wrong, metrics, {**latency, "setups": setups}


def _traced(wl, size: int, workload: str, seed: int, n_workloads: int):
    import layers
    from tracing import Tracer

    # the overhead is measured against the untraced runs of this workload
    # in this checkout, or against one untraced pass when there are none
    records = [json.loads(p.read_text()) for p in WORK.glob(f"run-{workload}-seed*-trace0.json")]
    walls = [r["metrics"]["wall_s"]["value"] for r in records if r.get("rounds") == size]
    if walls:
        untraced = statistics.median(walls)
        baseline = f"median of {len(walls)} untraced run(s) in this checkout"
    else:
        t0 = time.perf_counter()
        wl.run(size)
        untraced = time.perf_counter() - t0
        baseline = "one untraced pass"

    tracer = Tracer()
    wrapped = layers.install(tracer)
    passes = []
    for _ in range(2):
        wl.reset()
        tracer.reset()
        t0 = time.perf_counter()
        ops = wl.run(size, tracer)
        wall = time.perf_counter() - t0
        passes.append((ops, wall, dict(tracer.calls), list(tracer.op_calls)))
        if len(passes) == 1:
            metrics = layers.metrics(tracer)
            spans = tracer.write_tsv(WORK / f"spans-{workload}-seed{seed}.tsv")
    (ops, wall, calls, marks), (ops2, _, calls2, marks2) = passes
    wrong = wl.check(ops)

    # identical call counts in both passes, up to the first operation that
    # missed its deadline in either (a miss cuts a query short at a time
    # that depends on the host)
    cut = min([op.index for op in ops + ops2 if op.failure == "deadline"], default=None)
    a, b = (calls, calls2) if cut is None else (marks[cut], marks2[cut])
    mismatched = sorted(n for n in set(a) | set(b) if a.get(n, 0) != b.get(n, 0))
    compared = len(ops) if cut is None else cut

    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.spans"] = (spans, "count")
    print(f"  untraced wall {untraced:.3f} s ({baseline}), traced {wall:.3f} s, overhead "
          f"{wall - untraced:.3f} s ({(wall - untraced) / untraced:.1%}); {spans} spans")
    print(f"  call counts of two traced passes agree on {compared} operations: "
          + ("yes" if not mismatched else f"NO, differ for {', '.join(mismatched)}"))
    uncalled = [n for n in wrapped if not calls.get(n)]
    print("  wrapped functions not called here: " + (", ".join(uncalled) or "none"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")

    self_check = []
    if mismatched:
        self_check.append("call counts differ between two traced passes: " + ", ".join(mismatched))
    (WORK / f"calls-{workload}.json").write_text(json.dumps({n: calls.get(n, 0) for n in wrapped}))
    seen = [json.loads(p.read_text()) for p in WORK.glob("calls-*.json")]
    if len(seen) == n_workloads:
        never = [n for n in wrapped if not any(s.get(n) for s in seen)]
        if never:
            self_check.append("wrapped but never called on any workload: " + ", ".join(never))
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return ops, wrong, out, self_check


def _run_all(config: dict, args) -> int:
    """Every workload, one after another, each in its own process: first
    untraced for the end-to-end metrics, then traced for the per-layer
    ones.  Returns the first non-zero exit code."""
    worst = 0
    for name in config["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            code = subprocess.run(argv).returncode
            worst = worst or code
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="atomiso benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload == "all":
        return _run_all(config, args)
    if args.workload not in config["workloads"]:
        ap.error(f"unknown workload {args.workload!r}; known: all, {', '.join(config['workloads'])}")
    spec = config["workloads"][args.workload]
    if not (ROOT / "src" / "atomiso").is_dir():
        print(f"perfbench: no atomiso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    WORK.mkdir(exist_ok=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    cpu0, probe0 = _stat_cpu(), _probe_ms()
    fixture_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        t0 = time.perf_counter()
        import workloads

        wl = workloads.build(args.workload, spec, args.seed, fixture_dir)
        setup_here = time.perf_counter() - t0
        size = max(1, round(args.seconds / spec["nominal_round_s"]))
        fingerprint = wl.fingerprint()
        print(f"  inputs: fingerprint {fingerprint}, this seed's stream {wl.stream_digest(size)}, "
              f"{size} round(s), set-up in this process {setup_here:.3f} s")
        if fingerprint != spec["fingerprint"]:
            print(
                f"perfbench: the generated inputs of {args.workload} changed (fingerprint "
                f"{fingerprint}, workloads.json has {spec['fingerprint']}); a change to the "
                "traffic must update workloads.json on purpose",
                file=sys.stderr,
            )
            return EXIT_FINGERPRINT
        if args.trace:
            ops, wrong, metrics, self_check = _traced(wl, size, args.workload, args.seed, len(config["workloads"]))
            record = {}
        else:
            ops, wrong, metrics, record = _timed(wl, size, args.workload, args.seed, config["setup_probes"])
            self_check = []
    finally:
        shutil.rmtree(fixture_dir, ignore_errors=True)

    cpu1, probe1 = _stat_cpu(), _probe_ms()
    steal = None
    if cpu0 and cpu1 and cpu1[0] > cpu0[0]:
        steal = (cpu1[1] - cpu0[1]) / (cpu1[0] - cpu0[0])
    print(f"  host: steal {'n/a' if steal is None else f'{steal:.2%}'} of CPU time during the run, "
          f"probe loop {probe0:.2f} ms before and {probe1:.2f} ms after")
    failed = sum(op.failure is not None for op in ops)
    print(f"  answers: {len(ops) - failed} checked, {len(wrong)} wrong")
    for w in wrong[:20]:
        print(f"    WRONG {w}")
    record.update(
        workload=args.workload, seed=args.seed, rounds=size, trace=args.trace,
        fingerprint=fingerprint, steal=steal, probe_ms=[probe0, probe1], wrong=wrong,
        metrics=metrics,
    )
    (WORK / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    for msg in self_check:
        print(f"perfbench: trace self-check failed: {msg}", file=sys.stderr)
    if self_check:
        return EXIT_SELF_CHECK
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return EXIT_WRONG if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
