#!/usr/bin/env python3
"""Benchmark of the cartier CLI: one workload, one seed, one run.

    python3 bench/run.py --workload scan-ramified --seed 1 --seconds 55 --trace 0

A run is a closed loop with one client: a single process and thread calls
the public entry point `cartier.cli.main` in-process, one job after the
other, and compares each job's exit code and stdout byte for byte with the
stored reference (bench/references.json). Passes over the workload's jobs
repeat until --seconds have gone by; the pass that is running then
finishes. Metric names and units come from BENCHMARK.json.

End-to-end timings are reported at a fixed host speed. The VM shares its
host, and its speed drifts for minutes at a time: ten consecutive runs of the
same code read pass times from 4.2 to 5.8 s, and set-up time moved with them
(correlation 0.95). Each set-up probe, a fresh process, first times the
import of a fixed list of standard-library modules (reference_imports), before
it imports the program. The run's timings are multiplied by
HOST_REFERENCE_S over the median of those times, so a timing reads the
seconds it would take at the host speed of the VM where the benchmark was
defined. The record keeps the unscaled times.

--trace 0 reports the end-to-end metrics. --trace 1 is the separate traced
run: it times the kernel microbenchmarks (not charged to --seconds), then
alternates untraced and traced passes and reports the per-layer metrics from
the traced ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A fuller record, with the machine and the seed, goes to
bench/results/. The program is imported from ./src of the checkout; without
it the run exits with an error and prints no result.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"
RESULTS = BENCH / "results"
MANIFEST = ROOT / "BENCHMARK.json"
# set-up probes are spread over the run, a few after each pass, so that
# setup_s is the median over the same stretch of time as the passes; they
# count against --seconds
SETUP_PROBES_PER_PASS = 2
# standard-library modules that a fresh `run.py --setup-probe` process has
# not imported yet and that import nothing cartier.cli imports; importing
# them is the host-speed reference
REFERENCE_MODULES = (
    "xml.dom.minidom", "xml.etree.ElementTree", "tarfile", "csv", "ssl",
    "configparser", "pprint", "shlex", "json.tool", "ftplib", "poplib",
    "html.parser", "wave", "mimetypes", "netrc", "pickletools", "pstats",
    "zipapp", "gzip", "fileinput", "filecmp", "getopt", "pyclbr", "symtable",
    "webbrowser", "socketserver",
)
# median seconds of reference_imports on the 2-core VM where the benchmark
# was defined
HOST_REFERENCE_S = 0.046


def manifest_units(kind):
    """name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in manifest[kind]}


def clean_env():
    """The run's environment: no PADIC_THREADS, so every scan is single-threaded."""
    env = dict(os.environ)
    env.pop("PADIC_THREADS", None)
    return env


def import_cli():
    """cartier.cli.main from this checkout's src, never from anywhere else."""
    package = SRC / "cartier"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import cartier.cli

    if Path(cartier.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: cartier was imported from {cartier.cli.__file__}")
    return cartier.cli.main


def setup_probe(workload, seed):
    """Run in a fresh process: time reference_imports, then import the CLI
    and generate the inputs."""
    host = reference_imports()
    t0 = time.perf_counter()
    import_cli()
    jobs, rng = workloads.plan(workload, seed)
    workloads.pass_order(jobs, rng)
    print(json.dumps([host, time.perf_counter() - t0]))


def measure_setup(workload, seed):
    """(reference seconds, set-up seconds) of one fresh process (see setup_probe)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("bench: set-up probe failed")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def reference_imports():
    """Seconds a fresh process takes to import REFERENCE_MODULES. The work
    is of the same kind as set-up, and it loads nothing from the program, so
    a change to the program cannot change it."""
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - t0


def run_job(cli_main, job, tracer=None):
    """(exit code, stdout, error, seconds) of one in-process CLI call."""
    buf = io.StringIO()
    code, error = 0, None
    rec = tracer.open("cli") if tracer else None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            cli_main.main(args=list(job.args), prog_name="cartier")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if rec is not None:
        tracer.close(rec)
    return code, buf.getvalue(), error, dt


def job_failure(job, refs, code, stdout, error):
    """Why the job failed, or None when it matches its reference."""
    if error is not None:
        return error
    ref = refs.get(job.key)
    if ref is None:
        return "no stored reference"
    if code != ref["exit"]:
        return f"exit {code}, expected {ref['exit']}"
    data = stdout.encode("utf-8")
    if hashlib.sha256(data).hexdigest() != ref["sha256"]:
        return f"stdout differs from the reference ({len(data)} bytes, expected {ref['bytes']})"
    try:
        if not workloads.planted_ok(job, stdout):
            return f"planted relation {job.planted} not found"
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc!r}"
    return None


def tail(samples):
    """(percentile, value): the highest whole percentile, by nearest rank,
    with at least ten samples beyond it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    q = 100 * (n - 10) // n
    return q, xs[max(1, -(-q * n // 100)) - 1]


class Run:
    """The state of one benchmark run."""

    def __init__(self, cli_main, workload, seed, refs):
        self.cli_main = cli_main
        self.workload, self.seed = workload, seed
        self.jobs, self.rng = workloads.plan(workload, seed)
        self.refs = refs
        self.attempted = 0
        self.failures = []
        self.latencies = {slot: [] for slot, _ in self.jobs}

    def one_pass(self, tracer=None):
        """Run every job once in a seeded order; returns the job latencies."""
        gc.collect()
        outcomes = []
        for slot, job in workloads.pass_order(self.jobs, self.rng):
            outcomes.append((slot, job, run_job(self.cli_main, job, tracer)))
        for slot, job, (code, stdout, error, dt) in outcomes:
            self.attempted += 1
            self.latencies[slot].append(dt)
            why = job_failure(job, self.refs, code, stdout, error)
            if why is not None:
                self.failures.append({"job": job.key, "why": why})
        return [dt for _, _, (_, _, _, dt) in outcomes]


def end_to_end(run, seconds):
    """End-to-end metrics; every timing is scaled to the reference host speed."""
    walls, samples, host, setup = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        latencies = run.one_pass()
        walls.append(sum(latencies))
        samples += latencies
        for h, s in (measure_setup(run.workload, run.seed) for _ in range(SETUP_PROBES_PER_PASS)):
            host.append(h)
            setup.append(s)
    scale = HOST_REFERENCE_S / statistics.median(host)
    q, tail_value = tail(samples)
    metrics = {
        "wall_s": scale * statistics.median(walls),
        "job_p50_s": scale * statistics.median(samples),
        "job_tail_s": scale * tail_value,
        "setup_s": scale * statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(walls),
        "host_scale": scale,
        "pass_walls_s": walls,
        "setup_samples_s": setup,
        "host_reference_s": host,
        "job_tail_percentile": q,
        "job_samples": len(samples),
    }
    return metrics, detail


def per_layer(run, seconds, units):
    import kernels
    from tracer import Tracer

    try:
        kernel_ms = kernels.run_kernels()
    except kernels.KernelMismatch as exc:
        run.failures.append({"job": "kernels", "why": str(exc)})
        kernel_ms = {name: 0.0 for name in units if name.startswith("kernel.")}
    run.attempted += 1
    # the kernels are timed outside --seconds, which goes to the passes alone
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(sum(run.one_pass()))
        else:
            tracer.install()
            try:
                traced.append(sum(run.one_pass(tracer)))
            finally:
                tracer.uninstall()
            tracer.fold()
    n = len(traced)
    counts = {name: value / n for name, value in tracer.counts.items()}
    self_s = {name: value / n for name, value in tracer.self_s.items()}
    job_s = tracer.total_s["cli"] / n

    def count(name):
        return counts.get(name, 0)

    metrics = {}
    for name, unit in units.items():
        if unit == "count":
            metrics[name] = count(name)
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
    raw_calls = count("rational.raw_verify.calls")
    metrics["rational.raw_pass_ratio"] = (
        (raw_calls - count("rational.raw_verify.rejects")) / raw_calls if raw_calls else 0.0
    )
    pairs = count("rational.pade.pairs")
    metrics["rational.cert_yield"] = count("rational.certificates") / pairs if pairs else 0.0
    for layer in (name[: -len(".self_frac")] for name in units if name.endswith(".self_frac")):
        spent = sum(v for k, v in self_s.items() if k == layer or k.startswith(layer + "."))
        metrics[f"{layer}.self_frac"] = spent / job_s
    metrics.update(kernel_ms)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    detail = {
        "untraced_walls_s": plain,
        "traced_walls_s": traced,
        "self_s_per_pass": dict(sorted(self_s.items())),
        "counts_per_pass": dict(sorted(counts.items())),
    }
    return metrics, detail


def machine():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("PADIC_THREADS", None)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli_main = import_cli()
    if args.workload not in workloads.SLOTS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}")
    refs = json.loads(args.references.read_text(encoding="utf-8"))
    run = Run(cli_main, args.workload, args.seed, refs)
    units = manifest_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics, detail = per_layer(run, args.seconds, units)
    else:
        metrics, detail = end_to_end(run, args.seconds)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "jobs": {slot: job.key for slot, job in run.jobs},
        "latencies_s": run.latencies,
        "failures": run.failures,
        **detail,
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in run.failures[:10]:
        print(f"FAILED {failure['job']}: {failure['why']}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"failed_frac {result['failed']}/{result['attempted']}  record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
