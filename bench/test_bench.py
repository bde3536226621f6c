"""Tests of the benchmark itself, on the tiny `smoke` workload.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def invoke(*extra, cwd=ROOT, seed=3, trace=0):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_workloads_are_defined():
    manifest = json.loads(run.MANIFEST.read_text())
    names = [w["name"] for w in manifest["workloads"]]
    assert names and set(names) <= set(workloads.SLOTS) - {"smoke"}


@pytest.mark.parametrize("workload", [w for w in workloads.SLOTS if w != "smoke"])
def test_costliest_slots_are_close_in_cost(workload):
    """The tail sample stays among the costliest slots whatever the number of
    passes: in the baseline run, those within 1.3x of the costliest slot hold
    more than ten samples."""
    record = json.loads((BENCH / "baseline" / f"{workload}-seed1-trace0.json").read_text())
    cost = {slot: statistics.median(xs) for slot, xs in record["latencies_s"].items()}
    top = max(cost.values())
    close = [slot for slot, c in cost.items() if c * 1.3 >= top]
    assert len(close) >= 2
    assert sum(len(record["latencies_s"][slot]) for slot in close) > 10


def test_every_variant_has_a_reference():
    refs = json.loads(run.REFERENCES.read_text())
    assert all(job.key in refs for job in workloads.all_jobs())


def test_seed_fixes_the_plan():
    a, rng_a = workloads.plan("operators", 5)
    b, rng_b = workloads.plan("operators", 5)
    assert a == b
    assert workloads.pass_order(a, rng_a) == workloads.pass_order(b, rng_b)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 56))) == (81, 45)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_tracer_restores_the_library():
    run.import_cli()
    from tracer import Tracer

    modules = [m for name, m in sys.modules.items() if name == "cartier" or name.startswith("cartier.")]
    before = [dict(vars(m)) for m in modules]
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type)]
    methods = [dict(vars(c)) for c in classes]
    dependence = sys.modules["cartier.dependence"]
    original = dependence.reconstruct_rational
    tracer = Tracer()
    tracer.install()
    assert dependence.reconstruct_rational is not original
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == methods


def test_self_time_excludes_child_spans():
    from tracer import Tracer

    tracer = Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    tracer.fold()
    assert tracer.self_s["a"] == pytest.approx(tracer.total_s["a"] - tracer.total_s["b"])
    assert tracer.counts["a.calls"] == tracer.counts["b.calls"] == 1


def test_smoke_run_is_correct():
    result = result_of(invoke())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.manifest_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_timings_are_scaled_to_the_reference_host_speed():
    result = result_of(invoke())
    record = json.loads((BENCH / "results" / "smoke-seed3-trace0.json").read_text())
    scale = run.HOST_REFERENCE_S / statistics.median(record["host_reference_s"])
    assert record["host_scale"] == pytest.approx(scale)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(scale * statistics.median(record["pass_walls_s"]))
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(scale * statistics.median(record["setup_samples_s"]))


def modules_loaded_by(call):
    """Modules a fresh process, with run.py imported, loads in run.<call>()."""
    code = (
        "import json, sys; sys.path.insert(0, 'bench'); import run; "
        f"before = set(sys.modules); run.{call}(); "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_reference_imports_share_nothing_with_the_program():
    reference = modules_loaded_by("reference_imports")
    assert set(run.REFERENCE_MODULES) <= reference
    assert not reference & modules_loaded_by("import_cli")


def test_traced_counts_repeat():
    first = result_of(invoke(trace=1))["metrics"]
    second = result_of(invoke(trace=1))["metrics"]
    units = run.manifest_units("per_layer")
    assert set(first) == set(units)
    counts = [n for n, unit in units.items() if unit == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["frobenius.antecedent_step.calls"]["value"] > 0
    assert first["rational.pade.pairs"]["value"] > 0


def test_tampered_reference_is_a_failed_operation(tmp_path):
    refs = json.loads(run.REFERENCES.read_text())
    key = workloads.SLOTS["smoke"]["certify"][0].key
    refs[key]["sha256"] = "0" * 64
    tampered = tmp_path / "references.json"
    tampered.write_text(json.dumps(refs))
    result = result_of(invoke("--references", str(tampered)))
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = invoke(cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
