"""tribefs benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload wine13-svm --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --smoke

It imports tribefs from the ``src`` directory beside ``bench`` and refuses
to run without it. Workloads are defined in ``workloads.py``; metric names
and units come from ``BENCHMARK.json`` at the repository root.

``--trace 0`` runs instances untraced for ``--seconds`` seconds (at least
two: the reference instance and the seed's first) and reports the
end-to-end metrics. ``--trace 1`` runs a fixed set of instances untraced,
replays each traced through the public functions, checks that the replay
reproduces the untraced result, adds the micro measurements and reports the
per-layer metrics; its spans go to ``.bench_out/``. ``--workload all`` runs
every workload in both modes, each in a fresh process, printing one result
line each; ``--smoke``
does the same at tiny sizes, which checks quickly that every metric named in
``BENCHMARK.json`` is reported with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and each instance's digests.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# The matrices are small (at most a few hundred rows), so more BLAS threads
# add scheduling jitter and no speed; one thread also stays within nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REFERENCE_SEED = 0  # seed of instance 0; its digests are pinned in workloads.py
SETUP_PROBES = 5  # set-up is timed in this many fresh processes; the median counts
MIN_INSTANCES = 2  # the reference instance and at least one instance of the seed
REPLAYED = 2  # instances replayed traced; fixed, so traced counts repeat exactly
SOLVER_MASKS = 12  # masks the solver micro measurement trains on, each on every fold
OPERATOR_BUDGET_S = 0.5  # seconds per operator micro measurement, past one call a tribe


def load_tribefs():
    package = SRC / "tribefs" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: tribefs sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import tribefs

    if Path(tribefs.__file__).resolve() != package.resolve():
        raise SystemExit(f"bench: tribefs came from {tribefs.__file__}, not {package}")


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def instance_seed(seed: int, k: int) -> int:
    """Seed of instance ``k`` of a run started with ``--seed seed``.

    Instance 0 is the reference instance, the same in every run, so its
    pinned digest is checked on every run whatever the seed.
    """
    if k == 0:
        return REFERENCE_SEED
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def peak_rss_mb() -> float:
    """This process's peak resident memory so far (``ru_maxrss``, in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workloads, name: str, seed: int) -> float:
    """Seconds from process start to the first instance's inputs being built."""
    workloads[name].build(instance_seed(seed, 0))
    return time.perf_counter() - _STARTED


def measure_setup(name: str, seed: int, probes: int, smoke: bool) -> list[float]:
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Attempts:
    """Counts attempted and failed instances; a failure is an exception or a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, k: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"instance {k}: {p}" for p in problems)
            for p in problems:
                print(f"bench: instance {k}: {p}", file=sys.stderr)


def _pinned_problems(workload, k, outcome) -> list[str]:
    if k == 0 and workload.pinned is not None and outcome.digest != workload.pinned:
        return [f"reference digest {outcome.digest}; pinned {workload.pinned}"]
    return []


def _attempt(attempts, k, action):
    try:
        return action()
    except Exception:  # one failed instance is counted and the run goes on
        attempts.record(k, [traceback.format_exc()])
        return None


def run_untraced(workload, seed: int, seconds: float):
    attempts = Attempts()
    outcomes = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_INSTANCES or time.perf_counter() < deadline:
        gc.collect()  # start every instance without the previous one's garbage
        outcome = _attempt(
            attempts, k, lambda: workload.run(workload.build(instance_seed(seed, k)))
        )
        if outcome is not None:
            problems = outcome.problems + _pinned_problems(workload, k, outcome)
            attempts.record(k, problems)
            outcomes.append(outcome)
        k += 1
    if not outcomes:
        raise SystemExit("bench: every instance failed")
    metrics = {
        "run_s": statistics.median(o.seconds for o in outcomes),
        "evals_per_s": statistics.median(o.evals / o.seconds for o in outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return attempts, metrics, outcomes


def _replay_problems(plain, traced) -> list[str]:
    problems = []
    if plain.digest != traced.digest:
        problems.append(f"replay digest {traced.digest} is not {plain.digest}")
    if plain.run_evals != traced.run_evals:
        problems.append(f"replay evaluations {traced.run_evals}, not {plain.run_evals}")
    return problems


def _run_and_replay(workload, seed: int, tracer):
    """Run an instance untraced, then replay it; also return the peak RSS between."""
    inputs = workload.build(seed)
    gc.collect()
    plain = workload.run(inputs)
    untraced_rss = peak_rss_mb()
    gc.collect()
    return inputs, plain, workload.replay(inputs, tracer), untraced_rss


def run_traced(workload, seed: int, solver_masks: int, operator_budget: float):
    from tracing import Tracer, layer_metrics, operator_micro, solver_micro

    attempts = Attempts()
    tracer = Tracer()
    outcomes = []
    baseline_rss = peak_rss_mb()  # interpreter, NumPy, SciPy and tribefs loaded
    untraced_rss = baseline_rss
    untraced_seconds = 0.0
    last = None
    for k in range(REPLAYED):
        tracer.instance = k
        inputs_seed = instance_seed(seed, k)
        done = _attempt(
            attempts, k, lambda: _run_and_replay(workload, inputs_seed, tracer)
        )
        if done is None:
            continue
        inputs, plain, traced, rss = done
        if k == 0:  # later peaks include the traced replay before them
            untraced_rss = rss
        attempts.record(
            k,
            plain.problems + traced.problems + _pinned_problems(workload, k, plain)
            + _replay_problems(plain, traced),
        )
        untraced_seconds += plain.seconds
        outcomes.append(plain)
        last = (inputs, traced)
    if last is None:
        raise SystemExit("bench: every traced instance failed")
    metrics = layer_metrics(tracer.spans, untraced_seconds)
    metrics["memory.rss_growth_mb"] = untraced_rss - baseline_rss
    inputs, traced = last
    population = traced.population
    dataset, protocol = workload.solver_data(inputs)
    solver_rng = np.random.default_rng([seed, 7])
    metrics.update(
        solver_micro(dataset, protocol, population, solver_rng, solver_masks)
    )
    metrics.update(
        operator_micro(population, np.random.default_rng([seed, 11]), operator_budget)
    )
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    return attempts, metrics, outcomes


def run_benchmark(workloads, name, seed, seconds, trace, smoke=False) -> dict:
    declared = declared_metrics()
    workload = workloads[name]
    if trace:
        scale = (2, 0.05) if smoke else (SOLVER_MASKS, OPERATOR_BUDGET_S)
        attempts, values, outcomes = run_traced(workload, seed, *scale)
        units = declared["per_layer"]
    else:
        setup = measure_setup(name, seed, 1 if smoke else SETUP_PROBES, smoke)
        attempts, values, outcomes = run_untraced(workload, seed, seconds)
        values["setup_s"] = statistics.median(setup)
        units = declared["end_to_end"]
    if set(values) != set(units):
        raise SystemExit(
            f"bench: measured {sorted(values)}; BENCHMARK.json declares {sorted(units)}"
        )
    print(json.dumps({
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "instances": [
            {"seed": o.seed, "seconds": o.seconds, "cpu_seconds": o.cpu_seconds,
             "evals": o.evals, "digest": o.digest, "fingerprint": o.fingerprint}
            for o in outcomes
        ],
        "problems": attempts.problems,
    }))
    return {
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    }


def run_all(workloads, seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in both modes, one result line each; 1 unless all are correct.

    Each workload and mode runs in a fresh process of its own, so its peak
    memory and its heap owe nothing to the ones before it. ``run_benchmark``
    refuses to report a metric set other than the one ``BENCHMARK.json``
    declares, so finishing here means every metric was printed with its unit.
    """
    correct = True
    for name in workloads:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"bench: {name} --trace {trace} exited with {done.returncode}",
                      file=sys.stderr)
                correct = False
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            print(json.dumps({"workload": name, "trace": trace, **result}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes; check metrics and units"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_tribefs()
    from workloads import SMOKE, WORKLOADS

    workloads = SMOKE if args.smoke else WORKLOADS
    if args.setup_probe:
        print(setup_probe(workloads, args.workload, args.seed))
        return 0
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload == "all" or (args.smoke and args.workload is None):
        return run_all(workloads, args.seed, seconds, args.smoke)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    result = run_benchmark(
        workloads, args.workload, args.seed, seconds, args.trace, args.smoke
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
