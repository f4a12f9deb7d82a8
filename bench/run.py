"""nerprune benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid-synth --seed 1 --seconds 36 --trace 0

The workload's inputs are generated from the seed into a scratch
directory under the checkout before timing starts. The timed part is
repeated until --seconds have passed (at least once; twice when traced)
and every repetition's outputs go through the correctness gate. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A traced run alternates untraced
and traced repetitions, so the tracing cost is measured in the same run.
The full result, with an environment record, is written under
.bench_out/ together with the traced spans.

On a shared 2-vCPU VM the host's speed drifts by 20-40 % over minutes,
so raw wall times of runs made minutes apart spread wider than a useful
regression bound.
Each untraced timed part is therefore bracketed by a fixed reference
computation that does not call nerprune (run while the program is
idle), and the end-to-end times are reported in units of it:
wall_ref is the median over the run of wall time / reference time, and
tokens_per_ref the workload's stated token count / wall_ref, i.e. the
tokens processed in the time the reference takes. Raw wall_s and
reference_s medians are printed above the result line and recorded.
setup_s is the median raw set-up time in seconds.

--smoke shrinks every input to a few seconds of work (for the
benchmark's own test). --pin records the output digests of this seed
in digests.json instead of checking them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys

# one BLAS thread, set before numpy loads, so every workload runs on one
# core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
# every seed maps to one of this many input variants, each with pinned
# output digests, so any seed's outputs can be checked
N_VARIANTS = 16
# set-ups are spread over the run, one after each timed part, so that
# their median sees the same machine as the timed parts' median; a run
# with fewer timed parts tops them up to this many at its end
SETUP_REPS = 9
# no repetition starts once one more could end past this many seconds
HARD_CAP_S = 150.0
REQUIRED = ("src/nerprune/__init__.py", "tests/synth.py",
            "tests/data/reference/languages.csv")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--pin", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "commit": None,
        "dirty": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        env["commit"] = git("rev-parse", "HEAD") or None
        env["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def digest_key(env: dict) -> str:
    return f"numpy {env['numpy']} / {env['blas']} / blas_threads {env['blas_threads']}"


def median(values):
    return statistics.median(values) if values else 0.0


def reference_work() -> None:
    """A fixed computation of the kinds the workloads do, interpreter
    work over tuples and dicts and small numpy products, of about 0.1 s.
    It does not call nerprune, so its time tracks only how fast the
    shared machine runs at that moment."""
    import numpy as np

    counts: dict = {}
    for i in range(150000):
        key = (i % 1009, i % 17)
        counts[key] = counts.get(key, 0) + 1
    a = np.full((48, 48), 0.01)
    for _ in range(1500):
        a = np.tanh(a @ a + 0.01)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Measurement:
    """Samples of one run: timed parts (untraced and traced), the
    reference computation around each untraced one, set-ups, per-layer
    numbers of the traced repetitions and output digests."""

    def __init__(self):
        self.walls: list[float] = []
        self.refs: list[float] = []
        self.traced_walls: list[float] = []
        self.setups: list[float] = []
        self.layers: list[dict] = []
        self.digests: list[dict] = []


def measure(wl, args, gate, tracer, m: Measurement, started: float) -> None:
    from tracing import layer_metrics

    def timed_setup(roots=None, run_id=None):
        gc.collect()
        if roots is not None:
            roots.append(tracer.open("bench.setup", run_id=run_id))
        t0 = time.perf_counter()
        state = wl.setup()
        m.setups.append(time.perf_counter() - t0)
        if roots is not None:
            tracer.close(roots[-1])
        return state

    wl.prepare()
    time_reference()  # warm-up: numpy's first calls
    state = timed_setup() if wl.setup_first else None
    measuring = time.perf_counter()
    min_reps = 2 if args.trace else 1
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        tracing = tracer.installed if traced else contextlib.nullcontext
        roots = []
        gc.collect()
        ref = time_reference()
        with tracing(), wl.hooks():
            if traced:
                roots.append(tracer.open("bench.timed", run_id=f"iteration{i}"))
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            outputs = wl.timed(state, i)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if traced:
                tracer.close(roots[-1])
        ref = (ref + time_reference()) / 2
        m.digests.append(wl.check(outputs, gate))
        with tracing():
            state = timed_setup(roots if traced else None, f"iteration{i}")
        if traced:
            m.traced_walls.append(wall)
            m.layers.append(layer_metrics(tracer.spans, roots, wl.workers, cpu, wall))
        else:
            m.walls.append(wall)
            m.refs.append(ref)
        i += 1
        now = time.perf_counter()
        if i >= min_reps and now - measuring >= args.seconds:
            break
        if now - started + wall + (m.setups[-1] if m.setups else 0) > HARD_CAP_S:
            break
    while len(m.setups) < SETUP_REPS and time.perf_counter() - started < HARD_CAP_S - 10:
        timed_setup()


def run(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, Gate

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = environment()
    variant = args.seed % N_VARIANTS
    pin_name = args.workload + ("-smoke" if args.smoke else "")
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    pinned = pins.get(digest_key(env), {}).get(pin_name, {}).get(str(variant))

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    wl = WORKLOADS[args.workload](ROOT, work, variant, args.smoke)
    gate = Gate()
    tracer = Tracer()
    m = Measurement()
    try:
        measure(wl, args, gate, tracer, m, started)
    except Exception as exc:  # a crash of the program is a failed operation
        traceback.print_exc()
        gate.check("run.completed", False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    digests = m.digests[0] if m.digests else {}
    for k, d in enumerate(m.digests):
        gate.check(f"digest.repeat{k}", d == digests, "outputs differ between repetitions")
    if args.pin and m.digests and not gate.breaches:
        pins.setdefault(digest_key(env), {}).setdefault(pin_name, {})[str(variant)] = digests
        DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    elif pinned is None:
        print(f"note: no digest pinned for {pin_name} variant {variant} under "
              f"{digest_key(env)!r}; outputs are not compared with the reference",
              file=sys.stderr)
    else:
        for name, value in sorted(pinned.items()):
            got = digests.get(name)
            gate.check(f"digest.{name}", got == value,
                       f"{str(got)[:16]}... differs from the pinned {value[:16]}...")

    if args.trace:
        metrics = {name: {"value": median([layer[name] for layer in m.layers]),
                          "unit": metric_unit(name)}
                   for name in (m.layers[0] if m.layers else ())}
        base = median(m.walls)
        metrics["trace.overhead_pct"] = {
            "value": (median(m.traced_walls) - base) / base * 100 if base else 0.0,
            "unit": "%"}
    else:
        wall_ref = median([w / r for w, r in zip(m.walls, m.refs)])
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "x"},
            "setup_s": {"value": median(m.setups), "unit": "s"},
            "tokens_per_ref": {"value": wl.tokens / wall_ref if wall_ref else 0.0,
                               "unit": "tokens/ref"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    failed = len(gate.breaches)
    result = {
        "correct": failed == 0,
        "attempted": max(gate.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "inputs": wl.sizes, "tokens_per_iteration": wl.tokens,
        "samples": {"wall_s": m.walls, "reference_s": m.refs,
                    "traced_wall_s": m.traced_walls, "setup_s": m.setups},
        "failed_ratio": failed / result["attempted"],
        "breaches": gate.breaches, "digests": digests, "pinned": pinned,
        **result,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{pin_name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    if args.trace:
        tracer.write(out_dir / f"{stem}.spans.jsonl")

    print(json.dumps({"environment": env, "inputs": wl.sizes}, sort_keys=True))
    print(f"{args.workload}: {len(m.walls)} untraced and {len(m.traced_walls)} traced "
          f"repetitions, {len(m.setups)} set-ups")
    if m.walls:
        print(f"  wall_s = {median(m.walls):.6g} s, reference_s = {median(m.refs):.6g} s "
              f"(medians of the untraced repetitions)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_ratio = {record['failed_ratio']:.6g} "
          f"({failed} of {result['attempted']} checks)")
    for breach in gate.breaches:
        print(f"  BREACH {breach}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def metric_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name or name.endswith("_s_p50") or \
            name.endswith("_s_max"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_util"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a nerprune checkout: {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import nerprune

    if Path(nerprune.__file__).resolve().parent != (ROOT / "src" / "nerprune").resolve():
        print(f"imported nerprune from {nerprune.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
