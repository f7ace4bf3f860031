"""Certification benchmark for rigdens.

Usage (from the repository root):

    python3 perfbench/run.py --workload eq6-k8192 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all      # every workload, seed 0

Each certification runs ``rigdens.cli.run(RunConfig(...))`` with the CLI
defaults (workers=1, default nu and eps_num) in a fresh interpreter
(``worker.py``), imports excluded from its clock, and its artifacts are
checked (``checks.py``). Certifications repeat, one after the other (a
closed loop of one client), while the next one is expected to end within
``--seconds`` of the start.

--trace 0 reports the end-to-end metrics:
  certify_s    mean wall time of one cli.run call, map text to artifacts:
               the run's total cli.run time over its certifications. On a
               shared host the speed switches between states every ten to
               twenty seconds, so a run's median jumps between them while
               its mean averages them
  setup_s      median time from spawning a fresh interpreter to the end
               of its ``import rigdens`` (numpy and scipy included),
               sampled before each certification and three times at start
  peak_rss_mb  median peak RSS of the certifying process
  eps_rig      certified L1 / sup-norm bound from certificate.json
  lyap_width   lyap.hi - lyap.lo from certificate.json
failed_frac (failed / attempted certifications) is printed as well and is
carried by the "attempted" and "failed" keys of the result line.

--trace 1 alternates an untraced and a traced certification and reports
the per-layer metrics: self time per stage and per layer from spans that
``tracer.py`` records around each module call ``cli.run`` makes, counters
read off the calls' arguments and results, and the tracing overhead
(traced minus untraced certify_s). The enclosure.steps, .matvec_flops and
.dense_bytes figures are computed, not measured: they follow from k, the
matrix nnz and the returned n_eps, n_true and l under the sweep's current
schedule (see ``enclosure_counts``).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A copy of the result, with the
run context, every sample and the traced spans, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from checks import check_artifacts  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, draw_map  # noqa: E402

END_TO_END = {
    "certify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eps_rig": "1",
    "lyap_width": "nat",
}

# span name -> stage; a stage metric is "<stage>_s", its layer the prefix
STAGES = ("cli.parse", "maps.build", "maps.ly", "ulam.assemble",
          "ulam.markovize", "hatbasis.assemble", "enclosure.sweep",
          "certify.certify", "certify.lyap", "certify.report",
          "cli.emit_plot", "cli.artifacts")
SPAN_STAGE = {"cli.run": "cli.artifacts", "ulam.row": "ulam.assemble"}
LAYERS = ("cli", "maps", "ulam", "hatbasis", "enclosure", "certify")

# counters read off the calls; 0 where a workload's path skips the call
COUNTERS = {
    "maps.branches": "count",
    "ulam.eps": "1",
    "ulam.nnz": "count",
    "ulam.nnz_max": "count",
    "hatbasis.nnz": "count",
    "hatbasis.eps": "1",
    "hatbasis.lin_err": "1",
    "enclosure.rss_rise_mb": "MB",
    "enclosure.n_eps": "count",
    "enclosure.n_true": "count",
    "enclosure.l": "count",
    "certify.err_discretization": "1",
    "certify.err_matrix": "1",
    "certify.err_numeric": "1",
    "intervals.created": "count",
}

# derived from the matrix and the certificate, not measured
COMPUTED = ("enclosure.steps", "enclosure.matvec_flops", "enclosure.dense_bytes")

PER_LAYER = {
    **{f"{s}_s": "s" for s in STAGES},
    **{f"layer.{layer}_s": "s" for layer in LAYERS},
    "ulam.rows": "count",
    "ulam.row_s_p50": "s",
    "ulam.row_s_max": "s",
    **COUNTERS,
    "enclosure.steps": "count",
    "enclosure.matvec_flops": "flop",
    "enclosure.dense_bytes": "B",
    "trace.certify_s": "s",
    "trace.overhead_s": "s",
}

# summarised by the mean, every other metric by the median
MEAN_METRICS = {"certify_s"}

SETUP_FIRST = 3            # setup samples before the first certification
TIME_LIMIT_S = 170.0       # the whole run must end well within 180 s
SWEEP_J_MAX = 200          # contraction_sweep's default step cap
SWEEP_FIRST_STEPS = 16     # its first step budget, doubled until enough
SWEEP_BLOCK_ENTRIES = 1 << 24  # its dense anchor block, k * batch entries


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's src, a fixed hash seed,
    BLAS and OpenMP threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"   # the same string hashing in every run
    cap = nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        try:
            env[var] = str(min(cap, int(env[var])))
        except (KeyError, ValueError):
            env[var] = str(cap)
    return env


def run_context() -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# the child reads the system-wide monotonic clock once its import is done,
# so the parent's wait for the child to exit is not timed
_IMPORT = ("import time, rigdens; "
           "print(time.clock_gettime(time.CLOCK_MONOTONIC), rigdens.__file__)")


def time_import(env: Dict[str, str]) -> float:
    """Time from spawning a fresh interpreter to the end of its
    ``import rigdens``; checks that the import resolves to this
    checkout's src."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", _IMPORT], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    t_end, _, path = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or not path or \
            SRC.resolve() not in Path(path).resolve().parents:
        raise RuntimeError(f"cannot import rigdens from {SRC}: "
                           f"{proc.stderr.strip() or proc.stdout.strip()}")
    return float(t_end) - t0


@dataclass
class Outcome:
    """One certification: its measurements, certificate and problems."""

    problems: List[str] = field(default_factory=list)
    certify_s: float = 0.0
    peak_rss_mb: float = 0.0
    cert: Optional[dict] = None
    spans: Optional[list] = None
    layers: Optional[dict] = None      # layer_metrics of a traced run

    @property
    def ok(self) -> bool:
        return not self.problems


def run_worker(spec: dict, spec_path: Path, result_path: Path,
               env: Dict[str, str], timeout: float) -> Optional[dict]:
    """Run worker.py on spec; its result, or None with the error printed."""
    spec_path.parent.mkdir(parents=True, exist_ok=True)
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             str(result_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited with {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def certify_once(workload, param, text: str, trace: bool, call_dir: Path,
                 env: Dict[str, str], timeout: float) -> Outcome:
    out_dir = call_dir / "artifacts"
    spec = {"map_text": text, "mode": workload.mode, "k": workload.k,
            "out_dir": str(out_dir), "trace": trace, "src": str(SRC)}
    res = run_worker(spec, call_dir / "spec.json", call_dir / "result.json",
                     env, timeout)
    if res is None:
        return Outcome(problems=["worker failed"])
    if res["rc"] != 0:
        return Outcome(problems=[f"cli.run returned {res['rc']}"])
    exact = None if workload.exact_lyapunov is None else \
        workload.exact_lyapunov(param)
    problems = check_artifacts(out_dir, workload.mode, workload.k, exact)
    cert = layers = None
    if not problems:
        cert = json.loads((out_dir / "certificate.json").read_text())
    if trace and not problems:
        layers = layer_metrics(res["spans"], res["counters"])
        # every moment of the timed cli.run call belongs to some layer
        total = sum(layers[f"layer.{layer}_s"] for layer in LAYERS)
        if abs(total - res["certify_s"]) > 1e-3 + 1e-3 * res["certify_s"]:
            problems.append(f"layer self times sum to {total!r} s, the "
                            f"traced call took {res['certify_s']!r} s")
    return Outcome(problems=problems, certify_s=res["certify_s"],
                   peak_rss_mb=res["peak_rss_mb"], cert=cert,
                   spans=res["spans"], layers=layers)


def enclosure_counts(k: int, nnz: int, n_eps: int, n_true: int,
                     l: int) -> dict:
    """Computed sweep work: final step budget, matvec flops, anchor block.

    contraction_sweep iterates all k - 1 anchors for a step budget that
    starts at 16 and doubles (capped at 200) until n_eps, n_true and l all
    fit; each anchor step is one sparse product (2 * nnz flops), and the
    density iteration adds l more. The anchors are processed in dense
    blocks of batch x k doubles.
    """
    budgets = [min(SWEEP_J_MAX, SWEEP_FIRST_STEPS)]
    while budgets[-1] < max(n_eps, n_true, l) and budgets[-1] < SWEEP_J_MAX:
        budgets.append(min(SWEEP_J_MAX, 2 * budgets[-1]))
    batch = max(1, min(k - 1, SWEEP_BLOCK_ENTRIES // k))
    return {
        "enclosure.steps": budgets[-1],
        "enclosure.matvec_flops": 2 * nnz * ((k - 1) * sum(budgets) + l),
        "enclosure.dense_bytes": 8 * batch * k,
    }


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer metrics of one traced certification."""
    selfs = self_times(spans)
    stage = dict.fromkeys(STAGES, 0.0)
    for span, t in zip(spans, selfs):
        stage[SPAN_STAGE.get(span["name"], span["name"])] += t
    out = {f"{s}_s": t for s, t in stage.items()}
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = sum(t for s, t in stage.items()
                                      if s.split(".")[0] == layer)
    rows = [s["end"] - s["start"] for s in spans if s["name"] == "ulam.row"]
    out["ulam.rows"] = len(rows)
    out["ulam.row_s_p50"] = statistics.median(rows) if rows else 0.0
    out["ulam.row_s_max"] = max(rows, default=0.0)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    out.update(enclosure_counts(counters["enclosure.k"],
                                counters["enclosure.nnz"],
                                counters["enclosure.n_eps"],
                                counters["enclosure.n_true"],
                                counters["enclosure.l"]))
    roots = [s for s in spans if s["parent"] is None]
    out["trace.certify_s"] = sum(s["end"] - s["start"] for s in roots)
    return out


def _certificate_key(cert: dict) -> tuple:
    return (cert["eps_rig"], cert["lyap"]["lo"], cert["lyap"]["hi"])


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    """Measure one workload; returns the result object plus its samples."""
    workload = WORKLOADS[name]
    param, text = draw_map(workload, seed)
    env = child_env()
    run_dir = OUT / name
    run_dir.mkdir(parents=True, exist_ok=True)

    t_start = time.perf_counter()
    setup: List[float] = []
    if not trace:
        time_import(env)        # warms the bytecode cache; not counted
        setup = [time_import(env) for _ in range(SETUP_FIRST)]
    plain: List[Outcome] = []
    traced: List[Outcome] = []
    longest = 0.0
    while True:
        t_round = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            if not is_traced and not trace:
                # setup samples spread over the run, like the certifications
                setup.append(time_import(env))
            o = certify_once(workload, param, text, is_traced,
                             run_dir / f"call-{int(is_traced)}", env,
                             timeout=max(deadline - time.perf_counter(), 1.0))
            (traced if is_traced else plain).append(o)
        now = time.perf_counter()
        longest = max(longest, now - t_round)
        # a round starts only if it is expected to end within the seconds
        if now + longest - t_start > seconds or now + longest > deadline:
            break

    outcomes = plain + traced
    problems = [p for o in outcomes for p in o.problems]
    good = [o for o in outcomes if o.ok]
    failed = len(outcomes) - len(good)
    # the certificate is deterministic, traced or not
    if len({_certificate_key(o.cert) for o in good}) > 1:
        problems.append("certificate differs between repeated runs")
    good_plain = [o for o in plain if o.ok]
    good_traced = [o for o in traced if o.ok]

    samples: Dict[str, list] = {}
    metrics: Dict[str, dict] = {}
    if trace and good_plain and good_traced:
        samples = {m: [o.layers[m] for o in good_traced]
                   for m in PER_LAYER if m != "trace.overhead_s"}
        samples["trace.overhead_s"] = [
            o.certify_s - statistics.median(p.certify_s for p in good_plain)
            for o in good_traced]
        metrics = {m: _metric(statistics.median(samples[m]), PER_LAYER[m])
                   for m in PER_LAYER}
    elif not trace and good_plain:
        samples = {
            "certify_s": [o.certify_s for o in good_plain],
            "setup_s": setup,
            "peak_rss_mb": [o.peak_rss_mb for o in good_plain],
            "eps_rig": [o.cert["eps_rig"] for o in good_plain],
            "lyap_width": [o.cert["lyap"]["hi"] - o.cert["lyap"]["lo"]
                           for o in good_plain],
        }
        metrics = {m: _metric(_summary(m)(samples[m]), END_TO_END[m])
                   for m in END_TO_END}
    return {
        "workload": name, "seed": seed, "trace": int(trace), "map": text,
        "correct": not problems and bool(metrics),
        "attempted": len(outcomes), "failed": failed,
        "metrics": metrics, "samples": samples, "problems": problems,
        "spans": [o.spans for o in good_traced],
    }


def _summary(name: str):
    return statistics.fmean if name in MEAN_METRICS else statistics.median


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_summary(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']}")
    print(f"  map: {res['map']!r}")
    for name, m in res["metrics"].items():
        n = len(res["samples"].get(name, ()))
        note = ", computed" if name in COMPUTED else ""
        stat = "mean" if name in MEAN_METRICS else "median"
        print(f"  {name:<28} {m['value']!r} {m['unit']} ({stat} of n={n}{note})")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<28} {frac!r} ratio "
          f"({res['failed']} of {res['attempted']} certifications)")
    for p in res["problems"]:
        print(f"  problem: {p}")


def main(argv: Optional[List[str]] = None) -> int:
    t_begin = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "rigdens" / "__init__.py").is_file():
        print(f"error: no rigdens sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        context = run_context()
        print("context " + json.dumps(context))
        results = []
        for i, name in enumerate(names):
            # each workload gets TIME_LIMIT_S, counted from the start of
            # the process for the first
            deadline = (time.perf_counter() if i else t_begin) + TIME_LIMIT_S
            res = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), deadline)
            res["context"] = context
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(res, indent=1))
            print_summary(res)
            results.append(res)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not all(r["metrics"] for r in results):
        print("error: no certification succeeded", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results
                   for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
