"""wandset benchmark: three desk-scale jobs timed end to end, plus a traced run.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from anywhere; it finds the package at ``src/`` next to this
directory and exits with code 2 when that is missing.  Each job runs in a
fresh process (``job.py``), one at a time, in a closed loop with one client:
the next job starts when the previous one has exited.  Jobs repeat while the
next one, as long as the longest so far, would end within ``--seconds`` of
measuring (at least one job; a job is never cut).

Workloads (why each exists is recorded in BENCHMARK.json):

* ``verify-church3``: build church:2 depth 3, ``verify --suite all``, then
  three seeded batches of random sentences through ``translate --dst``.
* ``laws-church4``: build church:2 depth 4, ``verify --suite core`` and
  ``verify --suite church``.
* ``encode-conway5``: build conway depth 5, labelled DOT export, reload,
  ``gen_stages``, ``conch_code`` of every object, ``deep_carrier`` of every
  eighth rank-<=4 pure set.

The seed only changes the sentence batches of ``verify-church3``; the other
two workloads are fixed by spec and depth.

With ``--trace 0`` the result carries the end-to-end metrics: ``setup_s``
(median over several fresh processes of interpreter start to ``wandset.cli``
and ``wandset.instances`` imported), ``job_s`` (median wall time of a job,
set-up and checks excluded) and ``peak_rss_mb`` (median peak resident memory
of a job process).  With ``--trace 1`` the untraced jobs are followed by one
traced job and the result carries the per-module metrics of ``tracer.py``.
Checks of every job are counted in ``attempted`` and ``failed``.  The last
line of standard output is the JSON result; a record of the run, with its
metadata, goes to ``.perfbench_out/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
WORKLOADS = ("verify-church3", "laws-church4", "encode-conway5")
SETUP_REPEATS = 6     # set-up-only processes per run, besides each job's own
RUN_BUDGET_S = 150    # no job starts that could end a run past this
JOB_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

import reference  # noqa: E402  (this directory is on sys.path)


class BenchError(Exception):
    pass


def _spawn(args: list, timeout: float):
    """Start job.py; returns (set-up seconds, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(JOB), "--root", str(ROOT), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=JOB_ENV)
    killer = threading.Timer(max(1.0, timeout), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if time.perf_counter() - t0 >= timeout:
        raise BenchError(f"job {args} ran past {timeout:.0f} s")
    if ready.strip() != "ready":
        raise BenchError(f"job {args} did not start (exit {code})")
    return setup, code


def _write_inputs(workload: str, seed: int, work: Path) -> None:
    if workload != "verify-church3":
        return
    from wandset import formula

    for i, (translation, sig) in enumerate(reference.SENTENCE_BATCHES):
        batch = formula.random_sentences(sig, reference.SENTENCES_PER_BATCH,
                                         seed=seed * len(reference.SENTENCE_BATCHES) + i)
        with open(work / f"{translation}.sent", "w", encoding="utf-8") as fh:
            for name, f in batch:
                fh.write(f"{name}: {formula.render(f)}\n")


def _run_job(workload: str, work: Path, out: Path, trace: Path | None, timeout: float):
    args = ["--workload", workload, "--work", str(work), "--out", str(out)]
    if trace is not None:
        args += ["--trace", str(trace)]
    setup, code = _spawn(args, timeout)
    if code != 0 or not out.exists():
        raise BenchError(f"{workload} job exited {code}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    out.unlink()
    result["setup_s"] = setup
    return result


def _tail(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _describe(name: str, unit: str, values: list) -> str:
    med = statistics.median(values)
    tail = _tail(values)
    extra = (f", p{tail[0]:.0f} {tail[1]:.4f}" if tail
             else ", no tail percentile under 11 samples")
    return f"  {name:<12} {med:12.4f} {unit:<6} median of {len(values)}{extra}"


def _metadata() -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = "unknown"
    try:
        got = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, _, head = got.stdout.strip().partition("\n")
        if got.returncode == 0 and Path(top).resolve() == ROOT:
            revision = head
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run: set-up samples, jobs for ``seconds``, then the traced job."""
    started = time.perf_counter()
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _write_inputs(workload, seed, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            setup, code = _spawn(["--setup-only"], 60)
            if code != 0:
                raise BenchError(f"set-up process exited {code}")
            setups.append(setup)

        jobs = []
        measured = time.perf_counter()
        while True:
            used = time.perf_counter() - started
            longest = max((j["wall"] for j in jobs), default=0.0)
            if jobs and (time.perf_counter() - measured + longest > seconds
                         or used + longest > RUN_BUDGET_S):
                break
            t0 = time.perf_counter()
            result = _run_job(workload, work, work / "result.json", None,
                              RUN_BUDGET_S + 20 - used)
            result["wall"] = time.perf_counter() - t0
            jobs.append(result)
        setups += [j["setup_s"] for j in jobs]

        traced = None
        if trace:
            spans = out_dir / "traces" / f"{workload}-seed{seed}-{os.getpid()}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = _run_job(workload, work, work / "result.json", spans,
                              175 - (time.perf_counter() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = jobs + ([traced] if traced else [])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metadata": _metadata(),
        "setup_s": setups,
        "job_s": [j["job_s"] for j in jobs],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
        "steps": [j["steps"] for j in everything],
        "attempted": sum(j["attempted"] for j in everything),
        "failed": sum(j["failed"] for j in everything),
        "failures": sorted({f for j in everything for f in j["failures"]}),
    }
    untraced_job_s = statistics.median(record["job_s"])
    if traced:
        per_layer = dict(traced["trace"])
        per_layer["cli.bytes_written"] = traced["bytes_written"]
        per_layer["suites.rows"] = traced["suite_rows"]
        per_layer["suites.rows_failed"] = traced["suite_rows_failed"]
        per_layer["trace.overhead"] = traced["job_s"] / untraced_job_s
        record["traced_job_s"] = traced["job_s"]
        record["per_layer"] = per_layer
    record["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "job_s": untraced_job_s,
        "peak_rss_mb": statistics.median(record["peak_rss_mb"]),
    }
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    with open(runs / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(rec: dict) -> None:
    meta = rec["metadata"]
    print(f"{rec['workload']} seed {rec['seed']}: revision {meta['git_revision']}, "
          f"python {meta['python']}, nproc {meta['nproc']}, src {meta['src_lines']} lines")
    print(_describe("setup_s", "s", rec["setup_s"]))
    print(_describe("job_s", "s", rec["job_s"]))
    print(_describe("peak_rss_mb", "MB", rec["peak_rss_mb"]))
    print(f"  checks_failed/checks_attempted {rec['failed']}/{rec['attempted']}")
    for failure in rec["failures"][:20]:
        print(f"    FAILED {failure}")
    steps = rec["steps"][0]
    print("  steps: " + ", ".join(f"{k} {v:.2f} s" for k, v in steps.items()))
    if "per_layer" in rec:
        print(f"  traced job_s {rec['traced_job_s']:.4f} s")
        by_module: dict = {}
        for k, v in rec["per_layer"].items():
            if k.endswith(".self_s"):
                module = k.split(".", 1)[0]
                by_module[module] = by_module.get(module, 0.0) + v
        ranked = sorted(by_module.items(), key=lambda kv: -kv[1])
        print("  self time by module: "
              + ", ".join(f"{m} {v:.2f} s" for m, v in ranked))
        print(f"  trace.overhead {rec['per_layer']['trace.overhead']:.3f}, "
              f"trace.coverage {rec['per_layer']['trace.coverage']:.3f}")


def _metrics(rec: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": _unit(k)} for k, v in rec["per_layer"].items()}
    units = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units[k]} for k, v in rec["end_to_end"].items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("per_equiv", "found_ratio", "overhead", "coverage")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "wandset" / "cli.py").is_file():
        print(f"no wandset package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        _print_record(rec)
    if len(records) == 1:
        metrics = _metrics(records[0], bool(args.trace))
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in _metrics(r, bool(args.trace)).items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
