"""One benchmark job, run in a fresh process the way a user runs the CLI.

``run.py`` starts this script once per job.  It imports the package, prints
``ready`` (the parent times set-up up to that line), runs the workload's steps
to their final verdict, checks every output against the references in
``reference.py`` and writes a JSON result file.  Only the steps are timed;
checks run between them, untimed and untraced.

    python3 perfbench/job.py --root . --workload laws-church4 --work DIR \
        --out result.json [--trace spans.json]
    python3 perfbench/job.py --root . --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _import_package(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    from wandset import cli, instances  # noqa: F401  (set-up ends here)


class Job:
    """Times steps, records checks, and captures CLI output."""

    def __init__(self, work: str, rec=None):
        self.work = work
        self.rec = rec
        self.steps: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.bytes_written = 0
        self.rows = 0
        self.rows_failed = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def step(self, name: str, fn, *args):
        if self.rec is not None:
            self.rec.active = True
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.steps[name] = self.steps.get(name, 0.0) + time.perf_counter() - t0
            if self.rec is not None:
                self.rec.active = False

    def cli(self, name: str, argv: list):
        """Run one CLI command in-process, check it exits 0; returns its stdout."""
        from wandset import cli

        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)

        code = self.step(name, call)
        self.check(f"{name}: exit 0", code == 0, f"exit {code}: {err.getvalue()[-300:]}")
        return out.getvalue()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} :: {detail}")

    def digest(self, name: str, filename: str, want: str) -> None:
        h = hashlib.sha256()
        size = 0
        with open(self.path(filename), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                size += len(chunk)
        self.bytes_written += size
        self.check(f"{name}: {filename} digest", h.hexdigest() == want, h.hexdigest())

    def suite_rows(self, name: str, text: str, want: dict) -> None:
        """Every reference row present and PASS; extra rows must pass too."""
        got: dict = {}
        suite = None
        for line in text.splitlines():
            if line.startswith("# suite "):
                suite = line[len("# suite "):]
                got.setdefault(suite, {})
            elif line.startswith(("PASS ", "FAIL ")):
                row = line[5:].split(" :: ", 1)[0]
                got.setdefault(suite, {})[row] = line.startswith("PASS")
                self.rows += 1
                self.rows_failed += not line.startswith("PASS")
        for suite, rows in want.items():
            have = got.get(suite, {})
            for row in rows:
                self.check(f"{name}: {suite}/{row}", have.get(row) is True,
                           "missing" if row not in have else "FAIL")
        for suite, have in got.items():
            for row, ok in have.items():
                if row not in want.get(suite, ()):
                    self.check(f"{name}: extra row {suite}/{row}", ok, "FAIL")


# -- workloads -----------------------------------------------------------------

def verify_church3(job: Job) -> None:
    from reference import CENSUS_CHURCH3, DIGESTS, ROWS_VERIFY_CHURCH3, SENTENCE_BATCHES

    out = job.cli("build", ["build", "--spec", "church:2", "--depth", "3",
                            "--out", job.path("church3.json")])
    counts = [int(line.split()[2]) for line in out.splitlines()
              if line.startswith("stage ")]
    job.check("build: census", counts == CENSUS_CHURCH3, str(counts))
    job.digest("build", "church3.json", DIGESTS["church3.json"])

    out = job.cli("verify", ["verify", "--suite", "all",
                             "--in", job.path("church3.json")])
    job.suite_rows("verify", out, ROWS_VERIFY_CHURCH3)

    for translation, _sig in SENTENCE_BATCHES:
        sent = job.path(f"{translation}.sent")
        with open(sent, encoding="utf-8") as fh:
            expected = sum(1 for line in fh if line.strip())
        out = job.cli(f"translate-{translation}",
                      ["translate", "--formula", sent, "--translation", translation,
                       "--src", job.path("church3.json"),
                       "--dst", job.path("church3.json")])
        lines = out.splitlines()
        preserved = sum(1 for line in lines if line.endswith(" preserved"))
        job.check(f"translate-{translation}: every sentence preserved",
                  len(lines) == expected and preserved == expected,
                  f"{preserved}/{len(lines)} of {expected}")


def laws_church4(job: Job) -> None:
    from reference import DIGESTS, OBJECTS_CHURCH4, ROWS_CORE_CHURCH4, ROWS_CHURCH_CHURCH4

    out = job.cli("build", ["build", "--spec", "church:2", "--depth", "4",
                            "--out", job.path("church4.json")])
    job.check("build: object count", f"total {OBJECTS_CHURCH4} objects" in out,
              out.splitlines()[-1:])
    job.digest("build", "church4.json", DIGESTS["church4.json"])
    out = job.cli("verify-core", ["verify", "--suite", "core",
                                  "--in", job.path("church4.json")])
    job.suite_rows("verify-core", out, ROWS_CORE_CHURCH4)
    out = job.cli("verify-church", ["verify", "--suite", "church",
                                    "--in", job.path("church4.json")])
    job.suite_rows("verify-church", out, ROWS_CHURCH_CHURCH4)


def encode_conway5(job: Job) -> None:
    from reference import DEEP_CARRIER_STRIDE, DIGESTS, OBJECTS_CONWAY5
    from wandset import cli, conch, pureset, universe

    out = job.cli("build", ["build", "--spec", "conway", "--depth", "5",
                            "--out", job.path("conway5.json")])
    job.check("build: object count", f"total {OBJECTS_CONWAY5} objects" in out,
              out.splitlines()[-1:])
    job.digest("build", "conway5.json", DIGESTS["conway5.json"])
    job.cli("export", ["export", "--labels", "--in", job.path("conway5.json"),
                       "--dot", job.path("conway5.dot")])
    job.digest("export", "conway5.dot", DIGESTS["conway5.dot"])

    def reload():
        with open(job.path("conway5.json"), encoding="utf-8") as fh:
            return cli.import_fragment(fh.read())

    frag = job.step("reload", reload)
    job.check("reload: object count", len(frag) == OBJECTS_CONWAY5, str(len(frag)))

    stages = job.step("gen-stages", conch.gen_stages, frag.spec, frag.depth)
    codes = job.step("conch-code", lambda: [conch.conch_code(frag, a) for a in frag.ids()])
    job.check("conch-code: recoded codes equal the last generated stage",
              frozenset(codes) == stages.stages[-1].conches
              and len(set(codes)) == len(codes))

    # The rank-<=4 pure sets in canonical order; every STRIDE-th is coded.
    pures = job.step("pure-sets", lambda: pureset.lt_levels(frag.depth + 1)[-1].elements)
    job.check("pure-sets: 65,536 of rank <= 4", len(pures) == 1 << 16, str(len(pures)))
    sample = pures[::DEEP_CARRIER_STRIDE]
    dcodes = job.step("deep-carrier", lambda: [pureset.deep_carrier(p) for p in sample])
    bad = 0
    for p, code in zip(sample, dcodes):
        oid = universe.encode_pure(frag, p)
        bad += oid is None or conch.conch_code(frag, oid) is not code
    job.check("deep-carrier: equals the conch code of the pure set's object",
              bad == 0, f"{bad} of {len(sample)} differ")


WORKLOADS = {
    "verify-church3": verify_church3,
    "laws-church4": laws_church4,
    "encode-conway5": encode_conway5,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--work")
    parser.add_argument("--out")
    parser.add_argument("--trace", help="write spans here and trace the job")
    args = parser.parse_args()

    _import_package(args.root)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)

    job = Job(args.work, rec)
    WORKLOADS[args.workload](job)
    job_s = sum(job.steps.values())
    result = {
        "job_s": job_s,
        "steps": job.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": job.attempted,
        "failed": len(job.failures),
        "failures": job.failures,
        "bytes_written": job.bytes_written,
        "suite_rows": job.rows,
        "suite_rows_failed": job.rows_failed,
    }
    if rec is not None:
        result["trace"] = rec.metrics()
        result["trace"]["trace.coverage"] = rec.top_ns / 1e9 / job_s
        rec.write(args.trace, {"workload": args.workload, "job_s": job_s})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
