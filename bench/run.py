"""Benchmark of the minksimplex command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
`src/` and exits with code 2, printing no result, when that is missing.

One process, one client, closed loop: each request is one
`minksimplex.cli.main([...])` call on a scene file generated from the
seed (see workloads.py), and the next request starts when the previous
one has written its document.  Every output is checked (checks.py).

--trace 0 makes passes over the workload's run list (its first blocks,
at least 200 requests): at least three, more when S allows.  A
request's latency runs from the call to `cli.main` until its document
is written.  Throughput is requests per second of latency, and set-up
is the median wall time of fresh interpreters that import the CLI and
parse every distinct ball of the workload.

On a shared host other tenants change the speed of everything by up to
1.9x, in phases from a fraction of a second to minutes, so the share of
fast time differs between runs, and neither the best nor the median of
a few passes gives the same figure twice.  Every timed span is therefore
bracketed by a fixed pure-Python probe loop and rescaled to the speed at
which the probe takes PROBE_REFERENCE_S (see `at_reference_speed`); a
request's latency is the least of its rescaled times over the passes.
The host's own probe time is printed with the environment.

--trace 1 runs the workload's trace list (fewer of its first blocks)
once untraced and once traced (tracing.py), and reports the per-layer
metrics; the spans are written to .bench_out/.  The list does not
depend on S, so two traced runs on one seed make the same calls.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
environment.  CPUs and the clock rate are not pinned, so figures carry
that noise.

    python3 bench/run.py --record-fingerprints 0-19

rewrites fingerprints.json, the reference hashes of the exact-lane
documents of the fixed request lists.  Record it only when the
workload generators change, never to absorb a change of the program.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads
from tracing import Tracer, ratio

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FINGERPRINTS = BENCH / "fingerprints.json"
SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_LOOPS = 5000
# The probe's usual time on a shared 2-vCPU Xeon VM under CPython 3.11.7,
# where its fast phases give 0.27 ms: the figures read as wall times at
# that usual speed.
PROBE_REFERENCE_S = 0.0004

E2E_UNITS = {
    "throughput_rps": "1/s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# run after the source of `probe`, so the probes time the child's own CPU
_SETUP_CHILD = """
import json, sys
before = probe()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minksimplex.cli
from minksimplex import scene
t1 = time.perf_counter()
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        scene.parse_scene(fh.read())
t2 = time.perf_counter()
after = probe()
print(json.dumps({"import_s": t1 - t0, "balls_s": t2 - t1, "before": before, "after": after}))
"""


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """The CLI module of this checkout, never an installed copy."""
    if not (SRC / "minksimplex" / "cli.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import minksimplex.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "minksimplex").resolve():
        raise ProgramMissing(f"imported {cli.__file__}, not the checkout's source")
    return cli


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(wall: float, before: float, after: float) -> float:
    """A wall time rescaled by the probes taken just before and after it."""
    return wall * PROBE_REFERENCE_S / ((before + after) / 2)


def environment(seed: int) -> dict:
    from minksimplex import scalars

    return {
        "interpreter": f"{sys.implementation.name} {sys.version.split()[0]}",
        "rat_backend": scalars.RAT_BACKEND,
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "seed": seed,
        "probe_s": statistics.median(probe() for _ in range(50)),
        "probe_reference_s": PROBE_REFERENCE_S,
        "note": "CPUs and the clock rate are not pinned; times are rescaled to probe_reference_s",
    }


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- set-up -------------------------------------------------------------------


def measure_setup(balls, workdir: Path, repeats: int = SETUP_REPEATS) -> dict:
    """Median wall time of fresh interpreters that import the CLI and
    parse each distinct ball, and the medians of those two phases, all
    at the reference speed."""
    paths = []
    for k, ball in enumerate(balls):
        path = workdir / f"ball-{k}.json"
        path.write_text(json.dumps({"dimension": ball.dim, "ball": ball.scene_ball}))
        paths.append(str(path))
    child = f"import time\nPROBE_LOOPS = {PROBE_LOOPS}\n{inspect.getsource(probe)}{_SETUP_CHILD}"
    walls, phases = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", child, str(SRC), *paths],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        before, after = out["before"], out["after"]
        walls.append(at_reference_speed(wall - before - after, before, after))
        phases.append({k: at_reference_speed(out[k], before, after)
                       for k in ("import_s", "balls_s")})
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(p["import_s"] for p in phases),
        "setup.balls_s": statistics.median(p["balls_s"] for p in phases),
    }


# -- requests -----------------------------------------------------------------


class Session:
    """Runs requests through `cli.main` and keeps the tallies."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.scene_path = workdir / "scene.json"
        self.out_path = workdir / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def execute(self, req) -> tuple:
        """(latency in s, exit code, output text or None)."""
        self.scene_path.write_text(json.dumps(req.scene()))
        flag = "--svg" if req.command == "render" else "--out"
        argv = [req.command, "--in", str(self.scene_path), flag, str(self.out_path), *req.extra]
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the request failed; count it and go on
            code = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        text = None
        if self.out_path.exists():
            text = self.out_path.read_text(encoding="utf-8")
            self.out_path.unlink()
        return latency, code, text

    def record(self, req, code, text) -> None:
        """Check one request's outcome and count it."""
        self.attempted += 1
        problems = checks.check(req, code, text)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"command": req.command, "ball": req.ball.name,
                                      "problems": problems})

    def run(self, req) -> tuple:
        """Execute and check one request; (latency, output text)."""
        latency, code, text = self.execute(req)
        self.record(req, code, text)
        return latency, text

    def warm_up(self, block) -> None:
        """One untimed, uncounted request per command."""
        seen = set()
        for req in block:
            if req.command not in seen:
                seen.add(req.command)
                self.execute(req)


def doc_hash(req, text):
    """sha256 of an exact-lane JSON document without its version line."""
    if text is None or req.ball.lane != workloads.EXACT or req.command == "render":
        return None
    body = "".join(line for line in text.splitlines(True) if not line.startswith('  "version": '))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def timed_run(session: Session, workload, seed: int, seconds: float) -> dict:
    """Passes over the run list, as many as `seconds` holds by the
    workload's nominal pass time and at least three; a request's latency
    is its least over the passes, which lie seconds apart, each rescaled
    to the reference speed."""
    reqs = workload.requests(seed, workload.run_blocks)
    session.warm_up(reqs)
    best = [math.inf] * len(reqs)
    for _ in range(max(MIN_PASSES, round(seconds / workload.pass_seconds))):
        for i, req in enumerate(reqs):
            before = probe()
            latency, code, text = session.execute(req)
            after = probe()
            session.record(req, code, text)
            best[i] = min(best[i], at_reference_speed(latency, before, after))
    return {
        "throughput_rps": len(best) / sum(best),
        "req_p50_ms": 1000 * statistics.median(best),
        "req_p95_ms": 1000 * statistics.quantiles(best, n=20)[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(session: Session, reqs) -> tuple:
    """Run the requests with tracing on; (tracer, wall time in s)."""
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for k, req in enumerate(reqs):
            tracer.request_id = k
            session.run(req)
        return tracer, time.perf_counter() - t0
    finally:
        tracer.uninstall()


def traced_run(session: Session, workload, seed: int, trace_path: Path, env: dict) -> dict:
    reqs = workload.requests(seed, workload.trace_blocks)
    session.warm_up(reqs)
    hashes, trials, trial_time = [], 0, 0.0
    t0 = time.perf_counter()
    for req in reqs:
        latency, text = session.run(req)
        hashes.append(doc_hash(req, text))
        if req.trials:
            trials += req.trials
            trial_time += latency
    untraced = time.perf_counter() - t0
    tracer, traced = traced_pass(session, reqs)
    tracer.dump(trace_path, {"env": env, "workload": workload.name})

    metrics = tracer.layer_metrics()
    metrics.update(ratio("trace.overhead_ratio", traced, untraced))
    metrics["trials_per_s"] = trials / trial_time if trial_time else 0.0
    reference = _load_fingerprints().get(f"{workload.name}:{seed}")
    pairs = [(h, r) for h, r in zip(hashes, reference or []) if h is not None or r is not None]
    metrics["docs_compared"] = len(pairs)
    metrics["docs_changed"] = sum(h != r for h, r in pairs)
    return metrics


def _load_fingerprints() -> dict:
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text())


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name == "trials_per_s":
        return "trials/s"
    if name.startswith("trace.overhead_ratio."):
        return "s"
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith((".calls", ".num", ".den")) or name.startswith("docs_"):
        return "count"
    return "ratio"


# -- entry points ---------------------------------------------------------------


def record_fingerprints(seeds) -> None:
    cli = load_cli()
    table = _load_fingerprints()
    with tempfile.TemporaryDirectory(dir=out_dir()) as tmp:
        session = Session(cli, Path(tmp))
        for name, workload in workloads.WORKLOADS.items():
            if name == "pnorm-queries":
                continue
            for seed in seeds:
                reqs = workload.requests(seed, workload.trace_blocks)
                table[f"{name}:{seed}"] = [doc_hash(r, session.run(r)[1]) for r in reqs]
                print(f"{name} seed {seed}: {session.failed} failed so far", file=sys.stderr)
    FINGERPRINTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", metavar="LO-HI", type=_seed_range)
    args = parser.parse_args(argv)
    if args.record_fingerprints is not None:
        record_fingerprints(args.record_fingerprints)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        cli = load_cli()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    with tempfile.TemporaryDirectory(dir=out_dir()) as tmp:
        workdir = Path(tmp)
        setup = measure_setup(workload.balls(args.seed), workdir)
        session = Session(cli, workdir)
        if args.trace:
            trace_path = OUT / f"trace-{workload.name}-{args.seed}.json"
            metrics = traced_run(session, workload, args.seed, trace_path, env)
            metrics["setup.import_s"] = setup["setup.import_s"]
            metrics["setup.balls_s"] = setup["setup.balls_s"]
            metrics["fail_ratio"] = session.failed / session.attempted
        else:
            metrics = timed_run(session, workload, args.seed, args.seconds)
            metrics["setup_s"] = setup["setup_s"]
    if session.problems:
        print(json.dumps({"problems": session.problems}), file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
