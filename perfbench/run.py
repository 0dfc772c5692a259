"""Benchmark of the quasipot CLI: time to an oracle-checked rate function.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload escape-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run generates the workload's specs from ``--seed``, measures the set-up
cost in fresh interpreters, then calls ``quasipot.cli.main`` in this process
(closed loop, one invocation sequence at a time) until ``--seconds`` is
spent, at least once.  Every pass is checked against the workload's oracle
and for byte-identical artifacts.  With ``--trace 1`` the run makes one
untraced and one traced pass and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints a PASS/FAIL line each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Solve, check_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 3

SETUP_CODE = (
    "import json, sys\n"
    "import quasipot\n"
    "from quasipot.pipeline import parse_problem_spec\n"
    "with open(sys.argv[1]) as f:\n"
    "    parse_problem_spec(json.load(f)).build_model()\n"
)

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "max_abs_err": "1",
    "fail_frac": "ratio",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    """Hash of the package sources, so artifact digests are per code version."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _artifact_digest(outs, invocations) -> str:
    h = hashlib.sha256()
    for i, (out, inv) in enumerate(zip(outs, invocations)):
        for name in inv.artifacts:
            h.update(f"{i}/{name}\0".encode())
            h.update((out / name).read_bytes())
    return h.hexdigest()


def _time_setup(spec_path: Path) -> tuple[list[float], list[bool]]:
    """Wall times and exit checks of fresh interpreters that import, parse and build."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ok = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(spec_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        ok.append(done.returncode == 0)
        sys.stderr.write(done.stderr.decode(errors="replace"))
    return times, ok


@dataclass
class Pass:
    """One invocation sequence of a workload: times, exit codes, solves seen."""

    wall: float = 0.0
    cpu: float = 0.0
    exit_codes: list[int] = field(default_factory=list)
    solves: list[Solve] = field(default_factory=list)


def _run_pass(invocations, spec_paths, workdir: Path, label: str, tracer=None) -> tuple[Pass, list[Path]]:
    """Call ``cli.main`` for each invocation; time from spec parsed to artifacts written."""
    import quasipot.cli
    import quasipot.pipeline

    result = Pass()
    marks: dict[str, float] = {}
    parse = quasipot.cli.parse_problem_spec
    solve = quasipot.pipeline.quasipotential

    def parsed(raw):
        spec = parse(raw)
        marks["wall"], marks["cpu"] = time.perf_counter(), time.process_time()
        return spec

    def logged(model, attractor, target, *args, **kwargs):
        out = solve(model, attractor, target, *args, **kwargs)
        source = tuple(float(v) for v in attractor)
        result.solves.append(Solve(source, tuple(float(v) for v in target), out.value, out.converged))
        return out

    outs = []
    quasipot.cli.parse_problem_spec, quasipot.pipeline.quasipotential = parsed, logged
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            for i, (inv, spec_path) in enumerate(zip(invocations, spec_paths)):
                out = workdir / f"{label}-{i}-{inv.command}"
                outs.append(out)
                argv = [inv.command, "--spec", str(spec_path), "--out", str(out), "--threads", str(inv.threads)]
                marks.clear()
                with tracer.command(f"{label}-{i}", inv.command) if tracer else contextlib.nullcontext():
                    try:
                        code = quasipot.cli.main(argv)
                    except Exception:
                        traceback.print_exc()
                        code = -1
                end_wall, end_cpu = time.perf_counter(), time.process_time()
                result.exit_codes.append(code)
                if marks:
                    result.wall += end_wall - marks["wall"]
                    result.cpu += end_cpu - marks["cpu"]
    finally:
        quasipot.cli.parse_problem_spec, quasipot.pipeline.quasipotential = parse, solve
    return result, outs


def _check(workload, invocations, run: Pass, outs, reference: str | None, checks: list) -> tuple[float, str | None]:
    """Append this pass's checks; return its max_abs_err and artifact digest."""
    for inv, code in zip(invocations, run.exit_codes):
        checks.append((f"{inv.command}.exit_0", code == 0))
    try:
        verdict = check_pass(workload, invocations, outs, run.solves)
        digest = _artifact_digest(outs, invocations)
    except (OSError, ValueError, KeyError, IndexError):
        # missing or malformed artifacts: the oracle checks fail, never skip
        traceback.print_exc()
        checks.append(("oracle", False))
        return math.inf, None
    checks.extend(verdict.checks)
    if reference is not None:
        checks.append(("artifacts_byte_identical", digest == reference))
    return verdict.max_abs_err, digest


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing

    workload = WORKLOADS[name]
    invocations = workload.invocations(seed, ROOT)
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec_paths = []
    for i, inv in enumerate(invocations):
        path = workdir / f"spec{i}.json"
        path.write_text(json.dumps(inv.spec, indent=1))
        spec_paths.append(path)

    # Artifacts of one seed must repeat byte for byte: within this run, and
    # across runs of the same sources and specs (digests kept in OUT).
    key = hashlib.sha256((_source_digest() + repr(invocations)).encode()).hexdigest()[:32]
    digest_file = OUT / "digests" / f"{name}-{key}"
    reference = digest_file.read_text() if digest_file.exists() else None

    checks: list[tuple[str, bool]] = []
    try:
        setup_times, setup_ok = _time_setup(spec_paths[0])
        checks += [("setup.exit_0", ok) for ok in setup_ok]

        passes, errors = [], []
        start = time.perf_counter()
        while True:
            run, outs = _run_pass(invocations, spec_paths, workdir, f"pass{len(passes)}")
            err, digest = _check(workload, invocations, run, outs, reference, checks)
            reference = reference or digest
            passes.append(run)
            errors.append(err)
            elapsed = time.perf_counter() - start
            # stop when the next pass would overrun the measuring time
            if trace or elapsed + elapsed / len(passes) > seconds:
                break

        if trace:
            tracer = tracing.Tracer()
            traced, outs = _run_pass(invocations, spec_paths, workdir, "traced", tracer)
            _check(workload, invocations, traced, outs, reference, checks)
            metrics = tracing.layer_metrics(tracer, traced.wall, passes[0].wall)
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        else:
            attempted = sum(len(p.solves) for p in passes)
            unconverged = sum(not s.converged for p in passes for s in p.solves)
            walls = ", ".join(f"{p.wall:.2f}" for p in passes)
            print(f"{name}: pass wall times [{walls}] s, {unconverged} of {attempted} solves unconverged")
            metrics = {
                "wall_s": statistics.median(p.wall for p in passes),
                "setup_s": statistics.median(setup_times),
                "cpu_s": statistics.median(p.cpu for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "max_abs_err": max(errors),
                # add-one smoothing keeps the fraction off 0 (and 1), so a
                # ratio against the parent's median is always defined
                "fail_frac": (unconverged + 1) / (attempted + 2),
            }
            metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        if reference is not None and all(ok for _, ok in checks):
            digest_file.parent.mkdir(parents=True, exist_ok=True)
            digest_file.write_text(reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c, ok in checks if not ok]
    for check in failed:
        print(f"{name}: check failed: {check}")
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value!r} {unit}")
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        # JSON has no infinity; an unpriceable error is already a failed check
        "metrics": {
            k: {"value": v if math.isfinite(v) else sys.float_info.max, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    verdicts = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        ok = done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        verdicts.append(f"{'PASS' if ok else 'FAIL'} {name}")
    print("\n".join(verdicts))
    return 0 if all(v.startswith("PASS") for v in verdicts) else 1


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "quasipot" / "__init__.py").is_file():
        print(f"no package sources under {SRC}; run from the root of a quasipot checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
