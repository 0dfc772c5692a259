"""The names and CLI options that the benchmark in ``perfbench/`` calls.

perfbench wraps package attributes by name and drives the CLI with fixed
argv, so renaming or deleting one of them breaks the benchmark, not the
package's own tests.  These tests import the benchmark's tracer and
workloads as they are and check every name and invocation they use.
"""

from pathlib import Path

import pytest

from quasipot import action, cli, pipeline
from quasipot.models import LocalModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``tracing`` and ``workloads`` modules, imported from its directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import tracing
        import workloads

        yield tracing, workloads


def test_traced_names_exist(perfbench):
    tracing, _ = perfbench
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracing._TIMED if not hasattr(mod, attr)]
    missing += [
        f"LocalModel.{name}" for name in tracing._COUNTED if not callable(getattr(LocalModel, name, None))
    ]
    for obj, attr in (
        (action, "minimize_action"),
        (pipeline, "stable_attractors"),
        (pipeline, "simulate"),
        (pipeline, "quasipotential"),
        (cli, "parse_problem_spec"),
        (pipeline.ProblemSpec, "build_model"),
    ):
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{obj.__name__}.{attr}")
    assert not missing


def test_workload_invocations_parse(perfbench, tmp_path):
    _, workloads = perfbench
    parser = cli._build_parser()
    for workload in workloads.WORKLOADS.values():
        for inv in workload.invocations(1, PERFBENCH.parent):
            cli.parse_problem_spec(inv.spec).build_model()
            # the argv that perfbench/run.py passes to quasipot.cli.main
            argv = [inv.command, "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out")]
            args = parser.parse_args(argv + ["--threads", str(inv.threads)])
            assert (args.command, args.threads) == (inv.command, inv.threads)
