"""Which scipy modules each route loads, measured in fresh interpreters.

``import quasipot`` needs numpy alone; scipy is imported by the functions
that call it: the 1-D quadrature (``scipy.integrate``, ``scipy.optimize``),
the gMAM step and matrix exponentials larger than ``1 x 1``
(``scipy.linalg``) and ``minimize_action`` (``scipy.optimize``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPECS = sorted((REPO / "specs").glob("*.json"))

#: Runs each command of ``sys.argv[1]`` (a JSON list of argument lists) through
#: ``cli.main`` and prints, as JSON, the exit code and the scipy modules
#: loaded after each one; the first entry is after the imports alone.
_PROBE = """
import json, sys
import quasipot, quasipot.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = [[None, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    steps.append([quasipot.cli.main(argv), scipy_modules()])
print(json.dumps(steps))
"""


def probe(commands, tmp_path):
    argvs = [
        [command, "--spec", str(spec), "--out", str(tmp_path / f"{command}-{spec.stem}")]
        for command, spec in commands
    ]
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        check=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_attractors_and_1d_linear_load_no_scipy(tmp_path):
    commands = [("attractors", spec) for spec in SPECS]
    commands += [("linear", REPO / "specs" / name) for name in ("double_well.json", "ou1d.json")]
    steps = probe(commands, tmp_path)
    assert steps[0] == [None, []], "import quasipot, quasipot.cli"
    for (command, spec), (code, loaded) in zip(commands, steps[1:]):
        assert code == 0, f"{command} {spec.name}"
        assert loaded == [], f"{command} {spec.name} loaded {loaded}"


def test_rates_on_a_2d_linear_drift_without_jumps_loads_no_scipy(tmp_path):
    # the convex dual's Gramian is the Lyapunov solve: no flow quadrature, no expm
    [_, (code, loaded)] = probe([("rates", REPO / "specs" / "nonnormal2d.json")], tmp_path)
    assert code == 0
    assert loaded == []
