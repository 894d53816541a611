"""``import repro`` loads only what every run needs.

scipy.stats, scipy.sparse and scipy.linalg each serve a few code paths (a
quantile now computed through scipy.special, chains of 500+ states, the
matrix exponential), so they are imported where they are called and never
on the import path or the common Monte Carlo and analytical paths.
networkx is optional: the same paths run without it, and only
``to_networkx`` refuses.  Each case runs in a fresh interpreter, since this
test process has long since imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that must stay out of ``sys.modules`` on the paths below.
DEFERRED = ("scipy.stats", "scipy.sparse", "scipy.linalg")

SNIPPETS = {
    "import_repro": "import repro",
    "import_cli": "import repro.cli",
    "monte_carlo_grid": (
        "from repro import paper_parameters, sweep_grid\n"
        "grid = sweep_grid(paper_parameters(), 'hep', [0.0, 0.01],\n"
        "                  'disk_failure_rate', [1e-5, 1e-4], policy='conventional',\n"
        "                  backend='monte_carlo', mc_iterations=200, workers=1, seed=3)\n"
        "assert len(grid.points) == 2 and len(grid.points[0]) == 2"
    ),
    "analytical_evaluate": (
        "from repro import evaluate, paper_parameters\n"
        "estimate = evaluate(paper_parameters(), policy='conventional',\n"
        "                    backend='analytical')\n"
        "assert 0.0 < estimate.availability <= 1.0"
    ),
}


#: Makes every later ``import networkx`` raise ``ImportError``.
BLOCK_NETWORKX = "import sys\nsys.modules['networkx'] = None\n"


def loaded_after(snippet: str) -> list:
    """Run ``snippet`` in a fresh interpreter; return which DEFERRED it loaded."""
    code = (
        f"{snippet}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
    )
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("case", sorted(SNIPPETS))
def test_deferred_modules_stay_unloaded(case):
    assert loaded_after(SNIPPETS[case]) == []


@pytest.mark.parametrize("case", sorted(SNIPPETS))
def test_networkx_is_not_required(case):
    loaded_after(BLOCK_NETWORKX + SNIPPETS[case])


def test_to_networkx_names_the_missing_package():
    loaded_after(
        BLOCK_NETWORKX
        + "import pytest\n"
        "from repro.markov import MarkovChain, State, Transition, is_irreducible, to_networkx\n"
        "chain = MarkovChain([State('A'), State('B', up=False)],\n"
        "                    [Transition('A', 'B', 1.0), Transition('B', 'A', 1.0)])\n"
        "with pytest.raises(ImportError, match='networkx'):\n"
        "    to_networkx(chain)\n"
        "assert is_irreducible(chain)"
    )


def test_the_probe_sees_a_loaded_module():
    # Guards the check above against passing vacuously.
    assert "scipy.linalg" in loaded_after("import scipy.linalg")
