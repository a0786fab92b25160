"""Where SciPy gets imported, checked in fresh interpreters.

``import repro.hls`` and the greedy path must not load SciPy: its import
takes about half a second, which every greedy-only process would pay at
start-up.  A HiGHS backend loads it before starting its clocks, so the
first layer solve of a process does not charge the import to its
``encode_time``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_importing_hls_and_greedy_synthesis_leave_scipy_unloaded():
    out = _run(
        "import sys\n"
        "import repro.hls\n"
        "print('scipy' in sys.modules)\n"
        "from repro.assays import random_assay\n"
        "from repro.hls import SynthesisSpec, synthesize\n"
        "synthesize(random_assay(30, seed=3),\n"
        "           SynthesisSpec(max_devices=30, scheduler='greedy'))\n"
        "print('scipy' in sys.modules)\n"
    )
    assert out.split() == ["False", "False"]


def test_first_ilp_layer_encode_does_not_import_scipy():
    # Records, at every model acquisition (the span timed as the layer's
    # encode), whether SciPy's solver module is already loaded.
    out = _run(
        "import json, sys\n"
        "from repro.hls import backends\n"
        "from repro.hls import SynthesisSpec, synthesize\n"
        "from repro.operations import AssayBuilder\n"
        "seen = []\n"
        "acquire = backends._acquire_layer_model\n"
        "def recording(*args, **kwargs):\n"
        "    seen.append('scipy.optimize' in sys.modules)\n"
        "    return acquire(*args, **kwargs)\n"
        "backends._acquire_layer_model = recording\n"
        "b = AssayBuilder('three')\n"
        "x = b.op('mix', 3, container='ring', accessories=['pump'])\n"
        "y = b.op('heat', 4, accessories=['heating_pad'], after=[x])\n"
        "b.op('detect', 2, accessories=['optical_system'], after=[y])\n"
        "synthesize(b.build(), SynthesisSpec(max_devices=3, time_limit=5,\n"
        "                                    max_iterations=0))\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(out)
    assert seen and all(seen), seen
