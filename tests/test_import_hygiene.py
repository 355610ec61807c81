"""Cold-start hygiene: the refinement path imports only what it runs.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.  Importing the refinement flow and the
gallery matrix must not load the graph analyses (``repro.sfg``), the
verifier, the HDL back end, the linter or the trace exporters;
importing one DSP design must not load the others; and a full E8
refinement run, which lints its design, must not load networkx.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

HEAVY = ("networkx", "repro.sfg", "repro.verify", "repro.hdl", "repro.lint")


def _loaded_after(code, modules=HEAVY):
    """Names of ``modules`` in ``sys.modules`` after running ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in %r if m in sys.modules]))\n"
        % (tuple(modules),))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return json.loads(out.splitlines()[-1])


def test_refine_and_matrix_imports_stay_light():
    assert _loaded_after("import repro.refine\n"
                         "import repro.gallery.matrix\n",
                         HEAVY + ("repro.obs.export",)) == []


def test_one_design_loads_one_dsp_module():
    others = ("repro.dsp.biquad", "repro.dsp.cordic",
              "repro.dsp.timing_recovery")
    assert _loaded_after("import repro.dsp.lms\n", others) == []
    assert _loaded_after("from repro.dsp import BiquadDesign\n",
                         others) == ["repro.dsp.biquad"]


def test_linted_e8_run_loads_no_networkx():
    loaded = _loaded_after(
        "from repro.core.dtype import DType\n"
        "from repro.dsp.lms import LmsEqualizerDesign\n"
        "from repro.refine import FlowConfig, RefinementFlow\n"
        "t_in = DType('T_input', 7, 5, 'tc', 'saturate', 'round')\n"
        "flow = RefinementFlow(\n"
        "    design_factory=LmsEqualizerDesign,\n"
        "    input_types={'x': t_in}, input_ranges={'x': (-1.5, 1.5)},\n"
        "    user_ranges={'b': (-0.2, 0.2)},\n"
        "    config=FlowConfig(n_samples=4000, auto_range=False,\n"
        "                      seed=1234))\n"
        "flow.run()\n")
    assert "repro.lint" in loaded         # the run did lint
    assert "networkx" not in loaded
