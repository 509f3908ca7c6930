"""Smoke test: every demo exits cleanly and prints one known line.

Each demo runs as a script in a fresh interpreter, with no spectrum cache.
Most take about a second on 2 cores.  06_regularity_criterion.py takes about
3.5 s: its correlation integral counts 2^24 pair sums in four blocks, so it
covers the blocked path of `dos.convolution_ball_mass` end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a line of each demo's output that its computation decides
FAST_DEMOS = {
    "01_fibonacci_spectrum.py": "   IDS(+0.0) = 0.3820",
    "02_trace_map_dynamics.py": "   lam=1.0:   111 intervals, total length 1.2373",
    "03_square_hamiltonian.py": "   lam1=lam2=4.0: 1D length 0.0128, sum has 97 component(s), 96 gap(s)",
    "04_dimensions.py": "   lam=2.0: d = 0.5990 +- 0.0061",
    "05_lyapunov_scan.py": "   lam=1.0: mean exponent 0.5950, spread 0.0058",
    "06_regularity_criterion.py": "   r = 2^-9: estimate 0.9661",
}


def _run(demo) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "QUASISPEC_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()


@pytest.mark.parametrize("demo", sorted(FAST_DEMOS))
def test_demo_runs(demo):
    assert FAST_DEMOS[demo] in _run(demo)


def test_trace_map_demo_conserves_the_invariant():
    prefix = "invariant drift over 1000 short orbits: "
    line, = [s for s in _run("02_trace_map_dynamics.py") if s.startswith(prefix)]
    assert float(line[len(prefix):].split()[0]) < 1e-12
