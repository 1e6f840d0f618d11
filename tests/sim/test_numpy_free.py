"""Operation without numpy: the pure-Python engines and the dtype check.

This file deliberately never imports numpy, so it always collects — the
no-numpy CI job runs it to assert the failure modes instead of silently
collecting nothing.  Each test runs a child interpreter whose ``numpy``
import is blocked, so the same assertions hold on hosts that have numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def _run_without_numpy(tmp_path, script: str) -> str:
    """Run ``script`` in a child interpreter where ``import numpy`` fails."""
    (tmp_path / "numpy.py").write_text("raise ImportError('numpy blocked')\n")
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{src}")
    env.pop("REPRO_ARRAY_DTYPE", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNumpyFreeOperation:
    def test_package_imports_and_batch_engine_runs_without_numpy(self, tmp_path):
        """The vectorised engine is optional: without numpy, `import repro`
        works, the batch engine runs (scalar PRF keys), and engine='ndbatch'
        raises an actionable ImportError."""
        script = (
            "import repro\n"
            "from repro.sim.sweep import SweepSpec, run_sweep\n"
            "from repro import run_batch_protocol\n"
            "result = run_batch_protocol('async-crash', [0.0, 0.2, 0.9, 1.0],"
            " t=1, epsilon=0.05)\n"
            "assert result.ok\n"
            "spec = SweepSpec(protocols=('async-crash',), system_sizes=((4, 1),),"
            " engine='ndbatch')\n"
            "try:\n"
            "    run_sweep(spec, workers=1)\n"
            "except ImportError as exc:\n"
            "    assert 'numpy' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('ndbatch ran without numpy')\n"
            "print('numpy-free OK')\n"
        )
        assert "numpy-free OK" in _run_without_numpy(tmp_path, script)

    def test_dtype_is_checked_without_numpy(self, tmp_path):
        """The dtype check needs no numpy: an unknown dtype (kwarg or
        REPRO_ARRAY_DTYPE) fails a batch sweep with ValueError before any
        cell runs, and float32 — which only ndbatch blocks use — leaves a
        batch grid's outcomes unchanged."""
        script = (
            "import os\n"
            "from repro.sim.planner import resolve_dtype\n"
            "from repro.sim.sweep import SweepSpec, run_sweep\n"
            "spec = SweepSpec(protocols=('witness',), system_sizes=((7, 2),),"
            " seeds=(0, 1), engine='batch')\n"
            "def rejected(**kwargs):\n"
            "    try:\n"
            "        run_sweep(spec, workers=1, **kwargs)\n"
            "    except ValueError as exc:\n"
            "        return str(exc)\n"
            "    raise AssertionError('unknown dtype accepted')\n"
            "assert 'REPRO_ARRAY_DTYPE' in rejected(dtype='float16')\n"
            "os.environ['REPRO_ARRAY_DTYPE'] = 'float16'\n"
            "assert 'float16' in rejected()\n"
            "del os.environ['REPRO_ARRAY_DTYPE']\n"
            "assert resolve_dtype(' Float32 ') == 'float32'\n"
            "plain = run_sweep(spec, workers=1)\n"
            "assert len(plain) == 2\n"
            "assert run_sweep(spec, workers=1, dtype='float32') == plain\n"
            "print('numpy-free dtype OK')\n"
        )
        assert "numpy-free dtype OK" in _run_without_numpy(tmp_path, script)
