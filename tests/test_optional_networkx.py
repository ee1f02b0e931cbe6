"""networkx is an optional extra: everything but the ablation works without it.

Each command runs in its own interpreter behind a ``sys.meta_path``
finder that refuses ``networkx``, as on an install without the
``ablation`` extra: the CLI, a one-day CloudFog/A run, and the CNM
ablation bench, which must skip with its message instead of raising
``ImportError``.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

BLOCK_NETWORKX = """\
import runpy, sys

class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, BlockNetworkx())
sys.argv = sys.argv[1:]
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""


def _run_without_networkx(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", BLOCK_NETWORKX, *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def test_cli_help_without_networkx():
    done = _run_without_networkx("repro", "--help")
    assert done.returncode == 0, done.stderr[-2000:]
    assert "Reproduce a figure of the CloudFog paper" in done.stdout


def test_one_day_run_without_networkx():
    done = _run_without_networkx("repro", "run", "--variant", "CloudFog/A",
                                 "--days", "1", "--players", "150",
                                 "--seed", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    assert "mean continuity" in done.stdout


def test_ablation_bench_skips_without_networkx():
    done = _run_without_networkx(
        "pytest", "-p", "no:cacheprovider", "-rs",
        "benchmarks/bench_ablation_communities.py", "--benchmark-disable")
    # A module-level skip leaves no test collected: pytest exits 5.
    assert done.returncode == 5, done.stdout[-2000:] + done.stderr[-2000:]
    assert "ImportError" not in done.stdout + done.stderr
    assert "1 skipped" in done.stdout, done.stdout
    assert "needs the 'ablation' extra" in done.stdout, done.stdout
