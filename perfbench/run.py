"""End-to-end benchmark of permavoid on three workloads.

Run from the root of a permavoid checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

It starts ``worker.py`` in a clean environment (no ``PERMAVOID_*``
variables, ``PYTHONHASHSEED=0``, no bytecode writes, ``src`` on the
path), with a temporary directory inside the checkout for the inputs it
generates from ``--seed``, and relays the worker's report.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  See README.md in this directory.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "sampling", "matrix")
TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "permavoid" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/permavoid; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERMAVOID_")}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--tmp", tmp]
    try:
        # A new process group, so a timeout can stop the worker's children too.
        proc = subprocess.Popen(argv, env=env, cwd=root, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"perfbench: worker passed {TIMEOUT_S} s and was stopped", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
