"""Print every metric of every workload, by name and unit.

    python3 perfbench/report.py

Runs ``run.py`` for each workload of ``BENCHMARK.json``, untraced and
traced, at the default seed (whose digests are stored) and the file's
``run_seconds``, and exits 1 if any run fails or its correctness gate
fails.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gate import DEFAULT_SEED  # noqa: E402


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(DEFAULT_SEED), "--seconds", seconds,
                 "--trace", str(trace)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                print(proc.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(
                f"{name} trace={trace} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            if not result["correct"]:
                print(proc.stderr)
            for metric, value in result["metrics"].items():
                print(f"  {metric:36s} {value['value']:>16.6g} {value['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
