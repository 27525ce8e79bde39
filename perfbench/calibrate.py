"""Check from traced runs that each workload loads the layers it is meant to.

From the repository root::

    python3 perfbench/calibrate.py --seed 0

Runs ``run.py --trace 1`` on every workload, prints each layer's share of
the traced wall time, and exits 1 unless:

* ``fleet-dense`` gives neon+osmodel+core at least 3x their ``figures``
  share, and
* ``monitored`` gives obs at least 10x its share on each of the other two.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from layers import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("figures", "fleet-dense", "monitored")
RUN_TIMEOUT_S = 180

#: (workload, layers, baseline workload, minimum ratio of shares)
CONTRASTS = (
    ("fleet-dense", ("neon", "osmodel", "core"), "figures", 3.0),
    ("monitored", ("obs",), "figures", 10.0),
    ("monitored", ("obs",), "fleet-dense", 10.0),
)


def traced_shares(workload: str, seed: int) -> dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
        timeout=RUN_TIMEOUT_S,
    )
    metrics = json.loads(completed.stdout.splitlines()[-1])["metrics"]
    wall = metrics["trace.wall_s"]["value"]
    return {
        layer: metrics[f"{layer}.self_s"]["value"] / wall for layer in LAYERS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    shares = {w: traced_shares(w, args.seed) for w in WORKLOADS}
    print(f"{'layer':12s}" + "".join(f"{w:>13s}" for w in WORKLOADS))
    for layer in LAYERS:
        print(f"{layer:12s}"
              + "".join(f"{shares[w][layer]:13.2%}" for w in WORKLOADS))
    ok = True
    for workload, group, baseline, minimum in CONTRASTS:
        share = sum(shares[workload][layer] for layer in group)
        base = sum(shares[baseline][layer] for layer in group)
        ratio = share / base
        verdict = "ok" if ratio >= minimum else "MISS"
        ok = ok and ratio >= minimum
        print(f"{'+'.join(group)}: {workload} {share:.2%} vs {baseline} "
              f"{base:.2%} = {ratio:.1f}x (need >= {minimum:g}x) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
