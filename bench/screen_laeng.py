"""Sort ``identities --suite laeng`` seeds into the pools that workloads.py uses.

    python3 bench/screen_laeng.py

At the commit that introduced this benchmark, the suite's level-set measure
misses its 1e-3 tolerance for a sizeable share of the random unions a seed
draws, so a seed taken at random fails the identity about two times in five.
Drawn at random, the number of such failures would vary from run to run.
The benchmark instead draws its seeds from two pools screened here, once:
seeds whose report passes and seeds whose report fails.  Each deck holds a
fixed number of each, and the failing ones are counted as failed ops.
The script draws as many seeds of each kind as the pools in workloads.py hold.
"""

import contextlib
import io
import json

import numpy as np

import run
from workloads import LAENG_FAILING_SEEDS, LAENG_PASSING_SEEDS


def main():
    want_pass, want_fail = len(LAENG_PASSING_SEEDS), len(LAENG_FAILING_SEEDS)
    cli = run.load_cli()
    rng = np.random.default_rng(2024)
    passing, failing = [], []
    while len(passing) < want_pass or len(failing) < want_fail:
        seed = int(rng.integers(0, 2**31 - 1))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["identities", "--suite", "laeng", "--seed", str(seed),
                             "--no-timestamp"])
        ok = code == 0 and json.loads(out.getvalue())["pass"]
        pool = passing if ok else failing
        if len(pool) < (want_pass if ok else want_fail):
            pool.append(seed)
    print("LAENG_PASSING_SEEDS =", tuple(passing))
    print("LAENG_FAILING_SEEDS =", tuple(failing))


if __name__ == "__main__":
    main()
