"""Benchmark: time to a certified set on cec-study, nec-rbf and walker.

    python3 perfbench/run.py --workload cec-study --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
A round runs every certification of the workload (`invset.run`) and then the
k-step `invset.verify_k_step` sweep of each certified set; rounds repeat until
`--seconds` have passed.  With `--trace 0` the last line of standard output is
a JSON object with the end-to-end metrics, the medians over rounds; with
`--trace 1` untraced and traced rounds alternate and it holds the per-layer
metrics of the traced rounds plus the tracing overhead.  The outputs of the
first round are checked apart from the program (see checks.py); every later
round must reproduce them bit for bit.  Details go to standard error and to
perfbench/results/.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="cec-study, nec-rbf or walker")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print 'ready' and exit (how the benchmark times set-up)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "invset" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'invset'}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    import invset

    if Path(invset.__file__).resolve().parent != SRC / "invset":
        sys.exit(f"perfbench: imported invset from {invset.__file__}, not {SRC}")
    import workloads  # the program and set-up only, not the checks

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload].setup()
        print("ready", flush=True)
        return 0
    import harness

    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
